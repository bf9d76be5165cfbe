"""A fixed reference kernel that measures how fast the machine runs at the moment.

The benchmark shares a few cores of a busy host. Other tenants slow every
kind of work down, in phases of one to tens of seconds, by a factor that
often reaches 1.5 and sometimes 2. An untraced child therefore runs a short,
fixed piece of work (a *tick*) between the program's units of work: a step
tick before every training step and at the end of the training loop, and a
long tick at start-up, before each part of the evaluation and after it. A
tick's reference time is what its parts take on a quiet machine
(``REF_S``). run.py removes the ticks' own time from what it measured and
scales the rest by the ticks' reference time over their measured time, so
that each reported time is the time the program would have taken at the
reference speed.

A tick is a mix of four kinds of work, in the proportions a workload sets
(``workloads.Workload.ruler``), so that its slowdown follows the program's:

- ``python``: label-set building and matching in pure Python, like idml's
  sampling and ``core`` label helpers (but not calling them, so that a
  change to idml cannot move the ruler);
- ``blas``: a 120 x 512 by 512 x 512 matmul, like the model at paper width;
- ``stream``: a 160 x 160 x 32 broadcast that stays in the caches;
- ``fault``: a 36 MB array in fresh memory, which the allocator maps anew
  and the kernel faults in on every call, like idml's large N x N x D metric
  temporaries.
"""

from __future__ import annotations

import numpy as np

from tracing import clock

_rng = np.random.default_rng(20230918)
_LABELS = [(i % 10, (i * 7) % 13) if i % 3 else (i % 10,) for i in range(24)]
_A = _rng.standard_normal((120, 512))
_W = _rng.standard_normal((512, 512)) / 23.0
_E = _rng.standard_normal((160, 32))


def _label_set(labels):
    out = frozenset(int(x) for x in labels)
    if any(x < 0 for x in out):
        raise ValueError(labels)
    return out


def _python():
    n = 0
    for a in _LABELS:
        for b in _LABELS:
            if not _label_set(a).isdisjoint(_label_set(b)):
                n += 1
    return n


def _blas():
    return _A @ _W


def _stream():
    return ((_E[:, None, :] - _E[None, :, :]) ** 2).sum(-1)


def _fault():
    return np.full(4_500_000, 1.0001).sum()


PARTS = {"python": _python, "blas": _blas, "stream": _stream, "fault": _fault}

# Seconds one call of each part takes on a quiet machine: the tenth
# percentile of 300 to 1000 calls on an Intel Xeon vCPU at 2.1 GHz (Python
# 3.11, numpy 2.4, one BLAS thread), rounded. They set only the scale of the
# reported times.
REF_S = {"python": 1.05e-3, "blas": 1.07e-3, "stream": 2.5e-3, "fault": 8.8e-3}


class Ruler:
    """Runs step and long ticks; records (start, end, measured s, reference s) per tick.

    `mix` maps "step" and "long" to {part: calls per tick}. A tick first
    calls each of its parts once untimed, to bring their data and code back
    into the caches the program's work evicted, then the whole mix timed.
    The fault part works on fresh memory every time, so it gets no warm-up.
    Start and end bound the whole tick; the measured seconds are the timed
    part's.
    """

    def __init__(self, mix: dict):
        self.mixes = {}
        for kind in ("step", "long"):
            parts = mix[kind]
            unknown = set(parts) - set(PARTS)
            if unknown:
                raise ValueError(f"unknown ruler parts {sorted(unknown)}; choose from {sorted(PARTS)}")
            calls = [PARTS[p] for p, n in parts.items() for _ in range(n)]
            warm = [PARTS[p] for p in parts if p != "fault"]
            self.mixes[kind] = (warm, calls, sum(REF_S[p] * n for p, n in parts.items()))
        self.ticks = []

    def tick(self, kind: str = "step"):
        warm, calls, ref_s = self.mixes[kind]
        start = clock()
        for call in warm:
            call()
        t0 = clock()
        for call in calls:
            call()
        end = clock()
        self.ticks.append((start, end, end - t0, ref_s))


def scaled_seconds(intervals, ticks) -> float:
    """Seconds the `intervals` took at reference speed, without the ticks inside them.

    The speed is measured by the ticks inside or overlapping the intervals'
    hull plus the nearest tick before and after it: their reference seconds
    over their measured seconds. With no tick near, the raw time is returned.
    """
    intervals = list(intervals)
    if not intervals:
        return 0.0
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    raw = sum(b - a for a, b in intervals)
    for t0, t1, _measured, _ref in ticks:
        for a, b in intervals:
            raw -= max(0.0, min(b, t1) - max(a, t0))
    near = [t for t in ticks if t[1] > lo and t[0] < hi]
    before = [t for t in ticks if t[1] <= lo]
    after = [t for t in ticks if t[0] >= hi]
    if before:
        near.append(max(before, key=lambda t: t[1]))
    if after:
        near.append(min(after, key=lambda t: t[0]))
    measured = sum(t[2] for t in near)
    if measured <= 0.0:
        return raw
    return raw * sum(t[3] for t in near) / measured
