"""Timing and counting wrappers installed around idml's functions at their import sites.

A child process installs a :class:`Recorder` before it trains, and restores
every original afterwards. With tracing off the recorder installs only the
four probes the end-to-end metrics need (one timestamp per training step, the
end of the training loop, and the test-split forward and evaluate calls); when
given a :class:`ruler.Ruler` it also runs a tick before every step, at the end
of the loop, before each part of the evaluation (``TICK_SITES``) and after it.
With tracing on it also records a span (id, parent id, name, config index,
start, end) around every call listed in ``SPAN_SITES`` and counts the hot
label helpers in ``COUNT_SITES`` without timing them. Spans stay in memory
until the child writes them out.

Wrapping a name at its import site (``idml.losses.mine_triplets`` rather than
``idml.sampling.mine_triplets``) is what catches the calls: each module looks
the name up in its own globals.

The pure functions at the bottom turn one child's spans and counts into the
per-layer metrics; they are shared by the benchmark and its tests.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

# CLOCK_MONOTONIC on Linux, so timestamps taken in the parent and in a child
# can be subtracted.
clock = time.monotonic

LOSSES = (
    "contrastive",
    "margin_dw",
    "triplet_sh",
    "multi_similarity",
    "softmax_proxy",
    "proxy_nca",
    "proxy_anchor",
)

# Timed call sites: (module, attribute at that module, span name). The span
# name's first part is the layer the call enters.
SPAN_SITES = (
    ("idml.cli", "main", "cli.main"),
    ("idml.harness", "train", "harness.train"),
    ("idml.harness", "generate", "data.generate"),
    ("idml.harness", "augment_batch", "augment.augment_batch"),
    ("idml.harness", "loss_and_grad", "model.loss_and_grad"),
    ("idml.harness", "forward", "model.forward"),
    ("idml.harness", "save_checkpoint", "model.save_checkpoint"),
    ("idml.model", "AdamW.step", "model.optimizer_step"),
    ("idml.model", "build_plan", "losses.build_plan"),
    ("idml.model", "evaluate_loss", "losses.evaluate_loss"),
    ("idml.losses", "mine_triplets", "sampling.mine_triplets"),
    ("idml.losses", "sample_negatives_for_pairs", "sampling.sample_negatives_for_pairs"),
    ("idml.losses", "pairwise_semantic_distance", "metric.pairwise_semantic_distance"),
    ("idml.losses", "pairwise_pair_uncertainty", "metric.pairwise_pair_uncertainty"),
    ("idml.losses", "distance_table", "metric.distance_table"),
    ("idml.losses", "similarity_table", "metric.similarity_table"),
    ("idml.harness", "evaluate", "evaluation.evaluate"),
    ("idml.evaluation", "pairwise_semantic_distance", "metric.pairwise_semantic_distance"),
    ("idml.evaluation", "pairwise_pair_uncertainty", "metric.pairwise_pair_uncertainty"),
    ("idml.evaluation", "distance_table", "metric.distance_table"),
    ("idml.evaluation", "neighbor_order", "evaluation.neighbor_order"),
    ("idml.evaluation", "recall_at_k", "evaluation.recall_at_k"),
    ("idml.evaluation", "r_precision_and_map_at_r", "evaluation.r_precision_and_map_at_r"),
    ("idml.evaluation", "kmeans", "evaluation.kmeans"),
    ("idml.evaluation", "nmi", "evaluation.nmi"),
    ("idml.evaluation", "correlation_stats", "evaluation.correlation_stats"),
    ("idml.evaluation", "relative_embeddings", "evaluation.relative_embeddings"),
)

# Hot helpers called O(N^2..N^3) times per step: counted, never timed.
COUNT_SITES = (
    ("idml.sampling", "labels_match", "core.labels_match.calls"),
    ("idml.core", "label_set", "core.label_set.calls"),
    ("idml.losses", "label_set", "core.label_set.calls"),
    ("idml.evaluation", "label_set", "core.label_set.calls"),
    ("idml.augment", "label_set", "core.label_set.calls"),
)

# The long parts of the evaluation, at their import sites in
# idml.evaluation: with tracing off and a ruler given, a long tick runs
# before each call.
TICK_SITES = (
    ("idml.evaluation", "pairwise_semantic_distance"),
    ("idml.evaluation", "neighbor_order"),
    ("idml.evaluation", "r_precision_and_map_at_r"),
    ("idml.evaluation", "kmeans"),
    ("idml.evaluation", "correlation_stats"),
)

LAYERS = ("cli", "harness", "data", "augment", "model", "losses", "sampling", "metric", "evaluation")


@dataclass
class ConfigProbe:
    """What the probes saw while one config trained."""

    loss: str
    step_starts: list = field(default_factory=list)
    rows: int = 0
    loop_end: float = None
    # (start, end) of the test-split forward and evaluate calls.
    eval_spans: list = field(default_factory=list)


def _resolve(module: str, path: str):
    """(owner, attribute) for 'name' or 'Class.name' inside `module`."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _semantic_table_bytes(S, T=None):
    n, d = S.shape
    return n * (n if T is None else T.shape[0]) * d * 8


def _uncertainty_table_bytes(U, V=None, sumnorm=False):
    if sumnorm:
        return 0  # ||u_i|| + ||v_j|| builds no N x M x D temporary
    n, d = U.shape
    return n * (n if V is None else V.shape[0]) * d * 8


class Recorder:
    """Installs the wrappers, collects spans, counts and probes, restores originals.

    `ruler` (untraced runs only) runs a step tick before every step and at
    the end of the loop, and a long tick around the evaluation.
    """

    def __init__(self, traced: bool, ruler=None):
        if traced and ruler is not None:
            raise ValueError("a traced run takes no ruler: its ticks would land in the spans")
        self.traced = traced
        self.ruler = ruler
        self.spans = []  # (id, parent id, name, config index, start, end)
        self.counts = Counter()
        self.temp_bytes_max = 0
        self.configs = []
        self._stack = []
        self._ids = itertools.count(1)
        self._patched = []

    @property
    def current(self) -> ConfigProbe:
        return self.configs[-1]

    def begin_config(self, loss: str):
        self.configs.append(ConfigProbe(loss=loss))

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("recorder already installed")
        # The end-to-end probes, installed with tracing on or off.
        probes = {
            ("idml.harness", "loss_and_grad"): self._on_step,
            ("idml.harness", "forward"): self._on_forward,
            ("idml.harness", "evaluate"): self._on_evaluate,
            ("idml.data", "Dataset.test_split"): self._on_test_split,
        }
        counters = {
            "augment.augment_batch": self._on_augment,
            "sampling.mine_triplets": self._on_mine,
            "sampling.sample_negatives_for_pairs": self._on_dw,
            "metric.pairwise_semantic_distance": self._on_semantic_table,
            "metric.pairwise_pair_uncertainty": self._on_uncertainty_table,
        }
        try:
            if self.traced:
                for module, attr, name in SPAN_SITES:
                    hooks = [h for h in (probes.get((module, attr)), counters.get(name)) if h]
                    if module == "idml.losses" and name.startswith("metric."):
                        hooks.append(self._on_loss_table)
                    self._patch(module, attr, lambda fn, n=name, h=hooks: self._spanned(fn, n, h))
                for module, attr, key in COUNT_SITES:
                    self._patch(module, attr, lambda fn, k=key: self._counted(fn, k))
                untimed = [s for s in probes if s not in {(m, a) for m, a, _ in SPAN_SITES}]
            else:
                untimed = list(probes)
            ticked = set()
            if self.ruler is not None:
                ticked = {("idml.harness", "loss_and_grad"), ("idml.data", "Dataset.test_split")}
                for site in TICK_SITES:
                    self._patch(*site, self._ticked)
            for site in untimed:
                self._patch(*site, lambda fn, h=probes[site], t=site in ticked: self._probed(fn, h, t))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        """Put every original back, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _patch(self, module, path, make_wrapper):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name, hooks):
        spans, stack, ids, recorder = self.spans, self._stack, self._ids, self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, len(recorder.configs) - 1, t0, t1))
            for hook in hooks:
                hook(args, kwargs, result, t0, t1)
            return result

        return wrapper

    def _probed(self, fn, hook, tick=False):
        ruler = self.ruler

        def wrapper(*args, **kwargs):
            if tick:
                ruler.tick("step")
            t0 = clock()
            result = fn(*args, **kwargs)
            hook(args, kwargs, result, t0, clock())
            return result

        return wrapper

    def _ticked(self, fn):
        ruler = self.ruler

        def wrapper(*args, **kwargs):
            ruler.tick("long")
            return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _on_step(self, args, kwargs, result, t0, t1):
        probe = self.current
        probe.step_starts.append(t0)
        probe.rows += len(args[1])  # loss_and_grad(model, batch, ...)

    def _on_test_split(self, args, kwargs, result, t0, t1):
        self.current.loop_end = t0

    def _on_forward(self, args, kwargs, result, t0, t1):
        if self.current.loop_end is not None:
            self.current.eval_spans.append((t0, t1))

    def _on_evaluate(self, args, kwargs, result, t0, t1):
        self.current.eval_spans.append((t0, t1))
        if self.ruler is not None:
            self.ruler.tick("long")

    def _on_augment(self, args, kwargs, result, t0, t1):
        self.counts["augment.mixed_rows"] += int(result.is_mixed.sum())

    def _on_mine(self, args, kwargs, result, t0, t1):
        triplets, skipped = result
        self.counts["sampling.triplets_mined"] += len(triplets)
        self.counts["sampling.triplets_skipped"] += int(skipped)

    def _on_dw(self, args, kwargs, result, t0, t1):
        self.counts["sampling.dw_positive_pairs"] += len(args[0])
        self.counts["sampling.dw_negatives"] += len(result)

    def _on_semantic_table(self, args, kwargs, result, t0, t1):
        self._add_temp_bytes(_semantic_table_bytes(*args, **kwargs))

    def _on_uncertainty_table(self, args, kwargs, result, t0, t1):
        self._add_temp_bytes(_uncertainty_table_bytes(*args, **kwargs))

    def _on_loss_table(self, args, kwargs, result, t0, t1):
        self.counts["losses.table_calls"] += 1

    def _add_temp_bytes(self, n: int):
        self.counts["metric.temp_bytes"] += n
        self.temp_bytes_max = max(self.temp_bytes_max, n)

    # -- output ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "temp_bytes_max": self.temp_bytes_max,
            "configs": [asdict(c) for c in self.configs],
            "ticks": self.ruler.ticks if self.ruler is not None else [],
        }


# ---------------------------------------------------------------------------
# Arithmetic on recorded data
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its direct children cover.

    Grandchildren lie inside their parents, so only direct children are
    subtracted; overlapping children are merged before subtracting.
    """
    children = defaultdict(list)
    for sid, parent, _name, _cfg, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
        for sid, _parent, _name, _cfg, t0, t1 in spans
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it.

    Always an observed value, never an interpolation; 0.0 for no samples.
    """
    if not values:
        return 0.0
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def step_durations(probe: dict) -> list:
    """Seconds per training step of one config, from one timestamp per step.

    A step runs from its start to the next step's start; the last one ends
    where the training loop ends.
    """
    ends = probe["step_starts"][1:] + ([probe["loop_end"]] if probe["loop_end"] is not None else [])
    return [b - a for a, b in zip(probe["step_starts"], ends)]


def train_loop_s(probe: dict) -> float:
    """From the first training step to the end of the training loop."""
    return sum(step_durations(probe))


# Per-layer metrics: name -> (unit, better, kind). Times are medians over the
# traced children; counts must repeat exactly between them.
PER_LAYER = {}


def _spec(name, unit, better, kind):
    PER_LAYER[name] = (unit, better, kind)


for _n in ("core.labels_match.calls", "core.label_set.calls"):
    _spec(_n, "count", "lower", "count")
for _n in ("mine_triplets", "sample_negatives_for_pairs"):
    _spec(f"sampling.{_n}.s", "s", "lower", "time")
    _spec(f"sampling.{_n}.calls", "count", "lower", "count")
_spec("sampling.triplets_mined", "count", "higher", "count")
_spec("sampling.triplets_skipped", "count", "lower", "count")
_spec("sampling.triplet_yield", "fraction", "higher", "count")
_spec("sampling.dw_negatives", "count", "higher", "count")
_spec("sampling.dw_yield", "fraction", "higher", "count")
for _n in ("pairwise_semantic_distance", "pairwise_pair_uncertainty"):
    _spec(f"metric.{_n}.s", "s", "lower", "time")
    _spec(f"metric.{_n}.calls", "count", "lower", "count")
_spec("metric.distance_table.s", "s", "lower", "time")
_spec("metric.similarity_table.s", "s", "lower", "time")
_spec("metric.temp_bytes", "B_computed", "lower", "count")
_spec("metric.temp_bytes_max", "B_computed", "lower", "count")
for _n in ("build_plan", "evaluate_loss"):
    _spec(f"losses.{_n}.self_s", "s", "lower", "time")
    _spec(f"losses.{_n}.calls", "count", "lower", "count")
_spec("losses.tables_per_step", "calls/step", "lower", "count")
_spec("augment.augment_batch.s", "s", "lower", "time")
_spec("augment.augment_batch.calls", "count", "lower", "count")
_spec("augment.mixed_rows", "count", "higher", "count")
_spec("model.loss_and_grad.self_s", "s", "lower", "time")
_spec("model.forward.s", "s", "lower", "time")
_spec("model.forward.calls", "count", "lower", "count")
_spec("model.optimizer_step.s", "s", "lower", "time")
_spec("model.save_checkpoint.s", "s", "lower", "time")
_spec("data.generate.s", "s", "lower", "time")
_spec("evaluation.evaluate.self_s", "s", "lower", "time")
for _n in ("neighbor_order", "recall_at_k", "r_precision_and_map_at_r", "kmeans", "nmi"):
    _spec(f"evaluation.{_n}.s", "s", "lower", "time")
_spec("evaluation.correlation_stats.self_s", "s", "lower", "time")
_spec("evaluation.relative_embeddings.s", "s", "lower", "time")
_spec("harness.train.self_s", "s", "lower", "time")
_spec("harness.steps", "count", "higher", "count")
for _loss in LOSSES:
    _spec(f"harness.train_s.{_loss}", "s", "lower", "time")
    _spec(f"harness.step_ms_p50.{_loss}", "ms", "lower", "time")
    _spec(f"harness.step_ms_p90.{_loss}", "ms", "lower", "time")
_spec("cli.main.self_s", "s", "lower", "time")
for _layer in LAYERS:
    _spec(f"layer.{_layer}.self_s", "s", "lower", "time")
_spec("trace.train_loop_s", "s", "lower", "time")
_spec("trace.run_s", "s", "lower", "time")
_spec("trace.overhead_s", "s", "lower", "time")


def child_layer_metrics(recorded: dict) -> dict:
    """Per-layer metrics of one traced child, from its Recorder.to_json_dict().

    Leaves out the step percentiles (pooled over children by
    layer_metrics), trace.run_s and trace.overhead_s (which need the
    parent's clock and the untraced children).
    """
    spans = recorded["spans"]
    counts = Counter(recorded["counts"])
    own = self_times(spans)
    total, self_total, calls = Counter(), Counter(), Counter()
    layer_self = Counter()
    train_by_loss = Counter()
    for sid, _parent, name, cfg, t0, t1 in spans:
        total[name] += t1 - t0
        self_total[name] += own[sid]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own[sid]
        if name == "harness.train":
            train_by_loss[recorded["configs"][cfg]["loss"]] += t1 - t0

    probes = recorded["configs"]
    steps = sum(len(p["step_starts"]) for p in probes)
    mined, skipped = counts["sampling.triplets_mined"], counts["sampling.triplets_skipped"]
    dw_pos = counts["sampling.dw_positive_pairs"]
    m = {
        "core.labels_match.calls": counts["core.labels_match.calls"],
        "core.label_set.calls": counts["core.label_set.calls"],
        "sampling.triplets_mined": mined,
        "sampling.triplets_skipped": skipped,
        "sampling.triplet_yield": mined / (mined + skipped) if mined + skipped else 0.0,
        "sampling.dw_negatives": counts["sampling.dw_negatives"],
        "sampling.dw_yield": counts["sampling.dw_negatives"] / dw_pos if dw_pos else 0.0,
        "metric.temp_bytes": counts["metric.temp_bytes"],
        "metric.temp_bytes_max": recorded["temp_bytes_max"],
        "losses.tables_per_step": counts["losses.table_calls"] / steps if steps else 0.0,
        "augment.mixed_rows": counts["augment.mixed_rows"],
        "harness.steps": steps,
        "harness.train.self_s": self_total["harness.train"],
        "trace.train_loop_s": sum(train_loop_s(p) for p in probes),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    for loss in LOSSES:
        m[f"harness.train_s.{loss}"] = train_by_loss[loss]
    stats = {"s": total, "self_s": self_total, "calls": calls}
    for name in PER_LAYER:
        if name not in m and not name.startswith(("harness.", "trace.")):
            span, stat = name.rsplit(".", 1)
            m[name] = stats[stat][span]
    return m


def layer_metrics(traced_children: list) -> tuple:
    """(metrics, problems) over the traced children's Recorder dicts.

    Times are medians over the children. Counts must repeat exactly for a
    seed; a difference is reported as a problem. Step percentiles pool the
    step intervals of all children, per loss. trace.run_s and
    trace.overhead_s are left for the caller.
    """
    per_child = [child_layer_metrics(r) for r in traced_children]
    metrics, problems = {}, []
    for name, (_unit, _better, kind) in PER_LAYER.items():
        values = [c[name] for c in per_child if name in c]
        if not values:
            continue
        if kind == "count":
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced runs of one seed: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    for loss in LOSSES:
        intervals = [
            d
            for r in traced_children
            for p in r["configs"]
            if p["loss"] == loss
            for d in step_durations(p)
        ]
        metrics[f"harness.step_ms_p50.{loss}"] = 1e3 * percentile(intervals, 50)
        metrics[f"harness.step_ms_p90.{loss}"] = 1e3 * percentile(intervals, 90)
    return metrics, problems


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
