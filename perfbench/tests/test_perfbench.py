"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import ruler  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder, covered_length, percentile, self_times  # noqa: E402

from idml import cli, harness  # noqa: E402
from idml.data import SynthConfig  # noqa: E402
from idml.losses import LOSS_NAMES  # noqa: E402


def tiny_config(loss="triplet_sh", **overrides):
    base = dict(
        data=SynthConfig(n_classes=6, per_class=8, input_dim=6, ambiguous_frac=0.3, seed=3),
        hidden=(8,),
        semantic_dim=4,
        uncertainty_dim=4,
        batch_size=8,
        epochs=1,
    )
    base.update(overrides)
    return harness.introspective_run_config(loss, seed=3, **base)


def write_config(tmp_path, cfg, name="cfg"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(harness.config_to_json_dict(cfg), sort_keys=True, indent=2))
    return path


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def span(sid, parent, t0, t1, name="x.y"):
    return (sid, parent, name, 0, t0, t1)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(1.0, 2.0), (4.0, 5.0)], 0.0, 10.0) == 2.0
    assert covered_length([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered_length([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0  # contained
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_once():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),  # child
        span(3, 2, 2.0, 4.0),  # grandchild: inside the child, not subtracted from 1 again
        span(4, 1, 6.0, 7.0),  # second child
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(4.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 1, 4.0, 8.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]  # 10..1, unsorted
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 1) == 1.0
    assert percentile([3.5], 90) == 3.5
    assert percentile([], 50) == 0.0
    # Never interpolated: always one of the samples.
    assert percentile([1.0, 2.0], 50) == 1.0
    assert percentile([1.0, 2.0], 90) == 2.0


def test_step_percentiles_pool_children_per_loss():
    def recorded(starts):
        return {
            "spans": [],
            "counts": {},
            "temp_bytes_max": 0,
            "configs": [{"loss": "contrastive", "step_starts": starts, "rows": 0, "loop_end": None, "eval_s": 0.0}],
        }

    metrics, problems = tracing.layer_metrics([recorded([0.0, 0.001, 0.003]), recorded([0.0, 0.004, 0.005])])
    # Steps pooled over both children: 1, 2, 4 and 1 ms (the last step of
    # each ends with the loop, which these probes never saw end).
    assert metrics["harness.step_ms_p50.contrastive"] == pytest.approx(1.0)
    assert metrics["harness.step_ms_p90.contrastive"] == pytest.approx(4.0)
    assert metrics["harness.step_ms_p50.triplet_sh"] == 0.0
    assert problems == []


def test_differing_counts_between_traced_children_are_reported():
    def recorded(n):
        return {"spans": [], "counts": {"core.labels_match.calls": n}, "temp_bytes_max": 0, "configs": []}

    _, problems = tracing.layer_metrics([recorded(5), recorded(6)])
    assert any("core.labels_match.calls" in p for p in problems)


def tick(start, end, measured, ref):
    return [start, end, measured, ref]


def test_scaled_seconds_removes_ticks_and_scales_by_the_ticks_near():
    ticks = [
        tick(0.0, 1.0, 1.0, 9.0),  # far before: ignored
        tick(2.0, 3.0, 1.0, 0.5),  # nearest before
        tick(5.0, 6.0, 0.5, 0.25),  # inside: subtracted, and measures
        tick(9.0, 10.0, 1.0, 0.5),  # nearest after
        tick(12.0, 13.0, 1.0, 9.0),  # far after: ignored
    ]
    # [3, 9] holds 6 s, of which the tick inside took 1 s. The three ticks
    # near it ran at half the reference speed.
    assert ruler.scaled_seconds([(3.0, 9.0)], ticks) == pytest.approx(5.0 * 1.25 / 2.5)
    # Two intervals: only the parts inside them are subtracted.
    assert ruler.scaled_seconds([(3.0, 5.5), (8.0, 9.0)], ticks) == pytest.approx(3.0 * 0.5)
    assert ruler.scaled_seconds([(3.0, 9.0)], []) == pytest.approx(6.0)
    assert ruler.scaled_seconds([], ticks) == 0.0


def test_ruler_ticks_record_their_span_and_reference_time():
    r = ruler.Ruler({"step": {"python": 2, "stream": 1}, "long": {"blas": 3}})
    r.tick()
    r.tick("long")
    (s0, e0, m0, ref0), (s1, e1, m1, ref1) = r.ticks
    assert s0 < e0 <= s1 < e1
    assert 0.0 < m0 < e0 - s0 and 0.0 < m1 < e1 - s1
    assert ref0 == pytest.approx(2 * ruler.REF_S["python"] + ruler.REF_S["stream"])
    assert ref1 == pytest.approx(3 * ruler.REF_S["blas"])
    with pytest.raises(ValueError):
        ruler.Ruler({"step": {"fortran": 1}, "long": {}})


def test_end_to_end_scales_each_child_and_takes_medians():
    def child(t_spawn, speed, error=None, rss_kib=1024):
        # Steps at +1, +2 and +5 s; loop end at +7; evaluation from +7 to +10;
        # the child ends at +11. A 0.3 s tick at start-up and 0.5 s ticks
        # before each step and before the loop end, all `speed` times slower
        # than their reference.
        t = lambda x: t_spawn + x  # noqa: E731
        ticks = [tick(t(x - 0.5), t(x), 0.5, 0.5 / speed) for x in (1.0, 2.0, 5.0, 7.0)]
        return (
            t_spawn,
            {
                "t_end": t(11.0),
                "peak_rss_kib": rss_kib,
                "configs": [dict(ok_config(), error=error)],
                "recorded": {
                    "ticks": [tick(t(0.2), t(0.5), 0.3, 0.3 / speed)] + ticks,
                    "configs": [
                        {
                            "loss": "contrastive",
                            "step_starts": [t(1.0), t(2.0), t(5.0)],
                            "rows": 30,
                            "loop_end": t(7.0),
                            "eval_spans": [[t(7.0), t(10.0)]],
                        }
                    ],
                },
            },
        )

    untraced = [child(0.0, 1.0), child(100.0, 2.0, rss_kib=3072), child(200.0, 4.0, rss_kib=2048)]
    per_child = [run.child_end_to_end(t, r) for t, r in untraced]
    # Child 1 at reference speed: the loop is 6 s less three 0.5 s ticks.
    assert per_child[0]["train_samples_per_s"] == pytest.approx(30 / 4.5)
    assert per_child[0]["eval_s"] == pytest.approx(3.0)
    assert per_child[0]["run_s"] == pytest.approx(11.0 - 2.3)
    assert per_child[0]["setup_s"] == pytest.approx(1.0 - 0.8)
    # Child 2 ran at half speed, so its times count half.
    assert per_child[1]["train_samples_per_s"] == pytest.approx(30 / 2.25)
    assert per_child[1]["eval_s"] == pytest.approx(1.5)
    m = run.end_to_end(untraced)
    assert m["train_samples_per_s"] == pytest.approx(30 / 2.25)
    assert m["eval_s"] == pytest.approx(1.5)
    assert m["peak_rss_mib"] == pytest.approx(2.0)
    # A child with a failed config is left out while complete children exist.
    assert run.end_to_end(untraced[:1] + [child(300.0, 8.0, error="MemoryError")]) == per_child[0]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def all_sites():
    sites = [(m, a) for m, a, _ in tracing.SPAN_SITES] + [(m, a) for m, a, _ in tracing.COUNT_SITES]
    return sites + [("idml.data", "Dataset.test_split")] + list(tracing.TICK_SITES)


def current(module, path):
    owner, attr = tracing._resolve(module, path)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("traced,ruled", [(False, False), (False, True), (True, False)])
def test_recorder_restores_every_original(traced, ruled):
    before = {site: current(*site) for site in all_sites()}
    recorder = Recorder(traced=traced, ruler=ruler.Ruler(workloads.WORKLOADS["eval"].ruler) if ruled else None)
    with recorder:
        changed = {site for site in before if current(*site) is not before[site]}
        assert changed
        if traced:
            assert changed == set(before)
        if ruled:
            assert set(tracing.TICK_SITES) <= changed
    for site, original in before.items():
        assert current(*site) is original, site


def test_recorder_restores_when_the_traced_code_raises():
    before = {site: current(*site) for site in all_sites()}
    with pytest.raises(ZeroDivisionError):
        with Recorder(traced=True):
            1 / 0
    assert all(current(*site) is original for site, original in before.items())


def test_traced_run_counts_mining_work(tmp_path):
    path = write_config(tmp_path, tiny_config("triplet_sh"))
    recorder = Recorder(traced=True)
    with recorder:
        out = child.run_config(cli, recorder, path)
    assert out["error"] is None and out["problems"] == []
    recorded = json.loads(json.dumps(recorder.to_json_dict()))
    m = tracing.child_layer_metrics(recorded)
    assert m["core.labels_match.calls"] > 0
    assert m["sampling.mine_triplets.calls"] == m["harness.steps"] == 3  # 24 train rows / batch 8
    assert m["sampling.triplets_mined"] + m["sampling.triplets_skipped"] > 0
    assert m["cli.main.self_s"] >= 0.0
    assert m["harness.train_s.triplet_sh"] > 0.0
    assert recorded["configs"][0]["rows"] == 3 * 12  # 8 clean + 4 mixed per step


# ---------------------------------------------------------------------------
# Failures are counted, not fatal
# ---------------------------------------------------------------------------


def test_memory_error_in_a_config_is_recorded(tmp_path, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(harness, "train", out_of_memory)
    recorder = Recorder(traced=False)
    with recorder:
        out = child.run_config(cli, recorder, write_config(tmp_path, tiny_config()))
    assert out["error"] == "MemoryError"
    assert out["digest"] is None


def test_numerical_failure_in_a_config_is_recorded(tmp_path):
    csv = tmp_path / "data.csv"
    cli.main(["synth", "--config", str(write_config(tmp_path, tiny_config())), "--output", str(tmp_path)])
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    first = lines[1].split(",")
    first[2] = "nan"
    lines[1] = ",".join(first)
    csv.write_text("\n".join(lines) + "\n")
    cfg = tiny_config(dataset_path=str(csv))
    recorder = Recorder(traced=False)
    with recorder:
        out = child.run_config(cli, recorder, write_config(tmp_path, cfg))
    assert out["error"] == "idml train exited with code 3"


def ok_config(loss="contrastive", digest="a"):
    return {"loss": loss, "error": None, "problems": [], "digest": digest, "recall_at_1": 0.5}


def test_count_outcomes_counts_every_kind_of_failure():
    results = [
        {"configs": [ok_config(), ok_config("margin_dw", "b")]},
        {"configs": [dict(ok_config(), error="MemoryError"), ok_config("margin_dw", "b")]},
        {"configs": [dict(ok_config(), error="idml train exited with code 3"), ok_config("margin_dw", "c")]},
        {"configs": [dict(ok_config(), problems=["final.nmi is nan"]), ok_config("margin_dw", "b")]},
        None,  # a child that died
    ]
    attempted, failed, failures, problems, digests = run.count_outcomes(results, 2)
    assert attempted == 10
    assert failed == 1 + 1 + 1 + 1 + 2  # MemoryError, exit 3, digest c, nan, dead child
    assert len(failures) == 3
    assert len(problems) == 2  # the digest mismatch and the non-finite report
    assert digests == {0: "a", 1: "b"}


def test_record_problems_flags_non_finite_and_out_of_range():
    record = {
        "epochs": [{"epoch": 1, "loss": float("nan"), "grad_norm": 1.0}],
        "final": {"recall_at_k": {"1": 1.5, "2": 0.5}, "nmi": float("inf"), "corr": {"mrr": 0.1}},
    }
    problems = child.record_problems(record)
    assert len(problems) == 3
    assert child.record_problems({"epochs": [], "final": {"recall_at_k": {"1": 0.0}}}) == []


def test_child_memory_limit_turns_an_oversized_config_into_a_counted_failure(tmp_path):
    # 400 test rows make evaluate() build 400x400x32 float64 temporaries; a
    # 450 MiB address-space cap leaves no room for them beside numpy itself.
    big = tiny_config(
        "contrastive",
        data=SynthConfig(n_classes=16, per_class=50, input_dim=6, seed=3),
        hidden=(8,),
        semantic_dim=32,
        batch_size=32,
        epochs=1,
    )
    configs = [write_config(tmp_path, big, "0-big"), write_config(tmp_path, tiny_config(), "1-tiny")]
    rc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT), "--out", str(tmp_path / "r.json"),
         "--mem-limit-mib", "330", *map(str, configs)],
        capture_output=True, timeout=120,
    ).returncode
    assert rc == 0
    result = json.loads((tmp_path / "r.json").read_text())
    assert result["configs"][0]["error"] == "MemoryError"
    assert result["configs"][1]["error"] is None
    assert result["env"]["mem_limit_mib"] == 330


# ---------------------------------------------------------------------------
# The benchmark does not perturb the program
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loss", ["triplet_sh", "margin_dw", "proxy_nca"])
def test_record_json_matches_a_plain_cli_train(tmp_path, loss):
    path = write_config(tmp_path, tiny_config(loss))
    assert cli.main(["train", "--config", str(path), "--output", str(tmp_path / "plain")]) == 0
    plain = (tmp_path / "plain" / "record.json").read_bytes()
    for traced, ruled in ((False, False), (False, True), (True, False)):
        recorder = Recorder(traced=traced, ruler=ruler.Ruler(workloads.WORKLOADS["mining"].ruler) if ruled else None)
        with recorder:
            out = child.run_config(cli, recorder, path)
        assert out["error"] is None
        assert (path.with_suffix(".out") / "record.json").read_bytes() == plain
        if ruled:
            assert len(recorder.ruler.ticks) > len(recorder.configs[0].step_starts)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert set(tracing.LOSSES) == set(LOSS_NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.PER_LAYER.items()
    }


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mining", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
