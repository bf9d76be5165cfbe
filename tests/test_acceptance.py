"""Acceptance suite for the package.

Nine checks: exact algebraic properties of the introspective metric and the
loss family (1-4), directional training experiments on the ambiguous
synthetic benchmark (5-7), byte-level run determinism through the CLI (8),
and the semantic/uncertainty correlation diagnostic (9). Each check appends
one PASS/FAIL line that pytest prints in its terminal summary, so the
verdicts and the measured numbers are visible even on a fully green run.

The training experiments share one module-scoped fixture: five seeds, three
arms per loss family (plain baseline, introspective, dissimilar-ablation)
plus a variant that swaps the test-time metric, all trained by one
`run_grid` call.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from oracles import nmi_ref, recall_at_k_ref, rp_map_ref

from idml.core import Batch, MetricParams, Rng, match_matrix, multi_hot
from idml.evaluation import neighbor_order, nmi, r_precision_and_map_at_r, recall_at_k
from idml.harness import (
    baseline_run_config,
    config_to_json_dict,
    introspective_run_config,
    run_grid,
)
from idml.losses import LOSS_NAMES, PROXY_LOSSES, default_loss_params
from idml.metric import gradient_weight, pairwise_semantic_distance
from idml.model import (
    finite_difference_check,
    h_factor_check,
    init_model,
    init_proxies,
    loss_and_grad,
)

SEEDS = tuple(range(5))


def report(num, name, ok, detail):
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _rel_scalar(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-30)


def _rel_array(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# 1. Degenerate limit: u == 0 and gamma == 0 reproduces the plain baseline
# ---------------------------------------------------------------------------


def test_1_degenerate_limit_matches_baseline():
    mp = MetricParams(gamma=0.0)
    feats_rng = np.random.default_rng(7)
    worst = 0.0
    for loss in LOSS_NAMES:
        proxy_classes = (0, 1, 2, 3) if loss in PROXY_LOSSES else ()
        model = init_model(
            input_dim=6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=Rng(11),
            proxy_classes=proxy_classes,
        )
        model.head_u_w[:] = 0.0
        model.head_u_b[:] = 0.0
        if proxy_classes:  # the proxies draw from their own stream
            model.proxies.semantic[:] = init_proxies(proxy_classes, 5, 4, Rng(12)).semantic
            model.proxies.uncertainty[:] = 0.0
        lp = default_loss_params(loss)
        for b in range(100):
            n = 10
            classes = [0, 1] + [int(c) for c in feats_rng.integers(0, 4, size=n - 2)]
            batch = Batch(feats_rng.normal(size=(n, 6)), *multi_hot(classes))
            res_i, g_i = loss_and_grad(
                model, batch, loss, metric="ism", mp=mp, lp=lp, rng=Rng(1000 + b)
            )
            res_e, g_e = loss_and_grad(
                model, batch, loss, metric="euclidean", mp=mp, lp=lp, rng=Rng(1000 + b)
            )
            worst = max(worst, _rel_scalar(res_i.value, res_e.value))
            for sl in model.slices.values():  # each parameter tensor on its own scale
                worst = max(worst, _rel_array(g_i[sl], g_e[sl]))
    report(
        1,
        "degenerate limit",
        worst <= 1e-12,
        f"7 losses x 100 batches, values and full gradients, max rel err {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 2. Attenuation identity: gradient ratio equals H, and H <= 1 iff tight
# ---------------------------------------------------------------------------


def test_2_gradient_attenuation_identity():
    rep = h_factor_check(Rng(3), n_pairs=1000)
    mp = MetricParams()
    r = np.random.default_rng(5)
    alphas = 1e-3 + r.uniform(0.0, 3.0, size=1000)
    betas = 1e-9 + r.uniform(0.0, 3.0, size=1000)
    h_nonzero = max(gradient_weight(a, b, mp) for a, b in zip(alphas, betas))
    h_zero_exact = all(gradient_weight(a, 0.0, mp) == 1.0 for a in (0.5, 1.0, 2.0))
    ok = (
        rep.passed
        and rep.n_pairs == 1000
        and rep.max_rel_err < 1e-6
        and rep.max_h <= 1.0
        and rep.h_at_zero == 1.0
        and h_nonzero < 1.0
        and h_zero_exact
    )
    report(
        2,
        "gradient attenuation identity",
        ok,
        f"1000 pairs, ratio-vs-H max rel err {rep.max_rel_err:.2e}, "
        f"max H {rep.max_h:.6f}, H at zero uncertainty {rep.h_at_zero}",
    )


# ---------------------------------------------------------------------------
# 3. Finite-difference gradient checks across the full loss/metric grid
# ---------------------------------------------------------------------------


def test_3_finite_difference_grid():
    Y, batch_classes = multi_hot((0, 0, 1, 1, 2, 2, 3, 3))

    def batch_fn(r):
        return Batch(r.normal(size=(8, 6)), Y, batch_classes)

    worst = 0.0
    failures = []
    for loss in LOSS_NAMES:
        for metric in ("ism", "euclidean", "ism_dis"):
            classes = (0, 1, 2, 3) if loss in PROXY_LOSSES else ()
            model = init_model(
                input_dim=6, hidden=(8,), semantic_dim=5, uncertainty_dim=4, rng=Rng(21),
                proxy_classes=classes,
            )
            if classes:  # the proxies draw from their own stream
                drawn = init_proxies(classes, 5, 4, Rng(22))
                model.proxies.semantic[:] = drawn.semantic
                model.proxies.uncertainty[:] = drawn.uncertainty
            rep = finite_difference_check(
                model, batch_fn, loss, metric=metric, mp=MetricParams(),
                lp=default_loss_params(loss), rng=Rng(23),
            )
            worst = max(worst, rep.max_rel_err)
            if not rep.passed or rep.max_rel_err >= 1e-4:
                failures.append(f"{loss}/{metric}")
    report(
        3,
        "finite-difference grid",
        not failures and worst < 1e-4,
        f"7 losses x 3 metrics, max rel err {worst:.2e}"
        + (f", failing: {failures}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 4. Evaluation metrics match independent brute-force oracles
# ---------------------------------------------------------------------------


def test_4_metric_oracles():
    r = np.random.default_rng(17)
    worst_cont = 0.0
    rank_exact = True
    for _ in range(200):
        k_classes = int(r.integers(2, 6))
        n = int(r.integers(2 * k_classes, 51))
        counts = 2 + r.multinomial(n - 2 * k_classes, np.full(k_classes, 1.0 / k_classes))
        labels = np.repeat(np.arange(k_classes), counts)[r.permutation(n)]
        labelsets = tuple(frozenset({int(c)}) for c in labels)
        X = r.normal(size=(n, int(r.integers(2, 9))))
        # the relevance table evaluate gathers, over a full Euclidean ranking
        match = match_matrix(multi_hot(labelsets)[0])
        rel = np.take_along_axis(match, neighbor_order(pairwise_semantic_distance(X)), axis=1)

        for k in (1, 2, 4, 8):
            if k < n:
                if recall_at_k(rel, k) != recall_at_k_ref(X, labelsets, k):
                    rank_exact = False
        rp, mp_ = r_precision_and_map_at_r(rel, match.sum(axis=1) - 1)
        rp_ref, mp_ref = rp_map_ref(X, labelsets)
        worst_cont = max(worst_cont, abs(rp - rp_ref), abs(mp_ - mp_ref))

        clusters = r.integers(0, k_classes + 1, size=n)
        worst_cont = max(worst_cont, abs(nmi(labels, clusters) - nmi_ref(labels, clusters)))
    ok = rank_exact and worst_cont <= 1e-12
    report(
        4,
        "evaluation oracles",
        ok,
        f"200 instances, recall exact: {rank_exact}, "
        f"NMI/RP/MAP max abs err {worst_cont:.2e}",
    )


# ---------------------------------------------------------------------------
# 5-7, 9. Benchmark training experiments (shared fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    arms = {}
    for loss in ("contrastive", "proxy_anchor"):
        arms[loss, "base"] = [baseline_run_config(loss, seed=s) for s in SEEDS]
        arms[loss, "ism"] = [introspective_run_config(loss, seed=s) for s in SEEDS]
        arms[loss, "dis"] = [
            introspective_run_config(loss, seed=s, metric="ism_dis") for s in SEEDS
        ]
    arms["contrastive", "ism_test"] = [
        introspective_run_config("contrastive", seed=s, test_metric="ism") for s in SEEDS
    ]
    records = iter(run_grid([cfg for cfgs in arms.values() for cfg in cfgs]))
    return {key: [next(records) for _ in cfgs] for key, cfgs in arms.items()}


def _mean_r1(records):
    return float(np.mean([rec.final.recall_at_k[1] for rec in records]))


def test_5_paired_improvement(benchmark_runs):
    base_c = _mean_r1(benchmark_runs["contrastive", "base"])
    ism_c = _mean_r1(benchmark_runs["contrastive", "ism"])
    base_p = _mean_r1(benchmark_runs["proxy_anchor", "base"])
    ism_p = _mean_r1(benchmark_runs["proxy_anchor", "ism"])
    ok = ism_c >= base_c and ism_p >= base_p
    report(
        5,
        "paired R@1 improvement",
        ok,
        f"contrastive {base_c:.4f} -> {ism_c:.4f}, "
        f"proxy_anchor {base_p:.4f} -> {ism_p:.4f} (5-seed means)",
    )


def test_6_mixed_uncertainty_trend(benchmark_runs):
    details = []
    ok = True
    for loss in ("contrastive", "proxy_anchor"):
        wins = sum(
            rec.final.mean_uncert_mixed > rec.final.mean_uncert_clean
            for rec in benchmark_runs[loss, "ism"]
        )
        details.append(f"{loss} {wins}/5")
        ok = ok and wins >= 4
    report(
        6,
        "mixed-sample uncertainty trend",
        ok,
        "mixed ||u|| above clean in " + ", ".join(details) + " seeds",
    )


def test_7_ablation_orderings(benchmark_runs):
    ism_c = _mean_r1(benchmark_runs["contrastive", "ism"])
    dis_c = _mean_r1(benchmark_runs["contrastive", "dis"])
    euc_test = _mean_r1(benchmark_runs["contrastive", "ism"])  # euclidean test metric
    ism_test = _mean_r1(benchmark_runs["contrastive", "ism_test"])
    ok = ism_c >= dis_c and euc_test >= ism_test
    report(
        7,
        "ablation orderings",
        ok,
        f"training: toward-similar {ism_c:.4f} >= toward-dissimilar {dis_c:.4f}; "
        f"test metric: euclidean {euc_test:.4f} >= introspective {ism_test:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------


def test_8_cli_byte_determinism(tmp_path):
    import json

    cfg = introspective_run_config("contrastive", seed=0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_json_dict(cfg)))
    t0 = time.perf_counter()
    for d in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "idml.cli", "train",
             "--config", str(cfg_path), "--output", str(tmp_path / d)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    elapsed = time.perf_counter() - t0
    rec_a = (tmp_path / "a" / "record.json").read_bytes()
    rec_b = (tmp_path / "b" / "record.json").read_bytes()
    ok = rec_a == rec_b
    report(
        8,
        "CLI determinism",
        ok,
        f"two `python -m idml.cli train` processes, record.json byte-identical "
        f"({len(rec_a)} bytes, {elapsed:.1f}s total)",
    )


# ---------------------------------------------------------------------------
# 9. Correlation diagnostic
# ---------------------------------------------------------------------------


def test_9_correlation_diagnostic(benchmark_runs):
    vals = [abs(rec.final.corr["cosine"]) for rec in benchmark_runs["contrastive", "ism"]]
    mean_abs = float(np.mean(vals))
    ok = mean_abs < 0.2
    report(
        9,
        "semantic/uncertainty correlation",
        ok,
        f"mean |cosine corr| {mean_abs:.4f} over seeds "
        f"[{', '.join(f'{v:.3f}' for v in vals)}], threshold 0.2",
    )
