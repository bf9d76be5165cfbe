"""The benchmark's workloads: which RunConfigs a child trains, built from a seed.

Each workload stresses a different layer of ``idml`` (see README.md for the
measured split). The workload seed is written into every generated config
(both the run seed and the data seed); the program sees only the configs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # RLIMIT_AS the child sets on itself: about twice the address space the
    # workload needs today, so a memory regression raises a countable
    # MemoryError inside the child instead of exhausting the shared machine.
    mem_limit_mib: int
    # The ruler's mixes (see ruler.py): part -> calls per step tick, and per
    # long tick at start-up and around the evaluation. Each is weighted like
    # the work it sits between.
    step_ruler: dict
    long_ruler: dict

    @property
    def ruler(self) -> dict:
        return {"step": self.step_ruler, "long": self.long_ruler}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mining",
            "triplet_sh and margin_dw at desk shape: Python label matching in sampling and core "
            "dominates, metric tables and N=250 evaluation are small",
            1024,
            {"python": 4, "blas": 1},
            {"python": 4, "stream": 1, "fault": 1},
        ),
        Workload(
            "wide",
            "paper-width model on five pair and proxy losses: metric NxN and NxK tables, losses "
            "and model BLAS do the work, the sampling miners are never called",
            2048,
            {"python": 1, "blas": 3},
            {"blas": 1, "fault": 1},
        ),
        Workload(
            "eval",
            "desk contrastive model briefly trained, then evaluated on a 1000-row test split: "
            "evaluation and its metric tables dominate time and peak memory",
            3072,
            {"python": 1},
            {"python": 1, "stream": 1, "fault": 3},
        ),
    )
}


def _ambiguous(n_classes: int, per_class: int, input_dim: int, seed: int):
    from idml.data import SynthConfig

    return SynthConfig(
        n_classes=n_classes,
        per_class=per_class,
        input_dim=input_dim,
        ambiguous_frac=0.3,
        mislabel_frac=0.05,
        seed=seed,
    )


def build_configs(workload: str, seed: int) -> list:
    """The workload's RunConfigs for `seed`, in the order the child runs them.

    Epoch counts are set so that each config's training loop is long enough
    to time steadily; the cheap proxy losses get more epochs than the pair
    losses.
    """
    from idml.harness import introspective_run_config

    if workload == "mining":
        # Benchmark data: 10 classes x 50, 30% midpoints, 5% mislabels;
        # batch 32 + 16 mixed, hidden 64x64, 32-d heads.
        return [
            introspective_run_config("triplet_sh", seed=seed, epochs=2),
            introspective_run_config("margin_dw", seed=seed, epochs=3),
        ]
    if workload == "wide":
        # Paper width on 240 train / 240 test rows; batch 120 + 60 mixed.
        wide = dict(
            data=_ambiguous(20, 24, 64, seed),
            hidden=(512, 512),
            semantic_dim=512,
            uncertainty_dim=512,
            batch_size=120,
            lr=1e-5,
        )
        epochs = {
            "contrastive": 2,
            "multi_similarity": 2,
            "softmax_proxy": 5,
            "proxy_nca": 4,
            "proxy_anchor": 5,
        }
        return [
            introspective_run_config(loss, seed=seed, epochs=n, **wide)
            for loss, n in epochs.items()
        ]
    if workload == "eval":
        # 40 classes x 50 gives a 1000-row class-disjoint test split.
        return [
            introspective_run_config(
                "contrastive", seed=seed, data=_ambiguous(40, 50, 16, seed), epochs=3
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
