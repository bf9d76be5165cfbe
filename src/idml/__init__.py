"""Introspective deep metric learning at desk scale.

An uncertainty-aware similarity metric (a semantic embedding s plus an
uncertainty embedding u per sample), its integration into seven metric
learning losses, mixup with set-valued labels, a small two-headed encoder
with hand-verified analytic gradients, and a retrieval/clustering
evaluation suite, all driven by the ``idml`` command-line harness.
"""

__version__ = "0.1.0"

import os

# One BLAS thread per calling thread: threaded reductions reorder float
# sums, which would break byte-identical reruns. IDML_THREADS does not
# change this (it is the thread budget, `core.worker_count`); an explicitly
# set *_NUM_THREADS variable wins, and may change bits. BLAS reads these
# variables once, when numpy loads it, so the cap holds only when idml is
# imported before numpy, and this runs before any import below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from idml.core import Batch, MetricParams, Rng
from idml.metric import gradient_weight

__all__ = [
    "Batch",
    "MetricParams",
    "Rng",
    "gradient_weight",
]
