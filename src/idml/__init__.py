"""Introspective deep metric learning at desk scale.

An uncertainty-aware similarity metric (a semantic embedding s plus an
uncertainty embedding u per sample), its integration into seven metric
learning losses, mixup with set-valued labels, a small two-headed encoder
with hand-verified analytic gradients, and a retrieval/clustering
evaluation suite, all driven by the ``idml`` command-line harness.
"""

__version__ = "0.1.0"

import os

# Single-threaded BLAS by default: threaded reductions reorder float sums,
# which would break byte-identical reruns. A positive integer IDML_THREADS
# raises the cap (it also sets harness.run_grid's process count, which
# defaults to the CPU count; the CLI rejects any other value); explicitly-set
# *_NUM_THREADS vars win. BLAS reads these variables once, when numpy loads
# it, so this runs before any import below.
_cap = os.environ.get("IDML_THREADS", "").strip()
_cap = str(int(_cap)) if _cap.isdecimal() and int(_cap) > 0 else "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _cap)

from idml.core import (
    Batch,
    MetricParams,
    Rng,
    labels_match,
)
from idml.metric import gradient_weight

__all__ = [
    "Batch",
    "MetricParams",
    "Rng",
    "gradient_weight",
    "labels_match",
]
