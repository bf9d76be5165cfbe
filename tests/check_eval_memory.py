"""Evaluate a Cars196-size test split under an address-space cap.

    PYTHONPATH=src python tests/check_eval_memory.py [--cap-mib M] [--metric NAME]

Cars196's test split has 8,131 images of 98 classes; the paper embeds them
in 512 dimensions. This script builds a synthetic split of that shape
(clustered Gaussian semantic rows, small uncertainty rows), then runs
`evaluate` on it in a child process that caps its own address space with
RLIMIT_AS, so that running out of memory raises MemoryError in the child
instead of pressing on the machine. One N x N float table of this split is
8·N² bytes = 504 MiB.

It prints one JSON line: the test metric, the cap in MiB, whether evaluate
completed, the error's type if not, the `tracemalloc` peak of the
`evaluate` call in MiB, and its wall time in seconds (traced, one BLAS
thread). The exit code is 0 when evaluate completed and 1 when it did not.

Under the default cap, 640 MiB, `evaluate` finishes when it builds its
distance tables a row panel at a time (traced peak about 186 MiB, and it
still finished under 448 MiB), while whole N x N tables run out of address
space (they finished under 1,024 MiB). The name keeps pytest from
collecting it: one run takes about 10 s, outside the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

N_ROWS, N_CLASSES, DIM = 8131, 98, 512

_CHILD = """
import json, resource, sys, time, tracemalloc
cap = int(sys.argv[1]) << 20
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
import numpy as np
from idml.core import Rng, multi_hot
from idml.evaluation import evaluate
n, classes, dim = (int(a) for a in sys.argv[3:6])
r = np.random.default_rng(0)
ids = np.arange(n) % classes
S = r.normal(size=(classes, dim))[ids] + 0.7 * r.normal(size=(n, dim))
U = 0.1 * r.normal(size=(n, dim))
Y = multi_hot(ids)[0]
out = {"ok": False, "error": None, "peak_mib": None, "wall_s": None}
tracemalloc.start()
t0 = time.perf_counter()
try:
    evaluate(S, U, Y, Rng(0), test_metric=sys.argv[2])
    out["ok"] = True
except MemoryError as e:
    out["error"] = type(e).__name__
out["wall_s"] = round(time.perf_counter() - t0, 2)
out["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
print(json.dumps(out))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap-mib", type=int, default=640, help="RLIMIT_AS of the child, MiB")
    parser.add_argument("--metric", default="euclidean", help="evaluate's test_metric")
    args = parser.parse_args()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(args.cap_mib), args.metric, str(N_ROWS), str(N_CLASSES), str(DIM)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        # a MemoryError outside evaluate (numpy's import, the input arrays)
        sys.stderr.write(proc.stderr[-2000:])
        out = {"ok": False, "error": f"child exited {proc.returncode}", "peak_mib": None, "wall_s": None}
    else:
        out = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"metric": args.metric, "cap_mib": args.cap_mib, "shape": [N_ROWS, DIM], **out}))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
