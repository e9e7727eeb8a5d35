"""Print one sha256 per solve over a fixed sweep of ``minimize`` cases.

    PYTHONPATH=src python scripts/solve_digest.py > digest.txt

The sweep is k in {1, -1, 2, -2, 3, 4, 5}, b2 in {0, 0.3, 1, 1.5}, L in
{1e-1, 1e-2, 1e-3, 1e-4}, n in {16, 34, 256, 1024, 2048} and both init
presets (1,120 cases, ``RadialGrid.for_defect(1, n, k)``, a2 = c2 = 1).
Each line names its case and hashes the profile's bytes and the ``repr`` of
its report (energy, grad_norm, residuals, checks, stop and every count).
A case that raises ``NonConvergence`` hashes the attached profile and
report, tagged as such; one that raises another package error hashes its
type and message.  Two trees whose digests match end every case with the
same profile bits, report values and counts.

BLAS runs on one thread: with two, some n = 2048 hashes change, as the BLAS
sums of those solves depend on the thread count.
"""

import hashlib
import itertools
import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads its BLAS

from qdefect import ModelParams, NonConvergence, QDefectError, RadialGrid, minimize  # noqa: E402

KS = (1, -1, 2, -2, 3, 4, 5)
B2S = (0.0, 0.3, 1.0, 1.5)
LS = (1e-1, 1e-2, 1e-3, 1e-4)
NS = (16, 34, 256, 1024, 2048)
INITS = ("explicit", "ramp")


def case_digest(k, b2, L, n, init) -> str:
    p = ModelParams(a2=1.0, b2=b2, c2=1.0, L=L, R=1.0, k=k)
    h = hashlib.sha256()
    try:
        profile, report = minimize(p, RadialGrid.for_defect(1.0, n, k), init=init)
    except NonConvergence as exc:
        h.update(b"NonConvergence")
        profile, report = exc.profile, exc.report
    except QDefectError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    h.update(profile.u.tobytes())
    h.update(profile.v.tobytes())
    h.update(repr(report).encode())
    return h.hexdigest()


def main():
    for k, b2, L, n, init in itertools.product(KS, B2S, LS, NS, INITS):
        print(f"k={k} b2={b2} L={L} n={n} init={init} {case_digest(k, b2, L, n, init)}")


if __name__ == "__main__":
    main()
