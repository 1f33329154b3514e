"""Row-loop LU and triangular solves, kept as independent test oracles.

These are plain Python eliminations: partial pivoting on the largest modulus
(LAPACK pivots on the largest ``|Re| + |Im|``), rank-1 updates, and
substitution one row at a time.  The library itself calls LAPACK; the tests
compare the two.
"""

import numpy as np

from qdoubling.linalg import SINGULARITY_TOL, SingularMatrixError


def loop_lu_factor(a, tol=SINGULARITY_TOL):
    """``(lu, rows, pivot_mags)``; ``rows[k]`` is the original row in position k."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    lu = a.copy()
    rows = np.arange(n)
    threshold = tol * np.abs(a).sum(axis=1).max(initial=0.0)
    pivot_mags = np.empty(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        mag = abs(lu[p, k])
        if mag <= threshold:
            raise SingularMatrixError(k, mag)
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            rows[[k, p]] = rows[[p, k]]
        pivot_mags[k] = mag
        if k < n - 1:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, rows, pivot_mags


def loop_lu_solve(a, b, tol=SINGULARITY_TOL):
    lu, rows, _ = loop_lu_factor(a, tol)
    x = np.asarray(b, dtype=np.complex128)[rows, :].copy()
    return loop_solve_upper(lu, loop_solve_lower(lu, x, unit=True))


def loop_solve_lower(lo, b, unit=False):
    x = np.array(b, dtype=np.complex128)
    for k in range(lo.shape[0]):
        if k:
            x[k] -= lo[k, :k] @ x[:k]
        if not unit:
            x[k] /= lo[k, k]
    return x


def loop_solve_upper(up, b):
    n = up.shape[0]
    x = np.array(b, dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            x[k] -= up[k, k + 1:] @ x[k + 1:]
        x[k] /= up[k, k]
    return x
