"""Ground truth the tests read off generated instances.

The generators in ``qdoubling.problems`` record their triangular factor,
eigenvector basis and coefficient block; these helpers turn them into
eigenpairs and residuals, and give the Cayley map and the Jordan corner
block in closed form.  The library itself uses none of them.
"""

import numpy as np

from qdoubling.problems import ProblemInstance, jordan_power


def cayley_map(lam: complex, gamma: float) -> complex:
    return (lam - gamma) / (lam + gamma)


def gamma_block(i: int, k: int, omega: complex) -> np.ndarray:
    """The top-right k-by-k block of ``J_{2k}(omega) ** (2**i)``."""
    return jordan_power(2 * k, omega, i)[:k, k:]


def ground_truth_residual(inst: ProblemInstance) -> float:
    """``||A Z - B Z M||_F / (||A||_F ||Z||_F)`` for instances with truth."""
    if inst.true_basis_stable is None or inst.true_m is None:
        raise ValueError("instance carries no ground-truth basis")
    a, b = inst.pencil.A, inst.pencil.B
    z = inst.true_basis_stable
    res = a @ z - b @ z @ inst.true_m
    return float(np.linalg.norm(res) / (np.linalg.norm(a) * np.linalg.norm(z)))


def known_eigenpairs(inst: ProblemInstance, count: int):
    """Eigenpairs ``(lam, z)`` recovered from the stored triangular factor.

    Only available for the random split family.  Pairs are sorted by
    decreasing separation of their eigenvalue from the rest of the spectrum,
    so taking the first ``count`` gives the best-conditioned ones.
    """
    if inst.upper_t is None or inst.basis_full is None:
        raise ValueError("instance does not carry a triangular factor")
    t = inst.upper_t
    u = inst.basis_full
    size = t.shape[0]
    lams = np.diag(t)
    pairs = []
    for k in range(size):
        lam = lams[k]
        others = np.abs(np.delete(lams, k) - lam)
        gap = float(others.min()) if others.size else np.inf
        v = np.zeros(size, dtype=np.complex128)
        v[k] = 1.0
        ok = True
        for j in range(k - 1, -1, -1):
            denom = t[j, j] - lam
            if abs(denom) < 1e-8:
                ok = False
                break
            v[j] = -(t[j, j + 1:k + 1] @ v[j + 1:k + 1]) / denom
        if not ok:
            continue
        z = u @ v
        z = z / np.linalg.norm(z)
        pairs.append((gap, lam, z))
    pairs.sort(key=lambda item: -item[0])
    return [(lam, z) for _, lam, z in pairs[:count]]
