"""Ground truth the tests read off generated instances.

The generators in ``qdoubling.problems`` record their triangular factor,
eigenvector basis and coefficient block; these helpers turn them into
eigenpairs and residuals, and give the Cayley map, its contraction factor
and the Jordan corner block in closed form.  :func:`primal_eig_residual`
checks a Q-standard pencil against a known ``(X, M)`` through the residual
safeguard's streamed products.  The library itself uses none of them.
"""

import math
from typing import Sequence

import numpy as np

from qdoubling.linalg import as_complex_matrix
from qdoubling.problems import ProblemInstance, jordan_power
from qdoubling.sfq import SfqPencil, _operand_order, _scatter_basis, _sfq_products, _sq_norm


def cayley_map(lam: complex, gamma: float) -> complex:
    return (lam - gamma) / (lam + gamma)


def rho_gamma(stable_eigs: Sequence[complex], anti_stable_eigs: Sequence[complex],
              gamma: float) -> float:
    """Worst-case contraction factor of the transformed doubling iteration.

    ``max(|gamma - lam| / |gamma + lam|)`` over the stable eigenvalues and
    ``max(|gamma + lam| / |gamma - lam|)`` over the anti-stable ones.
    """
    worst = 0.0
    for lam in stable_eigs:
        worst = max(worst, abs(gamma - lam) / abs(gamma + lam))
    for lam in anti_stable_eigs:
        worst = max(worst, abs(gamma + lam) / abs(gamma - lam))
    return worst


def primal_eig_residual(p: SfqPencil, x: np.ndarray, mpow: np.ndarray) -> float:
    """Residual of ``A_i Q1^T [I; X] = B_i Q1^T [I; X] M`` for a supplied M.

    Normalized by ``max(1, ||[I; X]||_F)``.  The products stream through the
    safeguard's :func:`_sfq_products`, so beside the basis (scattered once
    into :func:`_operand_order`) only one block of rows is held.
    """
    x, mpow = as_complex_matrix(x), as_complex_matrix(mpow)
    order, split = _operand_order(p)
    v = _scatter_basis(p.Q1.compose(order.inverse()), x, order="F")
    sq = sum(_sq_norm(au - bu @ mpow) for bu, au in _sfq_products(p, v, order, split))
    return math.sqrt(sq) / max(1.0, math.sqrt(p.m + _sq_norm(x)))


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
