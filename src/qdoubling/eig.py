"""Eigenspace computation for half-plane-split pencils.

A pencil with m eigenvalues in the open left half-plane and n in the right
is mapped to a unit-disk split by the transform ``A' = A - gamma B``,
``B' = A + gamma B`` with ``gamma < 0`` (eigenvalues map to
``(lam - gamma) / (lam + gamma)``), solved by the Q-doubling driver, and the
two invariant-subspace bases are read off from the converged pencil.
:func:`cayley` and :func:`solve_halfplane` are thin wrappers that hand the
driver the pencil's :class:`~qdoubling.sfq.CayleyPair`, which is formed
densely only while the pencil is reduced.

Also provides the two normalized residual metrics of a basis for a square H
(``B = I``): the raw one scaled by the magnitude of the computed X block
(finite and at least 0), and the conditioning-robust one evaluated on an
orthonormalized basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .driver import QdaConfig, QdaResult, run_qda
from .linalg import RankDeficientError, SingularMatrixError, lu_solve, thin_qr, two_est
from .sfq import (
    CayleyPair,
    GeneralPencil,
    _standard_operands,
    anti_basis,
    orthonormal_residual,
    sfq_basis,
)


@dataclass(frozen=True)
class CayleyParams:
    gamma: float = -1.0

    def __post_init__(self):
        CayleyPair.check_gamma(self.gamma)


def cayley(g: GeneralPencil, params: CayleyParams) -> GeneralPencil:
    """Map a half-plane split to a disk split: ``(A - gB, A + gB)``."""
    return CayleyPair(g, params.gamma).pencil()


def nres1(h, z: np.ndarray, x_norm: Optional[float] = None) -> float:
    """Raw normalized eigen-residual of a basis ``z`` for the square ``H``.

    ``||H Z - Z M||_F / (max(1, ||X||_F) (||H||_2 + ||M||_2))`` with the
    block Rayleigh quotient ``M = (Z^H Z)^{-1} Z^H H Z`` and the 2-norms
    replaced by their sqrt(one*inf) estimates.  ``x_norm`` is the Frobenius
    norm of the trailing X block when the basis came from the solver;
    otherwise ``||Z||_F`` is used, and a given one must be finite and at
    least 0.  The ``max(1, .)`` floor keeps the metric finite for exactly
    decoupled problems where X = 0.  An ``H`` or ``z`` with a non-finite
    entry is refused.
    """
    if x_norm is not None and not 0.0 <= x_norm < np.inf:
        raise ValueError(f"x_norm must be finite and at least 0, got {x_norm}")
    hm, z = _standard_operands(h, z)
    hz = hm @ z
    # (Z^H Z)^{-1} Z^H = R^{-1} U^H via thin QR: solving with R instead of the
    # Gram matrix halves the condition number's exponent, which matters
    # precisely when the basis is poor and the two metrics disagree.
    u, r = thin_qr(z)
    try:
        mray = lu_solve(r, u.conj().T @ hz)
    except SingularMatrixError as exc:
        raise RankDeficientError(f"basis is numerically rank deficient: {exc}") from exc
    num = float(np.linalg.norm(hz - z @ mray))
    scale = x_norm if x_norm is not None else float(np.linalg.norm(z))
    return num / (max(1.0, scale) * (two_est(hm) + two_est(mray)))


def nres2(h, z: np.ndarray) -> float:
    """Conditioning-robust normalized residual: evaluated on orthonormal Z."""
    return orthonormal_residual(h, z)


@dataclass(frozen=True)
class EigenspaceBases:
    stable_basis: np.ndarray
    anti_stable_basis: np.ndarray
    source: QdaResult


def bases_from_result(result: QdaResult) -> EigenspaceBases:
    if result.final is None:
        raise ValueError("the solver produced no pencil to extract bases from")
    return EigenspaceBases(stable_basis=sfq_basis(result.final),
                           anti_stable_basis=anti_basis(result.final),
                           source=result)


def solve_halfplane(g: GeneralPencil, params: CayleyParams,
                    cfg: QdaConfig = QdaConfig()) -> EigenspaceBases:
    """Transform, run the doubling solver, extract.

    The driver forms the transform for the reduction only, so after the
    reduction the solve holds what it returns plus one basis-sized working
    set.  Driver failures surface in ``source.status``.
    """
    return bases_from_result(run_qda(CayleyPair(g, params.gamma), cfg))
