import re
import weakref

import numpy as np
import pytest

import qdoubling.driver

from qdoubling import (
    CayleyPair,
    CayleyParams,
    GeneralPencil,
    QdaConfig,
    QdaResult,
    RankDeficientError,
    RunStatus,
    bases_from_result,
    cayley,
    gen_bse_like,
    gen_random_split,
    nres1,
    nres2,
    run_qda,
    solve_halfplane,
    thin_qr,
)

from conftest import complex_normal
from ground_truth import cayley_map, known_eigenpairs, rho_gamma


class TestCayley:
    def test_scalar_map(self):
        assert cayley_map(-3.0, -1.0) == pytest.approx(0.5)
        assert cayley_map(-1.0, -1.0) == 0.0
        assert cayley_map(0.0, -1.0) == pytest.approx(-1.0)

    def test_matrices(self, rng):
        a = complex_normal(rng, 4, 4)
        b = complex_normal(rng, 4, 4)
        g = cayley(GeneralPencil(A=a, B=b, m=2, n=2), CayleyParams(-2.0))
        np.testing.assert_array_equal(g.A, a + 2.0 * b)
        np.testing.assert_array_equal(g.B, a - 2.0 * b)

    def test_rejects_nonnegative_gamma(self):
        # the parameters and the pair apply one rule, so a bad gamma fails on construction
        g = GeneralPencil(A=np.eye(2), B=np.eye(2), m=1, n=1)
        for gamma in (0.0, 1.0, float("nan"), -float("inf")):
            for make in (CayleyParams, lambda gamma: CayleyPair(g, gamma)):
                with pytest.raises(ValueError, match="gamma must be negative and finite"):
                    make(gamma)

    def test_spectral_correctness_on_generator(self):
        gamma = -1.0
        inst = gen_random_split(m=4, n=4, alpha=8.0, eta=1.0, seed=17)
        g = cayley(inst.pencil, CayleyParams(gamma))
        for lam, z in known_eigenpairs(inst, count=5):
            mu = cayley_map(lam, gamma)
            num = np.linalg.norm(g.A @ z - mu * (g.B @ z))
            den = (np.linalg.norm(g.A) + abs(mu) * np.linalg.norm(g.B))
            assert num <= 1e-10 * den


class TestRhoGamma:
    def test_simple_substitution(self):
        assert rho_gamma([-1.0], [2.0], -1.0) == pytest.approx(1.0 / 3.0)

    def test_symmetric_spectrum(self):
        a = 3.0
        expected = abs(-1.0 + a) / abs(-1.0 - a)
        assert rho_gamma([-a], [a], -1.0) == pytest.approx(expected)

    def test_matches_observed_contraction(self):
        # the E-iterate contraction eventually tracks the transform's rate
        gamma = -2.0
        inst = gen_random_split(m=6, n=6, alpha=8.0, eta=1.0, seed=23)
        rho_m = rho_gamma(inst.stable_eigs, [], gamma)
        g = cayley(inst.pencil, CayleyParams(gamma))
        from qdoubling import run_qda
        res = run_qda(g, QdaConfig(rtol=1e-12))
        rec = res.history[-1]
        assert rec.norm_e ** (1.0 / 2 ** rec.index) <= rho_m + 0.05


class TestNres:
    def test_exact_basis_tiny(self):
        inst = gen_random_split(m=5, n=6, alpha=8.0, eta=1.0, seed=3)
        z = inst.true_basis_stable
        assert nres1(inst.pencil.A, z) <= 1e-13
        assert nres2(inst.pencil.A, z) <= 1e-14

    def test_random_basis_order_one(self, rng):
        inst = gen_random_split(m=5, n=6, alpha=8.0, eta=1.0, seed=3)
        z = complex_normal(rng, 11, 5)
        assert nres1(inst.pencil.A, z) > 1e-4
        assert nres2(inst.pencil.A, z) > 1e-4

    def test_nres1_scale_invariant(self):
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=8)
        z = inst.true_basis_stable
        a = inst.pencil.A
        assert nres1(a, 10.0 * z) == pytest.approx(nres1(a, z), rel=1e-8)

    def test_nres2_basis_invariant(self, rng):
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=8)
        z = inst.true_basis_stable
        c = complex_normal(rng, 4, 4) + 3 * np.eye(4)
        a = inst.pencil.A
        assert nres2(a, z @ c) == pytest.approx(nres2(a, z), rel=1e-6, abs=1e-12)

    def test_eigenvector_columns_of_diagonal(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        z = np.eye(4)[:, :2].astype(complex)
        assert nres2(h, z) == 0.0

    def test_metrics_coincide_on_orthonormal_basis(self, rng):
        # with (near-)orthonormal Z the two normalizations agree; the exact
        # basis drives both under 1e-12, and a perturbed copy (residual well
        # above the noise floor) shows the values themselves coincide
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=8)
        u, _ = thin_qr(inst.true_basis_stable)
        a = inst.pencil.A
        assert nres1(a, u) <= 1e-12 and nres2(a, u) <= 1e-12
        z = u + 1e-6 * complex_normal(rng, 9, 4)
        assert nres1(a, z) == pytest.approx(nres2(a, z), rel=1e-4)

    def test_rank_deficient_raises(self, rng):
        col = complex_normal(rng, 6, 1)
        with pytest.raises(RankDeficientError):
            nres2(np.eye(6), np.hstack([col, col]))

    def test_singular_r_is_rank_deficient(self):
        # R's diagonal passes thin_qr's rank test, but R's last pivot is below
        # the LU's singularity threshold relative to ||R||_inf = 1e14 + 1
        z = np.array([[1.0, 1e14], [0.0, 1.0], [0.0, 0.0]])
        thin_qr(z)
        with pytest.raises(RankDeficientError, match="basis is numerically rank deficient"):
            nres1(np.eye(3), z)

    @pytest.mark.parametrize("x_norm", [np.inf, np.nan, -1.0])
    def test_x_norm_must_be_finite_and_nonnegative(self, x_norm):
        # inf used to give a residual of 0.0, nan and -1 a scale of 1
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        z = np.eye(3, 1) + 0.1
        with pytest.raises(ValueError, match="x_norm must be finite and at least 0"):
            nres1(a, z, x_norm=x_norm)

    @pytest.mark.parametrize("metric", [nres1, nres2])
    def test_empty_basis_is_refused_before_lapack(self, capfd, metric):
        # it used to reach ZGETRF, whose complaint went to stdout, and then
        # fail in f2py's argument check
        with pytest.raises(ValueError, match="1 <= cols <= rows"):
            metric(np.eye(3), np.zeros((3, 0)))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("h_shape, z_shape", [((3, 4), (3, 1)), ((3, 4), (4, 1)),
                                                  ((4, 3), (4, 1)), ((4, 4), (3, 1))],
                             ids=["3x4", "3x4-basis-of-4", "4x3", "row-mismatch"])
    @pytest.mark.parametrize("metric", [nres1, nres2])
    def test_needs_a_square_h_and_a_basis_of_its_rows(self, rng, metric, h_shape, z_shape):
        # these used to fail in numpy's matmul or in BLAS (scipy's
        # _fblas.error, not a ValueError), naming neither shape
        h, z = complex_normal(rng, *h_shape), complex_normal(rng, *z_shape)
        shapes = f"got H of shape {h_shape} and a basis of shape {z_shape}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            metric(h, z)


class TestSolveHalfplane:
    def test_no_final_pencil_has_no_bases(self):
        result = QdaResult(history=(), status=RunStatus.BREAKDOWN, message="no start")
        with pytest.raises(ValueError, match="no pencil to extract bases from"):
            bases_from_result(result)

    def test_two_by_two_diagonal(self):
        g = GeneralPencil(A=np.diag([-1.0, 2.0]), B=np.eye(2), m=1, n=1)
        bases = solve_halfplane(g, CayleyParams(-1.0), QdaConfig())
        assert bases.source.status is RunStatus.CONVERGED
        stable = bases.stable_basis / np.linalg.norm(bases.stable_basis)
        anti = bases.anti_stable_basis / np.linalg.norm(bases.anti_stable_basis)
        assert abs(abs(stable[0, 0]) - 1.0) <= 1e-12 and abs(stable[1, 0]) <= 1e-12
        assert abs(abs(anti[1, 0]) - 1.0) <= 1e-12 and abs(anti[0, 0]) <= 1e-12

    def test_passthrough_when_already_disk_split(self):
        g = GeneralPencil(A=np.diag([0.3, 4.0]), B=np.eye(2), m=1, n=1)
        bases = bases_from_result(run_qda(g, QdaConfig()))
        assert bases.source.status is RunStatus.CONVERGED
        assert abs(bases.stable_basis[1, 0]) <= 1e-12

    def test_hamiltonian_structured_instance(self):
        inst = gen_bse_like(24, 2.0, seed=2)
        bases = solve_halfplane(inst.pencil, CayleyParams(-1.0), QdaConfig())
        assert bases.source.status is RunStatus.CONVERGED
        assert nres2(inst.pencil.A, bases.stable_basis) <= 1e-12

    def test_bases_shapes_and_sources(self):
        inst = gen_random_split(m=3, n=5, alpha=8.0, eta=1.0, seed=5)
        bases = solve_halfplane(inst.pencil, CayleyParams(-1.0), QdaConfig())
        assert bases.stable_basis.shape == (8, 3)
        assert bases.anti_stable_basis.shape == (8, 5)
        # exact entry moves: rows of [I; X] and [Y; I] appear verbatim
        u1, _ = thin_qr(bases.stable_basis)
        u2, _ = thin_qr(inst.true_basis_stable)
        assert np.linalg.norm(u2 - u1 @ (u1.conj().T @ u2)) <= 1e-8

    def test_cayley_pair_is_released_before_the_first_step(self, monkeypatch):
        refs, alive = [], []
        form = CayleyPair.pencil
        first_step = qdoubling.driver.step

        def tracked_pencil(pair):
            disk = form(pair)
            refs.extend(weakref.ref(obj) for obj in (disk, disk.A, disk.B))
            return disk

        def watched_step(p, kernel):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return first_step(p, kernel)

        monkeypatch.setattr(CayleyPair, "pencil", tracked_pencil)
        monkeypatch.setattr(qdoubling.driver, "step", watched_step)
        inst = gen_random_split(m=6, n=7, alpha=8.0, eta=1e-2, seed=3)
        bases = solve_halfplane(inst.pencil, CayleyParams(-1.0), QdaConfig())
        assert bases.source.status is RunStatus.CONVERGED
        assert len(refs) == 3 and alive == [[False, False, False]]

    def test_driver_transform_gives_the_same_iterates(self):
        # only the safeguard differs: it forms the transform's rows itself
        inst = gen_random_split(m=9, n=12, alpha=8.0, eta=1e-3, seed=6)
        params = CayleyParams(-1.5)
        ref = run_qda(cayley(inst.pencil, params), QdaConfig())
        got = run_qda(CayleyPair(inst.pencil, params.gamma), QdaConfig())
        assert got.status is ref.status is RunStatus.CONVERGED
        assert got.iterations == ref.iterations
        assert got.final.X.tobytes() == ref.final.X.tobytes()
        assert got.final.Y.tobytes() == ref.final.Y.tobytes()
        assert got.final.Q1 == ref.final.Q1 and got.final.Q2 == ref.final.Q2
