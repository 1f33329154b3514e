import numpy as np
import pytest

from qdoubling import (
    CriticalSpec,
    JordanOverflowError,
    gen_bse_like,
    gen_critical,
    gen_random_split,
    gen_solved_sfq,
    jordan_power,
)
from qdoubling.problems import jordan_block

from ground_truth import gamma_block, ground_truth_residual, known_eigenpairs, primal_eig_residual


class TestRandomSplit:
    def test_spectra_in_construction_bands(self):
        inst = gen_random_split(m=7, n=9, alpha=8.0, eta=1.0, seed=0)
        assert (inst.stable_eigs.real < 2 - 8).all()
        assert (inst.stable_eigs.real > -8).all()
        assert (inst.anti_stable_eigs.real > 8).all()
        assert inst.pencil.m == 7 and inst.pencil.n == 9
        np.testing.assert_array_equal(inst.pencil.B, np.eye(16))

    def test_ground_truth_residual(self):
        for seed in range(3):
            inst = gen_random_split(m=5, n=6, alpha=8.0, eta=1.0, seed=seed)
            assert ground_truth_residual(inst) <= 1e-10

    def test_deterministic(self):
        a = gen_random_split(m=4, n=4, alpha=8.0, eta=1e-3, seed=42)
        b = gen_random_split(m=4, n=4, alpha=8.0, eta=1e-3, seed=42)
        np.testing.assert_array_equal(a.pencil.A, b.pencil.A)
        np.testing.assert_array_equal(a.true_basis_stable, b.true_basis_stable)

    def test_eta_degrades_leading_block(self):
        # the classical-form X = Z2 Z1^{-1} blows up like 1/eta
        from qdoubling.linalg import solve_transposed, two_est
        inst = gen_random_split(m=20, n=25, alpha=8.0, eta=1e-6, seed=1)
        z = inst.true_basis_stable
        x = solve_transposed(z[:20, :], z[20:, :])
        assert two_est(x) / two_est(z) >= 1e5

    def test_eigenpairs_satisfy_pencil(self):
        inst = gen_random_split(m=4, n=4, alpha=8.0, eta=1.0, seed=3)
        a = inst.pencil.A
        for lam, z in known_eigenpairs(inst, count=6):
            assert np.linalg.norm(a @ z - lam * z) <= 1e-9 * np.linalg.norm(a)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_random_split(m=2, n=2, alpha=1.5, eta=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_random_split(m=2, n=2, alpha=8.0, eta=0.0, seed=0)

    @pytest.mark.parametrize("name", ["alpha", "eta"])
    def test_rejects_nan_parameters_by_name(self, name):
        params = dict(m=2, n=2, alpha=8.0, eta=1.0, seed=0) | {name: float("nan")}
        with pytest.raises(ValueError, match=f"^{name} "):
            gen_random_split(**params)

    @pytest.mark.parametrize("name", ["alpha", "eta"])
    def test_rejects_infinite_parameters_by_name(self, name):
        params = dict(m=2, n=2, alpha=8.0, eta=1.0, seed=0) | {name: float("inf")}
        with pytest.raises(ValueError, match=f"^{name} "):
            gen_random_split(**params)

    def test_eta_too_large_for_any_draw_is_named(self):
        # the scaled leading block leaves U singular to working precision in every draw
        with pytest.raises(ValueError, match="^eta "):
            gen_random_split(m=2, n=2, alpha=8.0, eta=1e16, seed=0)


class TestBseLike:
    def test_structure_exact(self):
        inst = gen_bse_like(16, 2.0, seed=5)
        h = inst.pencil.A
        a, b = h[:16, :16], h[:16, 16:]
        np.testing.assert_array_equal(a, a.conj().T)
        np.testing.assert_array_equal(b, b.T)
        np.testing.assert_array_equal(h[16:, :16], -b.conj())
        np.testing.assert_array_equal(h[16:, 16:], -a.conj())

    def test_no_ground_truth(self):
        inst = gen_bse_like(8, 2.0, seed=1)
        assert inst.true_basis_stable is None
        assert inst.stable_eigs is None

    def test_zero_coupling_block_diagonal(self):
        inst = gen_bse_like(8, 2.0, seed=1, coupling_scale=0.0)
        h = inst.pencil.A
        np.testing.assert_array_equal(h[:8, 8:], np.zeros((8, 8)))

    def test_perturbation_margin(self):
        # total off-diagonal one-norm stays below the axis gap
        inst = gen_bse_like(32, 2.0, seed=7)
        h = inst.pencil.A
        a, b = h[:32, :32], h[:32, 32:]
        delta = a - np.diag(np.diag(a).real)
        margin = np.abs(delta).sum(axis=0).max() + np.abs(b).sum(axis=0).max()
        assert margin < 2.0

    @pytest.mark.parametrize("name, value", [("n", 0), ("gap_scale", float("nan")),
                                             ("coupling_scale", float("nan")),
                                             ("coupling_scale", float("inf")),
                                             ("gap_scale", float("inf"))],
                             ids=["n-0", "gap-scale-nan", "coupling-scale-nan",
                                  "coupling-scale-inf", "gap-scale-inf"])
    def test_rejects_bad_parameters_by_name(self, name, value):
        params = dict(n=4, gap_scale=2.0, seed=0) | {name: value}
        with pytest.raises(ValueError, match=f"^{name} "):
            gen_bse_like(**params)


class TestJordanPower:
    def test_square_of_two_block(self):
        np.testing.assert_array_equal(jordan_power(2, 1.0, 1), [[1, 2], [0, 1]])

    def test_fourth_power_of_three_block(self):
        np.testing.assert_array_equal(
            jordan_power(3, 1.0, 2), [[1, 4, 6], [0, 1, 4], [0, 0, 1]])

    @pytest.mark.parametrize("omega", [1.0, 1j, np.exp(1j * np.pi / 3)])
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    @pytest.mark.parametrize("i", [0, 1, 3, 5])
    def test_matches_repeated_squaring(self, p, omega, i):
        j = jordan_block(p, omega)
        expected = j.copy()
        for _ in range(i):
            expected = expected @ expected
        got = jordan_power(p, omega, i)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("omega", [0.0, 0j])
    def test_nilpotent_block(self, omega):
        # binom(2^i, j-1) vanishes past j = 2^i + 1, so no negative power of
        # omega = 0 is taken
        for p in (1, 2, 3, 6):
            for i in (0, 1, 2, 3):
                expected = np.linalg.matrix_power(jordan_block(p, omega), 2 ** i)
                np.testing.assert_array_equal(jordan_power(p, omega, i), expected)

    def test_overflow_guard(self):
        with pytest.raises(JordanOverflowError):
            jordan_power(6, 1.0, 1000)

    def test_gamma_block_corner(self):
        np.testing.assert_array_equal(gamma_block(0, 2, 1.0),
                                      [[0, 0], [1, 0]])


class TestCritical:
    def spec(self):
        return CriticalSpec(m_prime=3, n_prime=3, blocks=((2, 1.0 + 0j),),
                            rho_stable=0.3, rho_anti=0.3)

    def test_sizes_and_circle(self):
        spec = self.spec()
        assert spec.n0 == 2 and spec.m == 5 and spec.n == 5
        inst = gen_critical(spec, seed=2)
        assert inst.circle_eigs.shape == (4,)
        assert np.allclose(np.abs(inst.circle_eigs), 1.0)

    def test_smallest_case(self):
        spec = CriticalSpec(m_prime=1, n_prime=1, blocks=((1, 1.0 + 0j),),
                            rho_stable=0.3, rho_anti=0.3)
        inst = gen_critical(spec, seed=1)
        assert inst.pencil.size == 4
        assert ground_truth_residual(inst) <= 1e-10

    def test_ground_truth(self):
        inst = gen_critical(self.spec(), seed=3)
        assert ground_truth_residual(inst) <= 1e-10

    def test_deterministic(self):
        a = gen_critical(self.spec(), seed=9)
        b = gen_critical(self.spec(), seed=9)
        np.testing.assert_array_equal(a.pencil.A, b.pencil.A)

    def test_rejects_off_circle_omega(self):
        with pytest.raises(ValueError):
            CriticalSpec(m_prime=1, n_prime=1, blocks=((1, 1.5 + 0j),),
                         rho_stable=0.3, rho_anti=0.3)

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="at least one circle block is required"):
            CriticalSpec(m_prime=1, n_prime=1, blocks=(), rho_stable=0.3, rho_anti=0.3)

    def test_rejects_nan_omega(self):
        # used to pass here and fail later, in the pencil's finite check
        with pytest.raises(ValueError, match="is not on the unit circle"):
            CriticalSpec(m_prime=1, n_prime=1, blocks=((1, complex("nan")),),
                         rho_stable=0.3, rho_anti=0.3)


class TestSolvedSfq:
    def test_solution_is_exact(self):
        from qdoubling import primal_nme_residual
        inst = gen_solved_sfq(m=5, n=6, rho_m=0.6, rho_n=0.7, seed=11)
        assert primal_nme_residual(inst.pencil, inst.phi) <= 1e-12
        assert primal_eig_residual(inst.pencil, inst.phi, inst.m_mat) <= 1e-13

    @pytest.mark.parametrize("rho_m, rho_n", [(1.0, 1.0), (4.0, 0.5), (0.0, 0.5)])
    def test_rejects_radii_off_their_range(self, rho_m, rho_n):
        with pytest.raises(ValueError, match=r"need rho_m \* rho_n < 1"):
            gen_solved_sfq(m=2, n=3, rho_m=rho_m, rho_n=rho_n, seed=0)

    def test_radii_prescribed(self):
        inst = gen_solved_sfq(m=4, n=4, rho_m=0.55, rho_n=0.65, seed=2)
        assert np.abs(np.diag(inst.m_mat)).max() == pytest.approx(0.55)
        assert np.abs(np.diag(inst.n_mat)).max() == pytest.approx(0.65)
