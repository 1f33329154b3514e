import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdoubling import (
    CayleyPair,
    CayleyParams,
    GeneralPencil,
    Permutation,
    SfqPencil,
    anti_basis,
    cayley,
    dual,
    dual_nme_residual,
    gen_random_split,
    gen_solved_sfq,
    primal_nme_residual,
    q_blocks_of,
    sfq_basis,
    swap_perm,
    two_est,
)
from qdoubling.linalg import ROW_BLOCK, row_blocks
from qdoubling.sfq import orthonormal_residual

from conftest import complex_normal, random_sfq
from doubling_reference import assemble, perm_matrix
from ground_truth import known_eigenpairs, primal_eig_residual


class TestAssemble:
    def test_scalar_block_layout(self):
        p = SfqPencil(m=1, n=1, E=[[2]], F=[[4]], X=[[1]], Y=[[3]],
                      Q1=Permutation.identity(2), Q2=Permutation.identity(2))
        a, b = assemble(p)
        np.testing.assert_array_equal(a, [[2, 0], [-1, 1]])
        np.testing.assert_array_equal(b, [[1, -3], [0, 4]])

    def test_trivial_identity(self):
        p = SfqPencil(m=2, n=2, E=np.eye(2), F=np.eye(2),
                      X=np.zeros((2, 2)), Y=np.zeros((2, 2)),
                      Q1=Permutation.identity(4), Q2=Permutation.identity(4))
        a, b = assemble(p)
        np.testing.assert_array_equal(a, np.eye(4))
        np.testing.assert_array_equal(b, np.eye(4))

    def test_structured_blocks_exact(self, rng):
        p = random_sfq(rng, 2, 3)
        a, _ = assemble(p)
        sa = a[:, p.Q1.image]
        np.testing.assert_array_equal(sa[:2, 2:], np.zeros((2, 3)))
        np.testing.assert_array_equal(sa[2:, 2:], np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2**31))
    def test_model_identities_hold_for_any_shape(self, m, n, seed):
        rng = np.random.default_rng(seed)
        p = random_sfq(rng, m, n)
        dd = dual(dual(p))
        assert dd.Q1 == p.Q1 and dd.Q2 == p.Q2
        np.testing.assert_array_equal(dd.X, p.X)


def _product_perms(rng, kind):
    if kind == "random":
        return Permutation(rng.permutation(7)), Permutation(rng.permutation(7)), 3, 4
    if kind == "equal":
        q = Permutation(rng.permutation(5))
        return q, q, 2, 3
    return Permutation.identity(6), swap_perm(3, 3), 3, 3


@pytest.mark.parametrize("kind", ["random", "equal", "block_swap"])
def test_q_blocks_of_indexes_the_dense_product(rng, kind):
    # P = Q1 Q2^T has its single 1 of row i in column pi[i]; equal
    # permutations give the identity, the block swap [[0, I], [I, 0]]
    for _ in range(10):
        q1, q2, m, n = _product_perms(rng, kind)
        p = replace(random_sfq(rng, m, n), Q1=q1, Q2=q2)
        dense = np.zeros((m + n, m + n), dtype=complex)
        dense[np.arange(m + n), q_blocks_of(p)] = 1.0
        np.testing.assert_array_equal(dense, perm_matrix(q1) @ perm_matrix(q2).T)
        if kind == "equal":
            np.testing.assert_array_equal(dense, np.eye(m + n))
        if kind == "block_swap":
            np.testing.assert_array_equal(dense, np.roll(np.eye(6), 3, axis=1))


class TestBases:
    """The bases scatter ``[I; X]`` and ``[Y; I]`` straight into their rows."""

    def test_match_the_permuted_stacks_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            p = random_sfq(rng, m, n)
            x, y = complex_normal(rng, n, m), complex_normal(rng, m, n)
            for got, q, stack in (
                    (sfq_basis(p), p.Q1, [np.eye(m), p.X]),
                    (sfq_basis(p, x), p.Q1, [np.eye(m), x]),
                    (anti_basis(p), p.Q2, [p.Y, np.eye(n)]),
                    (anti_basis(replace(p, Y=y)), p.Q2, [y, np.eye(n)])):
                want = np.vstack(stack).astype(complex)[q.inverse().image]
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (3, 4)], ids=["one-row", "transposed"])
    def test_a_given_x_must_match_the_x_block(self, shape):
        # a 1-by-3 x was broadcast to every row, a 3-by-4 one gave a 7-by-4 basis
        p = gen_solved_sfq(3, 4, 0.5, 0.5, 0).pencil
        with pytest.raises(ValueError, match=re.escape(f"x has shape {shape}, expected (4, 3)")):
            sfq_basis(p, np.ones(shape, dtype=complex))


class TestDual:
    def test_identity_qs_conjugate_to_identity(self, rng):
        p = random_sfq(rng, 2, 3, random_q=False)
        d = dual(p)
        assert d.Q1 == Permutation.identity(5)
        assert d.Q2 == Permutation.identity(5)
        np.testing.assert_array_equal(d.E, p.F)
        np.testing.assert_array_equal(d.X, p.Y)

    def test_involution_exact(self, rng):
        p = random_sfq(rng, 3, 5)
        dd = dual(dual(p))
        for blk in "EFXY":
            np.testing.assert_array_equal(getattr(p, blk), getattr(dd, blk))
        assert dd.Q1 == p.Q1 and dd.Q2 == p.Q2
        assert (dd.m, dd.n) == (p.m, p.n)

    def test_swap_intertwines_assembled_pencils(self, rng):
        p = random_sfq(rng, 3, 4)
        a0, b0 = assemble(p)
        ad, bd = assemble(dual(p))
        pi = perm_matrix(swap_perm(p.m, p.n))
        np.testing.assert_array_equal(pi @ ad, b0 @ pi)
        np.testing.assert_array_equal(pi @ bd, a0 @ pi)

    def test_reciprocal_eigenpairs(self):
        # eigenpair (lam, z) of (A0, B0) maps to (1/lam, Pi^T z) of the dual;
        # the pairs come constructively from the split-spectrum generator
        from qdoubling import closed_form_init, Permutation as Perm

        inst = gen_random_split(m=3, n=3, alpha=8.0, eta=1.0, seed=9)
        p = closed_form_init(inst.pencil, Perm.identity(6), Perm.identity(6))
        a0, b0 = assemble(p)
        ad, bd = assemble(dual(p))
        pi = perm_matrix(swap_perm(p.m, p.n))
        for lam, z in known_eigenpairs(inst, count=4):
            zd = (pi.T @ z).reshape(-1, 1)
            res = np.linalg.norm(ad @ zd - (1.0 / lam) * (bd @ zd))
            assert res <= 1e-10 * (np.linalg.norm(ad) + abs(1 / lam) * np.linalg.norm(bd))


class TestResiduals:
    def test_decoupled_zero_exact(self):
        e = np.diag([0.5, 0.25]).astype(complex)
        p = SfqPencil(m=2, n=2, E=e, F=np.eye(2) * 0.5, X=np.zeros((2, 2)),
                      Y=np.zeros((2, 2)), Q1=Permutation.identity(4),
                      Q2=Permutation.identity(4))
        assert primal_eig_residual(p, np.zeros((2, 2)), e) == 0.0

    def test_generator_ground_truth(self):
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=12)
        # A Z = B Z M holds for the raw pencil; express it in SFQ coordinates
        # of the trivially-reduced pencil (A, B) themselves via Q1 = I after
        # a closed-form reduction with identity permutations.
        from qdoubling import closed_form_init, Permutation as Perm
        g = inst.pencil
        p0 = closed_form_init(g, Perm.identity(9), Perm.identity(9))
        z = inst.true_basis_stable
        z1, z2 = z[:4], z[4:]
        phi = np.linalg.solve(z1.T, z2.T).T
        mmat = z1 @ inst.true_m @ np.linalg.inv(z1)
        assert primal_eig_residual(p0, phi, mmat) <= 1e-10

    def test_perturbation_moves_residual(self, rng):
        inst = gen_random_split(m=3, n=4, alpha=8.0, eta=1.0, seed=5)
        from qdoubling import closed_form_init, Permutation as Perm
        p0 = closed_form_init(inst.pencil, Perm.identity(7), Perm.identity(7))
        z = inst.true_basis_stable
        phi = np.linalg.solve(z[:3].T, z[3:].T).T
        mmat = z[:3] @ inst.true_m @ np.linalg.inv(z[:3])
        base = primal_eig_residual(p0, phi, mmat)
        bumped = primal_eig_residual(p0, phi + 1e-3, mmat)
        assert base < 1e-10 < bumped

    @pytest.mark.parametrize("m, n", [(25, 71), (71, 25), (48, 53)])
    def test_streamed_matches_dense_products(self, m, n):
        # A_i and B_i assembled densely; with ROW_BLOCK = 24 both sides span
        # several row blocks.  A product of inner length k is within k eps of
        # |A| |z| per entry, so each residual is within (N + m + 2) eps
        # (||A|| + ||B|| ||M||) ||z|| of the exact one (Frobenius norms), and
        # the two normalizers agree to a few eps
        rng = np.random.default_rng(100 * m + n)
        eps = np.finfo(float).eps
        for _ in range(3):
            p = random_sfq(rng, m, n)
            x, mpow = complex_normal(rng, n, m, 0.4), complex_normal(rng, m, m, 0.4)
            a, b = assemble(p)
            z = perm_matrix(p.Q1).T @ np.vstack([np.eye(m), x])
            norm_z = np.linalg.norm(z)
            dense = np.linalg.norm(a @ z - b @ z @ mpow) / max(1.0, norm_z)
            bound = (2 * (m + n + m + 2) * eps * norm_z / max(1.0, norm_z)
                     * (np.linalg.norm(a) + np.linalg.norm(b) * np.linalg.norm(mpow))
                     + 4 * eps * dense)
            assert abs(primal_eig_residual(p, x, mpow) - dense) <= bound

    def test_streamed_residual_holds_one_basis_block(self):
        # beside the basis only a block of rows and its products are held
        rng = np.random.default_rng(8)
        m, n = 150, 170
        p = random_sfq(rng, m, n)
        x, mpow = complex_normal(rng, n, m, 0.4), complex_normal(rng, m, m, 0.4)
        gc.collect()
        tracemalloc.start()
        try:
            primal_eig_residual(p, x, mpow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (m + n) * m * 16

    def test_primal_nme_zero_case(self):
        p = SfqPencil(m=2, n=2, E=0.5 * np.eye(2), F=0.5 * np.eye(2),
                      X=np.zeros((2, 2)), Y=np.zeros((2, 2)),
                      Q1=Permutation.identity(4), Q2=Permutation.identity(4))
        assert primal_nme_residual(p, np.zeros((2, 2))) == 0.0
        assert dual_nme_residual(p, np.zeros((2, 2))) == 0.0

    def test_nme_discriminates(self, rng):
        # a solved instance has tiny residual; a perturbed candidate does not
        from qdoubling import gen_solved_sfq
        inst = gen_solved_sfq(m=4, n=5, rho_m=0.5, rho_n=0.5, seed=3)
        assert primal_nme_residual(inst.pencil, inst.phi) <= 1e-12
        assert dual_nme_residual(inst.pencil, inst.psi) <= 1e-12
        noisy = inst.phi + 0.1 * complex_normal(rng, 5, 4)
        assert primal_nme_residual(inst.pencil, noisy) > 1e-4


class TestGeneralPencil:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GeneralPencil(A=a, B=np.eye(3), m=1, n=2)
        with pytest.raises(ValueError, match="non-finite"):
            GeneralPencil(A=np.eye(3), B=a, m=1, n=2)


    def test_split_must_add_up_to_the_size(self):
        with pytest.raises(ValueError, match=r"m \+ n = 2 does not match size 3"):
            GeneralPencil(A=np.eye(3), B=np.eye(3), m=1, n=1)


@pytest.mark.parametrize("name", ["Q1", "Q2"])
def test_sfq_pencil_permutations_have_the_pencil_size(rng, name):
    p = random_sfq(rng, 2, 3)
    with pytest.raises(ValueError, match=r"Q1 and Q2 must be permutations of size m \+ n"):
        replace(p, **{name: Permutation.identity(4)})


@pytest.mark.parametrize("h_shape, z_shape", [((3, 4), (3, 1)), ((4, 4), (5, 1))],
                         ids=["3x4", "basis-of-5-rows"])
def test_a_bare_h_must_be_square_with_a_basis_of_its_rows(rng, h_shape, z_shape):
    # these used to end in numpy's matmul complaint, which names neither shape
    h, z = complex_normal(rng, *h_shape), complex_normal(rng, *z_shape)
    shapes = f"got H of shape {h_shape} and a basis of shape {z_shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        orthonormal_residual(h, z)


class TestOrthonormalResidualScaling:
    @staticmethod
    def pencil_and_basis():
        inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1e-2, seed=4)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        return g, inst.true_basis_stable + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-900, max_value=900),
           st.integers(min_value=-900, max_value=900))
    def test_invariant_under_powers_of_two(self, ka, kb):
        g, z = self.pencil_and_basis()
        a, b = g.A, g.B
        ref = orthonormal_residual(g, z)
        got = orthonormal_residual(replace(g, A=np.ldexp(a.real, ka) + 1j * np.ldexp(a.imag, ka),
                                           B=np.ldexp(b.real, kb) + 1j * np.ldexp(b.imag, kb)), z)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_decimal_scales(self, scale):
        g, z = self.pencil_and_basis()
        ref = orthonormal_residual(g, z)
        scaled = replace(g, A=scale * g.A, B=scale * g.B)
        assert orthonormal_residual(scaled, z) == pytest.approx(ref, rel=1e-12)
        # a bare matrix stands for the standard problem (H, I)
        assert orthonormal_residual(scale * g.A, z) == pytest.approx(
            orthonormal_residual(g.A, z), rel=1e-12)

    @staticmethod
    def half_plane_pair(scale=lambda x: x):
        """The Cayley pair of the half-plane pencil behind ``pencil_and_basis``."""
        g = gen_random_split(m=4, n=5, alpha=8.0, eta=1e-2, seed=4).pencil
        return CayleyPair(GeneralPencil(A=scale(g.A), B=scale(g.B), m=4, n=5), -1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-900, max_value=900))
    def test_cayley_pair_invariant_under_powers_of_two(self, k):
        _, z = self.pencil_and_basis()
        ref = orthonormal_residual(self.half_plane_pair(), z)
        got = orthonormal_residual(
            self.half_plane_pair(lambda x: np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)), z)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_cayley_pair_at_decimal_scales(self, scale):
        _, z = self.pencil_and_basis()
        ref = orthonormal_residual(self.half_plane_pair(), z)
        got = orthonormal_residual(self.half_plane_pair(lambda x: scale * x), z)
        assert got == pytest.approx(ref, rel=1e-12)


def residual_peak(pencil, z) -> int:
    """Bytes ``orthonormal_residual(pencil, z)`` allocates at its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        orthonormal_residual(pencil, z)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_residual(a, b, z):
    """The safeguard's formula on dense matrices, in one piece (unit scale only)."""
    u, _ = np.linalg.qr(z)
    au, bu = a @ u, b @ u
    mray = np.linalg.solve(bu.conj().T @ bu, bu.conj().T @ au)
    num = np.linalg.norm(au - bu @ mray)
    return num / (np.sqrt(u.shape[1]) * (two_est(a) + two_est(mray) * two_est(b)))


class TestStructuredResidual:
    """An SfqPencil stands for its own dense pair in the residual safeguard."""

    #: Relative bound, fixed from the dtype and the size before the first
    #: run: the two sides differ only in summation order over ``m + n`` terms.
    @staticmethod
    def bound(size):
        return 256 * size * np.finfo(np.float64).eps

    @staticmethod
    def q_pair(rng, kind, m, n):
        if kind == "random":
            return Permutation(rng.permutation(m + n)), Permutation(rng.permutation(m + n))
        if kind == "identity":
            return Permutation.identity(m + n), Permutation.identity(m + n)
        return Permutation.identity(m + n), swap_perm(m, n)

    @pytest.mark.parametrize("kind", ["random", "identity", "block_swap"])
    def test_matches_the_dense_pair(self, kind):
        rng = np.random.default_rng({"random": 11, "identity": 12, "block_swap": 13}[kind])
        for _ in range(80):
            m, n = (int(k) for k in rng.integers(1, 9, size=2))
            q1, q2 = self.q_pair(rng, kind, m, n)
            p = SfqPencil(m=m, n=n, E=complex_normal(rng, m, m), F=complex_normal(rng, n, n),
                          X=complex_normal(rng, n, m), Y=complex_normal(rng, m, n),
                          Q1=q1, Q2=q2)
            z = complex_normal(rng, m + n, m)
            a, b = assemble(p)
            ref = dense_residual(a, b, z)
            assert ref > 1e-3   # a random basis: an O(1) residual, no cancellation
            for pencil in (p, GeneralPencil(A=a, B=b, m=m, n=n)):
                got = orthonormal_residual(pencil, z)
                assert abs(got - ref) <= self.bound(m + n) * ref, (m, n)

    def test_matches_the_dense_pair_over_several_row_blocks(self):
        # blocks past ROW_BLOCK rows on both sides of the split, random Q's
        rng = np.random.default_rng(14)
        for _ in range(6):
            m, n = (int(k) for k in rng.integers(ROW_BLOCK + 1, 3 * ROW_BLOCK, size=2))
            q1, q2 = self.q_pair(rng, "random", m, n)
            p = SfqPencil(m=m, n=n, E=complex_normal(rng, m, m), F=complex_normal(rng, n, n),
                          X=complex_normal(rng, n, m), Y=complex_normal(rng, m, n),
                          Q1=q1, Q2=q2)
            z = complex_normal(rng, m + n, m)
            ref = dense_residual(*assemble(p), z)
            assert ref > 1e-3
            assert abs(orthonormal_residual(p, z) - ref) <= self.bound(m + n) * ref, (m, n)

    @pytest.mark.parametrize("structured", [True, False])
    def test_peak_memory_is_a_few_basis_blocks(self, structured):
        # U (one block of the basis's size), the m-by-m Gram and cross
        # products (half a block each at m = n) and one block of ROW_BLOCK
        # rows with its products: about 2.45 blocks here, against 4.1 with
        # A U and B U held whole and 6.5 for the unblocked form
        inst = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3)
        p0 = inst.pencil
        z = sfq_basis(replace(p0, X=inst.phi))
        pencil = p0 if structured else GeneralPencil(*assemble(p0), m=p0.m, n=p0.n)
        assert residual_peak(pencil, z) <= 2.75 * z.nbytes

    @pytest.mark.parametrize("kind", ["structured", "dense", "cayley", "standard"])
    def test_least_squares_stage_holds_three_square_arrays(self, kind):
        # at m = n an m-by-m array is half a basis block: U (1 block), the
        # Gram matrix factored in its own storage and the cross product that
        # becomes M (1), and one block of ROW_BLOCK rows with its products
        # (about 0.3) make about 2.3; holding A U and B U whole adds 1.5 to 2
        inst = gen_solved_sfq(m=256, n=256, rho_m=0.5, rho_n=0.5, seed=3)
        p0 = inst.pencil
        z = sfq_basis(replace(p0, X=inst.phi))
        dense = GeneralPencil(*assemble(p0), m=p0.m, n=p0.n)
        pencil = {"structured": p0, "dense": dense, "cayley": CayleyPair(dense, -1.0),
                  "standard": dense.A}[kind]   # a bare H stands for (H, I)
        assert residual_peak(pencil, z) <= 2.75 * z.nbytes

    @pytest.mark.parametrize("structured", [True, False])
    def test_a_pencil_basis_is_built_within_the_same_peak(self, structured):
        # the basis of a pencil passed as z is built inside, in the row order
        # the products read, and factored in its own storage, so counting it
        # adds nothing to the peak above
        inst = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3)
        p0 = inst.pencil
        solved = replace(p0, X=inst.phi)
        pencil = p0 if structured else GeneralPencil(*assemble(p0), m=p0.m, n=p0.n)
        assert residual_peak(pencil, solved) <= 2.75 * sfq_basis(solved).nbytes

    def test_pencil_stands_for_its_basis(self, rng):
        for _ in range(20):
            p = random_sfq(rng, 3, 5)
            ref = random_sfq(rng, 3, 5)
            g = GeneralPencil(*assemble(ref), m=3, n=5)
            assert orthonormal_residual(g, p) == orthonormal_residual(g, sfq_basis(p))
            # scattered into the reference's row order, or gathered into it
            assert orthonormal_residual(ref, p) == orthonormal_residual(ref, sfq_basis(p))


class TestCayleyResidual:
    """A CayleyPair stands for the formed transform in the residual safeguard."""

    #: Relative bound, fixed from the dtype and the size before the first
    #: run: the two sides differ at most in how the products are blocked.
    @staticmethod
    def bound(size):
        return 64 * size * np.finfo(np.float64).eps

    @staticmethod
    def pencil(rng, m, n):
        return GeneralPencil(A=complex_normal(rng, m + n, m + n),
                             B=complex_normal(rng, m + n, m + n), m=m, n=n)

    def test_rows_are_the_formed_transform_bitwise(self, rng):
        g = self.pencil(rng, 40, 57)
        disk = cayley(g, CayleyParams(-0.75))
        pair = CayleyPair(g, -0.75)
        blocks = [pair.rows(rows) for rows in row_blocks(g.size)]
        assert np.vstack([a for a, _ in blocks]).tobytes() == disk.A.tobytes()
        assert np.vstack([b for _, b in blocks]).tobytes() == disk.B.tobytes()

    def test_matches_the_formed_transform(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            # sizes up to 96 rows: up to four blocks of ROW_BLOCK, often a partial one
            m, n = (int(k) for k in rng.integers(1, 49, size=2))
            g = self.pencil(rng, m, n)
            gamma = -float(rng.uniform(0.25, 4.0))
            z = complex_normal(rng, m + n, m)
            disk = cayley(g, CayleyParams(gamma))
            ref = orthonormal_residual(disk, z)
            assert ref > 1e-3   # a random basis: an O(1) residual, no cancellation
            got = orthonormal_residual(CayleyPair(g, gamma), z)
            assert abs(got - ref) <= self.bound(m + n) * ref, (m, n)

    @pytest.mark.parametrize("basis_of_pencil", [False, True])
    def test_peak_memory_is_a_few_basis_blocks(self, basis_of_pencil):
        # U and the m-by-m Gram and cross products (2 blocks of the basis's
        # size at m = n), and ROW_BLOCK formed rows of A' and B' with one
        # product: about 2.5 blocks here; holding A' U and B' U whole made
        # 4.1, and the formed pair itself would be 8
        inst = gen_solved_sfq(m=120, n=120, rho_m=0.5, rho_n=0.5, seed=3)
        solved = replace(inst.pencil, X=inst.phi)
        z = sfq_basis(solved)
        pair = CayleyPair(gen_random_split(120, 120, 8.0, 1.0, seed=3).pencil, -1.0)
        assert residual_peak(pair, solved if basis_of_pencil else z) <= 2.75 * z.nbytes
