import numpy as np
import pytest

from qdoubling import (
    GuardAction,
    Permutation,
    SfqPencil,
    ZeroPivotError,
    action_x,
    action_y,
    default_tau,
    find_violation,
    guard,
    reinit,
)

from conftest import random_sfq


def with_block(p, name, value):
    blocks = {b: getattr(p, b) for b in "EFXY"}
    blocks[name] = value
    return SfqPencil(m=p.m, n=p.n, Q1=p.Q1, Q2=p.Q2, **blocks)


class TestTau:
    def test_small_sizes_floor(self):
        assert default_tau(1, 1) == 1000.0

    def test_formula_mid(self):
        assert default_tau(200, 250) == pytest.approx(10 * np.sqrt(200 * 250 + 1))
        assert default_tau(200, 250) == pytest.approx(2236.09, abs=0.005)

    def test_formula_large(self):
        assert default_tau(10000, 10000) == pytest.approx(10 * np.sqrt(1e8 + 1))


class TestFindViolation:
    def test_compliant_returns_none(self, rng):
        p = random_sfq(rng, 3, 4, scale=0.3)
        assert find_violation(p, 1000.0) is None

    def test_single_large_entry(self, rng):
        p = random_sfq(rng, 3, 4, scale=0.3)
        x = p.X.copy()
        x[2, 1] = 2000.0
        v = find_violation(with_block(p, "X", x), 1000.0)
        assert v.which == "X" and (v.row, v.col) == (2, 1)
        assert v.magnitude == pytest.approx(2000.0)

    def test_tie_prefers_x(self, rng):
        p = random_sfq(rng, 2, 2, scale=0.1)
        x = p.X.copy(); x[0, 1] = 5000.0
        y = p.Y.copy(); y[1, 0] = 5000.0
        v = find_violation(with_block(with_block(p, "X", x), "Y", y), 1000.0)
        assert v.which == "X"


class TestActions:
    def test_action_x_scalar(self):
        e, f, y = 1.7, -0.6, 0.9
        p = SfqPencil(m=1, n=1, E=[[e]], F=[[f]], X=[[5.0]], Y=[[y]],
                      Q1=Permutation.identity(2), Q2=Permutation.identity(2))
        q = action_x(p, 0, 0)
        assert q.X[0, 0] == pytest.approx(1 / 5)
        assert q.E[0, 0] == pytest.approx(e / 5)
        assert q.F[0, 0] == pytest.approx(-f / 5)
        assert q.Y[0, 0] == pytest.approx(y - e * f / 5)
        assert q.Q1 == Permutation(np.array([1, 0]))

    def test_action_y_scalar_mirror(self):
        e, f, x = -0.4, 1.2, 0.7
        p = SfqPencil(m=1, n=1, E=[[e]], F=[[f]], X=[[x]], Y=[[5.0]],
                      Q1=Permutation.identity(2), Q2=Permutation.identity(2))
        q = action_y(p, 0, 0)
        assert q.Y[0, 0] == pytest.approx(1 / 5)
        assert q.F[0, 0] == pytest.approx(f / 5)
        assert q.E[0, 0] == pytest.approx(-e / 5)
        assert q.X[0, 0] == pytest.approx(x - e * f / 5)
        assert q.Q2 == Permutation(np.array([1, 0]))

    def test_pivot_entry_becomes_reciprocal(self, rng):
        p = random_sfq(rng, 4, 5, scale=0.4)
        x = p.X.copy()
        x[2, 3] = 4000.0
        q = action_x(with_block(p, "X", x), 2, 3)
        assert abs(q.X[2, 3]) <= 1.0 / abs(x[2, 3]) + 1e-15

    def test_action_is_left_equivalence(self, rng):
        # the assembled pencils before and after share the same row space:
        # after the action, P (A S^T, B) holds for some nonsingular P, so the
        # generalized eigen-relations survive; we check with a prescribed pair
        from qdoubling import gen_solved_sfq, primal_eig_residual

        inst = gen_solved_sfq(m=3, n=4, rho_m=0.5, rho_n=0.5, seed=6)
        p = inst.pencil
        q = action_x(p, 1, 2)
        # Phi and M in the new coordinates: the basis is unchanged, so both
        # transform by the new leading block of the permuted basis
        z = np.vstack([np.eye(3), inst.phi])[p.Q1.inverse().image, :]
        qz = z[q.Q1.image, :]
        z1 = qz[:3]
        phi_new = np.linalg.solve(z1.T, qz[3:].T).T
        m_new = z1 @ inst.m_mat @ np.linalg.inv(z1)
        assert primal_eig_residual(q, phi_new, m_new) <= 1e-10

    def test_zero_pivot_rejected(self, rng):
        p = random_sfq(rng, 2, 2, scale=0.5)
        x = p.X.copy()
        x[0, 0] = 0.0
        with pytest.raises(ZeroPivotError):
            action_x(with_block(p, "X", x), 0, 0)

    def test_qs_remain_exact_permutations(self, rng):
        p = random_sfq(rng, 3, 3, scale=0.4)
        x = p.X.copy()
        x[1, 1] = 3000.0
        q = action_x(with_block(p, "X", x), 1, 1)
        q = action_y(q, 0, 2) if abs(q.Y[0, 2]) > 1e-10 else q
        for perm in (q.Q1, q.Q2):
            assert np.array_equal(np.sort(perm.image), np.arange(6))


def planted_case(rng, m, n, tau, factor=10.0, which="X"):
    p = random_sfq(rng, m, n, scale=0.5)
    block = getattr(p, which).copy()
    r = int(rng.integers(block.shape[0]))
    c = int(rng.integers(block.shape[1]))
    block[r, c] = factor * tau * np.exp(2j * np.pi * rng.random())
    return with_block(p, which, block), r, c


class TestEntrywiseBounds:
    def test_action_x_bounds(self, rng):
        tau = 1000.0
        slack = 1e-12
        for _ in range(100):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            p, j, ell = planted_case(rng, m, n, tau, which="X")
            q = action_x(p, j, ell)
            ax, aq = np.abs(p.X), np.abs(q.X)
            for i in range(n):
                for k in range(m):
                    if i == j and k == ell:
                        assert aq[i, k] <= 1.0 / tau + slack
                    elif i == j or k == ell:
                        assert aq[i, k] <= 1.0 + slack
                    else:
                        assert aq[i, k] <= 2.0 * ax[i, k] + slack
            bound_y = np.abs(p.Y) + np.outer(np.abs(p.E[:, ell]), np.abs(p.F[j, :])) / tau
            assert (np.abs(q.Y) <= bound_y + slack).all()

    def test_action_y_bounds(self, rng):
        tau = 1000.0
        slack = 1e-12
        for _ in range(100):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 11))
            p, j, ell = planted_case(rng, m, n, tau, which="Y")
            q = action_y(p, j, ell)
            ay, aq = np.abs(p.Y), np.abs(q.Y)
            for i in range(m):
                for k in range(n):
                    if i == j and k == ell:
                        assert aq[i, k] <= 1.0 / tau + slack
                    elif i == j or k == ell:
                        assert aq[i, k] <= 1.0 + slack
                    else:
                        assert aq[i, k] <= 2.0 * ay[i, k] + slack
            bound_x = np.abs(p.X) + np.outer(np.abs(p.F[:, ell]), np.abs(p.E[j, :])) / tau
            assert (np.abs(q.X) <= bound_x + slack).all()


def rescanned_actions(p, report):
    """Replay ``report`` with a full max scan of X and Y around every action."""
    def peak(pencil):
        return max(pencil.max_abs_x(), pencil.max_abs_y())

    expected, current = [], p
    for act in report.actions:
        before = peak(current)
        if act.kind == "reinit":
            current = reinit(current).pencil
        else:
            current = (action_x if act.kind == "action_x" else action_y)(current, *act.pivot)
        expected.append(GuardAction(act.kind, act.pivot, before, peak(current)))
    return tuple(expected)


class TestGuardLoop:
    def test_compliant_untouched(self, rng):
        p = random_sfq(rng, 3, 4, scale=0.3)
        q, report = guard(p, default_tau(3, 4))
        assert q is p
        assert not report.acted

    def test_single_violation_one_action(self, rng):
        p = random_sfq(rng, 3, 4, scale=0.2)
        x = p.X.copy()
        x[1, 0] = 5.0e4
        tau = default_tau(3, 4)
        q, report = guard(with_block(p, "X", x), tau)
        assert [a.kind for a in report.actions] == ["action_x"]
        assert max(q.max_abs_x(), q.max_abs_y()) <= tau
        assert report.actions == rescanned_actions(with_block(p, "X", x), report)

    def test_records_match_full_rescans(self, rng):
        # several planted entries on both sides: the records reuse the
        # violation magnitudes, and must equal full max scans bit for bit
        p = random_sfq(rng, 4, 5, scale=0.2)
        x, y = p.X.copy(), p.Y.copy()
        x[1, 0], x[3, 2] = 5.0e4, -3.0e4j
        y[0, 4], y[2, 1] = 7.0e4, 2.5e4
        p = with_block(with_block(p, "X", x), "Y", y)
        q, report = guard(p, 1000.0)
        assert len(report.actions) >= 4
        assert report.actions == rescanned_actions(p, report)
        assert max(q.max_abs_x(), q.max_abs_y()) <= 1000.0

    def test_escalates_to_reinit(self):
        # a tau this close to 1 leaves entries over it after all m + n swaps,
        # and the re-reduction brings every entry under it
        p = random_sfq(np.random.default_rng(4), 3, 3, scale=1.0)
        q, report = guard(p, 1.05)
        kinds = [a.kind for a in report.actions]
        assert kinds[-1] == "reinit" and len(kinds) == 3 + 3 + 1
        assert max(q.max_abs_x(), q.max_abs_y()) <= 1.05
        assert report.actions == rescanned_actions(p, report)
