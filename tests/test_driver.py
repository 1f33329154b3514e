import gc
import importlib
import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdoubling.driver

from qdoubling import (
    BreakdownError,
    CayleyPair,
    CayleyParams,
    GeneralPencil,
    Idea,
    Kernel,
    Permutation,
    QdaConfig,
    RunStatus,
    SfqPencil,
    StepOutcome,
    Variant,
    cayley,
    dual,
    gen_bse_like,
    gen_random_split,
    gen_solved_sfq,
    primal_nme_residual,
    reduce_with_fallback,
    run_qda,
    run_sdasf1,
    run_sdasf1_on,
    run_sdasf2,
    run_sdasf2_on,
    run_sdasfq,
    sdasf1_init,
    select_kernel,
    sfq_basis,
    step,
)

from conftest import NO_GUARD, complex_normal, random_sfq
from doubling_reference import assemble


def pencil_bytes(p):
    return [blk.tobytes() for blk in (p.E, p.F, p.X, p.Y, p.Q1.image, p.Q2.image)]


class TestRunQda:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_residual_safeguard_at_any_scale(self, scale):
        g = cayley(gen_random_split(3, 3, 8.0, 1e-2, seed=1).pencil, CayleyParams(-1.0))
        base = run_qda(g, QdaConfig())
        scaled = run_qda(GeneralPencil(A=scale * g.A, B=scale * g.B, m=3, n=3), QdaConfig())
        assert base.status is RunStatus.CONVERGED
        assert scaled.status is RunStatus.CONVERGED
        assert scaled.iterations == base.iterations

    def test_a_singular_safeguard_never_converges(self):
        # against B = 0 the safeguard's Gram matrix (B U)^H B U is zero, which
        # is not positive definite, so every iterate the stopping test passes
        # is rejected, and the run that converges on its own ends at the limit
        p0 = gen_solved_sfq(4, 5, 0.5, 0.5, seed=1).pencil
        own = run_sdasfq(p0, QdaConfig(max_iter=12))
        assert own.status is RunStatus.CONVERGED and own.iterations < 12
        zero_b = GeneralPencil(A=np.eye(9), B=np.zeros((9, 9)), m=4, n=5)
        res = run_sdasfq(p0, QdaConfig(max_iter=12), reference=zero_b)
        assert res.status is RunStatus.MAX_ITER and res.iterations == 12

    def test_a_correct_basis_with_m_above_n_is_accepted(self):
        # cond(B U) = 5.6e6 on this pair's basis, squared in the Gram matrix
        # (B U)^H B U: an LU of it with a relative pivot test read it as
        # singular, so every iterate from step 8 on was rejected
        res = run_qda(CayleyPair(gen_random_split(3, 1, 8.0, 1e-4, 56727).pencil, -1.0))
        assert res.status is RunStatus.CONVERGED

    @settings(max_examples=20, deadline=None)
    @given(split=st.integers(1, 29).flatmap(lambda n: st.tuples(st.integers(n + 1, 30),
                                                                 st.just(n))),
           seed=st.integers(1, 2**16))
    def test_every_split_with_m_above_n_converges(self, split, seed):
        # the m stable columns live mostly in the n unscaled rows at eta 1e-4,
        # which leaves B U ill-conditioned where m > n
        m, n = split
        res = run_qda(CayleyPair(gen_random_split(m, n, 8.0, 1e-4, seed).pencil, -1.0))
        assert res.status is RunStatus.CONVERGED

    @pytest.mark.parametrize("reference, split", [
        (gen_random_split(5, 6, 8.0, 1e-2, 1).pencil, (5, 6)),
        (gen_random_split(4, 8, 8.0, 1e-2, 1).pencil, (4, 8)),
        (CayleyPair(gen_random_split(4, 8, 8.0, 1e-2, 1).pencil, -1.0), (4, 8)),
        (gen_solved_sfq(4, 8, 0.9, 0.9, 1).pencil, (4, 8)),
    ], ids=["other-size", "other-split", "cayley-other-split", "sfq-other-split"])
    def test_a_reference_of_another_split_is_refused_before_any_step(
            self, monkeypatch, reference, split):
        def no_step(*_args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(qdoubling.driver, "step", no_step)
        p0 = gen_solved_sfq(6, 6, 0.9, 0.9, 1).pencil
        with pytest.raises(ValueError, match=re.escape(f"{split} is not the start's (6, 6)")):
            run_sdasfq(p0, QdaConfig(), reference=reference)

    def test_decoupled_diagonal_converges_fast(self):
        g = GeneralPencil(A=np.diag([0.5, 2.0]), B=np.eye(2), m=1, n=1)
        res = run_qda(g, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        assert res.iterations <= 2
        assert abs(res.final.X[0, 0]) <= 1e-14
        assert abs(res.final.Y[0, 0]) <= 1e-14

    def test_recovers_generator_subspace(self):
        from qdoubling import thin_qr
        inst = gen_random_split(m=20, n=25, alpha=8.0, eta=1.0, seed=2)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        res = run_qda(g, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        u1, _ = thin_qr(sfq_basis(res.final))
        u2, _ = thin_qr(inst.true_basis_stable)
        assert np.linalg.norm(u2 - u1 @ (u1.conj().T @ u2)) <= 1e-8

    def test_converged_phi_psi_bounded_by_tau(self):
        inst = gen_random_split(m=10, n=12, alpha=8.0, eta=1e-6, seed=4)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        cfg = QdaConfig()
        res = run_qda(g, cfg)
        assert res.status is RunStatus.CONVERGED
        tau = cfg.tau_for(10, 12)
        assert np.abs(res.final.X).max() <= tau
        assert np.abs(res.final.Y).max() <= tau

    def test_a_solve_peaks_at_its_history_and_a_few_basis_blocks(self):
        # beside the history the run holds one live pencil and a step's
        # work, and at the end the residual safeguard: U and its two m-by-m
        # arrays (2 blocks of the basis's size at m = n) and one block of
        # rows, about 2.45 here; with A U and B U held whole it was 3.9
        inst = gen_solved_sfq(m=150, n=150, rho_m=0.99, rho_n=0.99, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            res = run_sdasfq(inst.pencil, QdaConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status is RunStatus.CONVERGED
        history = sum(rec.pencil.E.nbytes + rec.pencil.F.nbytes + rec.pencil.X.nbytes
                      + rec.pencil.Y.nbytes for rec in res.history)
        block = sfq_basis(res.final).nbytes
        assert peak <= history + 2.75 * block

    def test_history_is_complete(self):
        inst = gen_random_split(m=6, n=6, alpha=8.0, eta=1.0, seed=6)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        res = run_qda(g, QdaConfig())
        assert [rec.index for rec in res.history] == list(range(1, res.iterations + 1))
        for rec in res.history:
            assert rec.rel_update_x * rec.norm_x == pytest.approx(rec.abs_update_x, rel=1e-12)
            assert rec.w_condition >= 1.0
        assert res.init_report is not None

    def test_converged_phi_solves_primal_equation(self):
        # benign instance: no guard events, so coordinates never change and
        # the converged iterate solves the initial pencil's fixed point
        inst = gen_random_split(m=8, n=9, alpha=8.0, eta=1.0, seed=10)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        res = run_qda(g, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        assert not any(rec.guard_events.acted for rec in res.history)
        assert primal_nme_residual(reduce_with_fallback(g).pencil, res.final.X) <= 1e-10

    def test_init_breakdown_reported(self):
        # a pencil whose A is entirely zero cannot be reduced by any idea
        g = GeneralPencil(A=np.zeros((4, 4)), B=np.eye(4), m=2, n=2)
        res = run_qda(g, QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.final is None
        assert "initialization" in res.message

    @pytest.mark.parametrize("half_plane", [False, True], ids=["disk", "cayley-pair"])
    def test_start_pencil_is_released_by_the_second_step(self, monkeypatch, half_plane):
        # weakrefs to the reduced start and its four blocks, read as each step
        # begins; with the cyclic collector off only references keep them
        refs, alive = [], []
        reduce_ = qdoubling.driver.reduce_with_fallback
        step_ = qdoubling.driver.step

        def tracked_reduce(*args):
            report = reduce_(*args)
            p = report.pencil
            refs.extend(weakref.ref(obj) for obj in (p, p.E, p.F, p.X, p.Y))
            return report

        def watched_step(p, kernel):
            alive.append([ref() is not None for ref in refs])
            return step_(p, kernel)

        monkeypatch.setattr(qdoubling.driver, "reduce_with_fallback", tracked_reduce)
        monkeypatch.setattr(qdoubling.driver, "step", watched_step)
        g = gen_random_split(m=6, n=7, alpha=8.0, eta=1e-2, seed=3).pencil
        problem = CayleyPair(g, -1.0) if half_plane else cayley(g, CayleyParams(-1.0))
        gc.disable()
        try:
            res = run_qda(problem, QdaConfig())
        finally:
            gc.enable()
        assert res.status is RunStatus.CONVERGED and res.iterations >= 2
        assert alive[0] == [True] * 5
        assert alive[1] == [False] * 5
        assert res.init_report.pencil is None

    def test_unguarded_iterate_is_released_before_the_next_step(self, monkeypatch):
        # tau = 4 makes the guard act at iteration 3; the step's own X is then
        # held by nothing the loop keeps, so it must be gone when step 4 starts
        refs, alive = [], []
        step_ = qdoubling.driver.step

        def watched_step(p, kernel):
            alive.append([ref() is not None for ref in refs])
            outcome = step_(p, kernel)
            refs.append(weakref.ref(outcome.next.X))
            return outcome

        monkeypatch.setattr(qdoubling.driver, "step", watched_step)
        g = gen_random_split(m=6, n=7, alpha=8.0, eta=1e-2, seed=3).pencil
        gc.disable()
        try:
            res = run_qda(CayleyPair(g, -1.0), QdaConfig(tau=4.0))
        finally:
            gc.enable()
        acted = [rec.index for rec in res.history if rec.guard_events.acted]
        assert res.status is RunStatus.CONVERGED and acted == [3]
        assert alive[3][2] is False
        # an iterate the guard left alone is the accepted pencil, kept by the history
        assert alive[3][:2] == [True, True]

    def test_start_is_recovered_from_the_init_report(self, monkeypatch):
        seen = []
        reduce_ = qdoubling.driver.reduce_with_fallback

        def keep_bytes(*args):
            report = reduce_(*args)
            seen.append(pencil_bytes(report.pencil))
            return report

        monkeypatch.setattr(qdoubling.driver, "reduce_with_fallback", keep_bytes)
        problem = CayleyPair(gen_random_split(m=8, n=9, alpha=8.0, eta=1e-3, seed=5).pencil,
                             -1.0)
        report = run_qda(problem, QdaConfig()).init_report
        again = reduce_(problem.pencil(), report.idea, report.variant)
        assert seen == [pencil_bytes(again.pencil)]
        assert again.pivot_growth == report.pivot_growth

    @pytest.mark.parametrize("m, n", [(4, 2), (2, 4)])
    def test_overflowing_norm_is_a_breakdown(self, m, n):
        # a mis-declared split: the block that should contract diverges, and
        # its norm overflows at iteration 11 while its entries stay finite
        g = cayley(gen_random_split(3, 3, 8.0, 1e-2, seed=1).pencil, CayleyParams(-1.0))
        res = run_qda(GeneralPencil(A=g.A, B=g.B, m=m, n=n), QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.message == "non-finite norm at iteration 11"
        assert res.iterations == 10
        assert all(math.isfinite(value) for rec in res.history
                   for value in (rec.abs_update_x, rec.norm_e, rec.norm_f,
                                 rec.norm_x, rec.norm_y))

    def test_the_kahan_rule_reads_no_update_from_before_a_guard_action(self, monkeypatch):
        # this pair's guard acts at steps 4 and 5; step 6 once stopped on a
        # Kahan estimate that divided by step 5's update of 8.1e5, measured
        # in the coordinates before the swap, with the plain rule unmet
        acted, checked = [], []
        guard, check_stop = qdoubling.driver.guard, qdoubling.driver.check_stop

        def watched_guard(*args):
            accepted, report = guard(*args)
            acted.append(report.acted)
            return accepted, report

        def watched_check(d_now, d_prev, *args):
            checked.append((len(acted), d_prev))
            return check_stop(d_now, d_prev, *args)

        monkeypatch.setattr(qdoubling.driver, "guard", watched_guard)
        monkeypatch.setattr(qdoubling.driver, "check_stop", watched_check)
        res = run_qda(CayleyPair(gen_random_split(12, 15, 8.0, 1e-6, 4).pencil, -1.0))
        assert res.status is RunStatus.CONVERGED
        after_action = [d_prev for it, d_prev in checked if it > 1 and acted[it - 2]]
        assert after_action == [None]

    def test_the_kahan_rule_reads_no_update_from_before_a_re_reduction(self, monkeypatch):
        # the fourth step breaks down and the run re-reduces, which changes
        # the coordinates as a guard action does; the check after the step
        # made again once divided by the third step's update of 143.9
        steps, checked = [], []
        step_, check_stop = qdoubling.driver.step, qdoubling.driver.check_stop

        def failing_step(p, kernel):
            steps.append(kernel)
            if len(steps) == 4:
                raise BreakdownError("doubling step (W solve)", "forced")
            return step_(p, kernel)

        def watched_check(d_now, d_prev, *args):
            checked.append((len(steps), d_prev))
            return check_stop(d_now, d_prev, *args)

        monkeypatch.setattr(qdoubling.driver, "step", failing_step)
        monkeypatch.setattr(qdoubling.driver, "check_stop", watched_check)
        res = run_qda(CayleyPair(gen_random_split(12, 15, 8.0, 1e-6, 1).pencil, -1.0))
        assert res.status is RunStatus.CONVERGED
        assert [d_prev for step_count, d_prev in checked if step_count == 5] == [None]

    def test_declared_split_of_the_overflow_instance_converges(self):
        g = cayley(gen_random_split(3, 3, 8.0, 1e-2, seed=1).pencil, CayleyParams(-1.0))
        res = run_qda(g, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        assert res.iterations == 7

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(["split", "bse"]), m=st.integers(1, 8), n=st.integers(1, 8),
           eta=st.sampled_from([1.0, 1e-3, 1e-6]), seed=st.integers(0, 2**16),
           k=st.sampled_from([1, -1, 40, -40, 600, -600]))
    def test_power_of_two_scaling_changes_nothing(self, family, m, n, eta, seed, k):
        # (A, B) -> 2^k (A, B) scales every quantity the solver compares
        # by the same power of two, so the run takes the same path bit for bit
        if family == "split":
            g = gen_random_split(m, n, 8.0, eta, seed).pencil
        else:
            g = gen_bse_like(n, 2.0, seed, 1e-3).pencil
        scaled = GeneralPencil(A=g.A * 2.0**k, B=g.B * 2.0**k, m=g.m, n=g.n)
        base, res = (run_qda(CayleyPair(h, -1.0), QdaConfig()) for h in (g, scaled))
        assert (res.status, res.iterations, res.message) == (base.status, base.iterations,
                                                             base.message)
        assert res.final.Q1 == base.final.Q1 and res.final.Q2 == base.final.Q2
        assert res.final.X.tobytes() == base.final.X.tobytes()
        assert res.final.Y.tobytes() == base.final.Y.tobytes()
        assert [r.norm_x for r in res.history] == [r.norm_x for r in base.history]


class TestNonFiniteStart:
    @pytest.mark.parametrize("runner", ["sdasfq", "sdasf1"])
    def test_is_turned_away_before_any_step(self, monkeypatch, runner):
        def no_step(*args):
            raise AssertionError("a non-finite start was stepped")

        monkeypatch.setattr(qdoubling.driver, "step", no_step)
        monkeypatch.setattr(qdoubling.driver, "step_sf1", no_step)
        p = gen_solved_sfq(6, 5, 0.5, 0.5, 1).pencil
        x = np.array(p.X)
        x[2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if runner == "sdasfq":
                res = run_sdasfq(replace(p, X=x), QdaConfig())
            else:
                res = run_sdasf1(p.E, p.F, x, p.Y, QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.iterations == 0
        assert res.message == "non-finite start pencil"


class TestNonFiniteIterate:
    # E = 1e160·I squares past the float range in the first step's E_next
    E0, F0 = 1e160 * np.eye(2, dtype=complex), 0.5 * np.eye(3, dtype=complex)
    X0, Y0 = np.zeros((3, 2), dtype=complex), np.zeros((2, 3), dtype=complex)

    @pytest.mark.parametrize("runner", ["sdasfq", "sdasf1"])
    def test_overflowing_step_is_a_breakdown_before_the_guard(self, monkeypatch, runner):
        def no_guard(*args):
            raise AssertionError("a non-finite iterate was guarded")

        monkeypatch.setattr(qdoubling.driver, "guard", no_guard)
        with np.errstate(over="ignore", invalid="ignore"):
            if runner == "sdasfq":
                ident = Permutation.identity(5)
                res = run_sdasfq(SfqPencil(m=2, n=3, E=self.E0, F=self.F0, X=self.X0,
                                           Y=self.Y0, Q1=ident, Q2=ident), QdaConfig())
            else:
                res = run_sdasf1(self.E0, self.F0, self.X0, self.Y0, QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.iterations == 0 and res.history == ()
        assert res.message == "non-finite iterate at iteration 1"
        np.testing.assert_array_equal(res.final.E, self.E0)


class TestRecovery:
    """QDA meets a breakdown by one re-reduction, then one kernel switch.

    A natural breakdown sits at a rounding-level pivot, so ``driver.step``
    is made to raise at its third call instead.
    """

    M, N = 6, 7

    def forced_breakdown(self, monkeypatch, reinit_fails, cfg=QdaConfig(), breaking=(3,)):
        """Run with ``driver.step`` raising at the calls numbered in ``breaking``."""
        kernels, reinits = [], []
        step_, reinit_ = qdoubling.driver.step, qdoubling.driver.reinit

        def failing_step(p, kernel):
            kernels.append(kernel)
            if len(kernels) in breaking:
                raise BreakdownError("doubling step (W solve)", "forced")
            return step_(p, kernel)

        def counted_reinit(*args):
            reinits.append(args)
            if reinit_fails:
                raise BreakdownError("initialization", "forced")
            return reinit_(*args)

        monkeypatch.setattr(qdoubling.driver, "step", failing_step)
        monkeypatch.setattr(qdoubling.driver, "reinit", counted_reinit)
        g = gen_random_split(m=self.M, n=self.N, alpha=8.0, eta=1e-2, seed=3).pencil
        res = run_qda(CayleyPair(g, -1.0), cfg)
        return res, kernels, len(reinits)

    def test_breakdown_is_met_by_one_reinit(self, monkeypatch):
        res, kernels, reinits = self.forced_breakdown(monkeypatch, reinit_fails=False)
        assert reinits == 1
        assert kernels == [select_kernel(self.M, self.N)] * len(kernels)
        assert res.status is RunStatus.CONVERGED
        # the failed step leaves no record and no gap in the numbering
        assert [rec.index for rec in res.history] == list(range(1, len(kernels)))

    def test_failed_reinit_switches_the_kernel(self, monkeypatch):
        res, kernels, reinits = self.forced_breakdown(monkeypatch, reinit_fails=True)
        selected = select_kernel(self.M, self.N)
        switched = Kernel.W if selected is Kernel.WTILDE else Kernel.WTILDE
        assert reinits == 1
        assert kernels[:3] == [selected] * 3
        assert len(kernels) > 3 and kernels[3:] == [switched] * (len(kernels) - 3)
        assert res.status is RunStatus.CONVERGED
        assert [rec.kernel for rec in res.history[2:]] == [switched] * (res.iterations - 2)

    @pytest.mark.parametrize("reinit_fails", [False, True])
    def test_a_recovery_spends_no_iteration(self, monkeypatch, reinit_fails):
        # the broken third step is made again after the re-reduction or the
        # kernel switch, and the run still makes all max_iter steps
        res, kernels, reinits = self.forced_breakdown(monkeypatch, reinit_fails,
                                                      QdaConfig(max_iter=4))
        assert reinits == 1 and len(kernels) == 5
        assert res.status is RunStatus.MAX_ITER
        assert [rec.index for rec in res.history] == [1, 2, 3, 4]

    def test_a_run_whose_every_recovery_fails_ends_at_the_broken_step(self, monkeypatch):
        res, kernels, reinits = self.forced_breakdown(monkeypatch, reinit_fails=True,
                                                      breaking=(3, 4))
        assert reinits == 1 and len(kernels) == 4
        assert res.status is RunStatus.BREAKDOWN
        assert res.message == "iteration 3: breakdown in doubling step (W solve): forced"
        assert [rec.index for rec in res.history] == [1, 2]

    def test_failed_guard_reinit_is_a_breakdown(self, monkeypatch):
        # the second step returns test_escalates_to_reinit's pencil, which is
        # still over tau = 1.05 after all m + n swaps, so the guard re-reduces
        # from the run's idea and variant; that re-reduction fails, and the
        # run ends with no further recovery
        steps, reinits, step_ = [], [], qdoubling.driver.step
        forced = random_sfq(np.random.default_rng(4), 3, 3, scale=1.0)

        def forced_step(p, kernel):
            steps.append(kernel)
            if len(steps) == 2:
                return StepOutcome(next=forced, w_condition=1.0, w_min_pivot=1.0, kernel=kernel)
            return step_(p, kernel)

        def failing_reinit(p, *args):
            reinits.append(args)
            raise BreakdownError("initialization", "all reduction attempts failed")

        monkeypatch.setattr(qdoubling.driver, "step", forced_step)
        monkeypatch.setattr(importlib.import_module("qdoubling.guard"), "reinit", failing_reinit)
        res = run_sdasfq(random_sfq(np.random.default_rng(5), 3, 3, scale=0.1),
                         QdaConfig(tau=1.05, init_idea=Idea.IDEA1, init_variant=Variant.B_FIRST))
        assert reinits == [(Idea.IDEA1, Variant.B_FIRST)]
        assert res.status is RunStatus.BREAKDOWN
        assert res.message == ("iteration 2: guard re-reduction: breakdown in "
                               "initialization: all reduction attempts failed")
        assert len(steps) == 2 and res.iterations == 1
        assert res.final is res.history[0].pencil


class TestConfig:
    @pytest.mark.parametrize("rtol", [0.0, -1.0, math.nan, math.inf])
    def test_rtol_must_be_positive_and_finite(self, rtol):
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            QdaConfig(rtol=rtol)

    @pytest.mark.parametrize("max_iter", [0, 2.5, 3.0, True, "3"])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            QdaConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_is_accepted(self):
        assert QdaConfig(max_iter=np.int64(3)).max_iter == 3


class TestInvariants:
    def test_primal_and_dual_eigen_invariants_under_iteration(self):
        # after k unguarded steps the pencil still annihilates both
        # prescribed solution bases, with coefficients raised to 2^k
        from qdoubling import anti_basis
        inst = gen_solved_sfq(m=4, n=5, rho_m=0.6, rho_n=0.6, seed=21)
        cfg = QdaConfig(max_iter=6, rtol=1e-300, tau=NO_GUARD)
        res = run_sdasfq(inst.pencil, cfg)
        z1 = sfq_basis(inst.pencil, inst.phi)
        z2 = anti_basis(replace(inst.pencil, Y=inst.psi))
        mpow, npow = inst.m_mat, inst.n_mat
        for rec in res.history:
            mpow = mpow @ mpow
            npow = npow @ npow
            a, b = assemble(rec.pencil)
            primal = np.linalg.norm(a @ z1 - b @ z1 @ mpow)
            dual_res = np.linalg.norm(a @ z2 @ npow - b @ z2)
            assert primal <= 1e-8 * max(1.0, np.linalg.norm(z1))
            assert dual_res <= 1e-8 * max(1.0, np.linalg.norm(z2))


class TestDuality:
    def test_dual_run_swaps_roles(self, rng):
        inst = gen_solved_sfq(m=3, n=5, rho_m=0.6, rho_n=0.6, seed=7)
        p0 = inst.pencil
        cfg = QdaConfig(max_iter=6, rtol=1e-300, tau=NO_GUARD)
        primal = run_sdasfq(p0, cfg)
        dual_run = run_sdasfq(dual(p0), cfg)
        assert primal.iterations == dual_run.iterations == 6
        for rp, rd in zip(primal.history, dual_run.history):
            for got, want in ((rd.pencil.X, rp.pencil.Y), (rd.pencil.Y, rp.pencil.X),
                              (rd.pencil.E, rp.pencil.F), (rd.pencil.F, rp.pencil.E)):
                assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


class TestBaselines:
    def test_sf1_matches_unguarded_qda_with_identity_qs(self, rng):
        from qdoubling import Permutation, SfqPencil
        p0 = SfqPencil(m=5, n=5,
                       E=complex_normal(rng, 5, 5, 0.4), F=complex_normal(rng, 5, 5, 0.4),
                       X=complex_normal(rng, 5, 5, 0.3), Y=complex_normal(rng, 5, 5, 0.3),
                       Q1=Permutation.identity(10), Q2=Permutation.identity(10))
        cfg = QdaConfig(max_iter=5, rtol=1e-300, tau=NO_GUARD)
        qda = run_sdasfq(p0, cfg)
        sf1 = run_sdasf1(p0.E, p0.F, p0.X, p0.Y, cfg)
        for rq, rs in zip(qda.history, sf1.history):
            for blk in "EFXY":
                a = getattr(rq.pencil, blk)
                b = getattr(rs.pencil, blk)
                assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(a))

    def test_sdasf1_init_peak_memory(self):
        # the gathered system and its LU (2 arrays of the pencil's size); the
        # gathers and the singularity test go a block of rows at a time, and the
        # solution takes the storage of the right-hand side, which a copying
        # solve would hold beside it (3)
        g = cayley(gen_random_split(120, 130, 8.0, 1e-2, seed=1).pencil, CayleyParams(-1.0))
        gc.collect()
        tracemalloc.start()
        try:
            sdasf1_init(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * 16 * g.size ** 2

    def test_sf1_zero_xy_diagonal_converges(self):
        e = np.diag([0.5, 0.3]).astype(complex)
        f = np.diag([0.4, 0.2]).astype(complex)
        z = np.zeros((2, 2), dtype=complex)
        res = run_sdasf1(e, f, z, z, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        np.testing.assert_array_equal(res.final.X, z)

    def test_sf1_breakdown_is_never_recovered(self, monkeypatch):
        # X = Y = I makes I - XY singular at the first step; a baseline must
        # stop there, without the re-reduction or kernel switch QDA tries
        import qdoubling.driver

        def no_reinit(*args, **kwargs):
            raise AssertionError("a baseline run called reinit")

        monkeypatch.setattr(qdoubling.driver, "reinit", no_reinit)
        e = np.diag([0.5, 0.3]).astype(complex)
        res = run_sdasf1(e, e, np.eye(2), np.eye(2), QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.history == ()
        assert res.message.startswith("iteration 1: breakdown in doubling step (W solve)")

    def test_sf1_records_the_w_telemetry(self):
        # the baseline steps through the W-rule, so its records carry W's
        # condition estimate and smallest pivot
        e = np.diag([0.5, 0.3]).astype(complex)
        f = np.diag([0.4, 0.2]).astype(complex)
        x = np.array([[0.1, 0.2], [0.0, 0.3]], dtype=complex)
        res = run_sdasf1(e, f, x, x.T.copy(), QdaConfig())
        assert res.status is RunStatus.CONVERGED
        for rec in res.history:
            assert rec.kernel is Kernel.W
            assert math.isfinite(rec.w_condition) and rec.w_condition >= 1.0
            assert math.isfinite(rec.w_min_pivot) and rec.w_min_pivot > 0.0

    def test_classical_loop_asks_for_the_selected_kernel(self):
        # without tau there is no recovery, so no kernel switch either
        p0 = gen_solved_sfq(m=3, n=4, rho_m=0.5, rho_n=0.5, seed=2).pencil
        seen = []

        def advance(p, kernel):
            seen.append(kernel)
            return step(p, kernel)

        qdoubling.driver._iterate([p0], QdaConfig(max_iter=3, rtol=1e-300), advance, None, p0)
        assert seen == [select_kernel(3, 4)] * 3

    @pytest.mark.parametrize("runner, label, cols", [(run_sdasf1_on, "SF1", slice(None, 3)),
                                                     (run_sdasf2_on, "SF2", slice(3, None))],
                             ids=["sf1", "sf2"])
    def test_singular_closed_form_start_is_a_breakdown(self, rng, runner, label, cols):
        # the closed-form start solves with B's first m columns (SF1) or its
        # last m (SF2); zeroing them makes that system singular
        a, b = complex_normal(rng, 6, 6), complex_normal(rng, 6, 6)
        b[:, cols] = 0.0
        res = runner(GeneralPencil(A=a, B=b, m=3, n=3), QdaConfig())
        assert res.status is RunStatus.BREAKDOWN
        assert res.iterations == 0 and res.final is None
        assert res.message.startswith(f"{label} initialization: singular matrix: ")
        # a bare "initialization" would read as a failed reduction of QDA
        assert not res.message.startswith("initialization")

    def test_sf1_blowup_reported_not_raised(self):
        inst = gen_random_split(m=10, n=12, alpha=8.0, eta=1e-7, seed=1)
        g = cayley(inst.pencil, CayleyParams(-1.0))
        res = run_sdasf1_on(g, QdaConfig())
        blew_up = res.status is RunStatus.BREAKDOWN
        huge = res.final is not None and np.linalg.norm(res.final.X) >= 1e4
        assert blew_up or huge

    def test_sf2_on_a_problem_requires_a_square_split(self, rng):
        g = GeneralPencil(A=complex_normal(rng, 5, 5), B=np.eye(5), m=2, n=3)
        with pytest.raises(ValueError, match="m = n"):
            run_sdasf2_on(g, QdaConfig())

    def test_sf2_blocks_require_a_square_split(self, rng):
        e, x, y = complex_normal(rng, 2, 2), np.zeros((2, 2)), np.zeros((2, 2))
        with pytest.raises(ValueError, match="^F has shape"):
            run_sdasf2(e, complex_normal(rng, 3, 3), x, y, QdaConfig())

    def test_sf2_runs_on_solved_instance(self):
        # SF2 on a pencil built with the block-swap Q2 converges to its solution
        inst = gen_solved_sfq(m=4, n=4, rho_m=0.5, rho_n=0.5, seed=5)
        from qdoubling import swap_perm, closed_form_init, Permutation
        a0, b0 = assemble(inst.pencil)
        g = GeneralPencil(A=a0, B=b0, m=4, n=4)
        p0 = closed_form_init(g, Permutation.identity(8), swap_perm(4, 4))
        res = run_sdasf2(p0.E, p0.F, p0.X, p0.Y, QdaConfig(rtol=1e-12))
        assert res.status is RunStatus.CONVERGED
        # the recovered basis spans the prescribed stable subspace
        from qdoubling import thin_qr
        z_run = sfq_basis(res.final)
        z_true = np.vstack([np.eye(4), inst.phi])[inst.pencil.Q1.inverse().image, :]
        u1, _ = thin_qr(z_run)
        u2, _ = thin_qr(z_true)
        assert np.linalg.norm(u2 - u1 @ (u1.conj().T @ u2)) <= 1e-8

    @staticmethod
    def recorded_references(monkeypatch):
        """The pencils the driver hands the residual safeguard, in call order."""
        seen = []
        residual_ = qdoubling.driver.orthonormal_residual

        def recording(reference, z):
            seen.append(reference)
            return residual_(reference, z)

        monkeypatch.setattr(qdoubling.driver, "orthonormal_residual", recording)
        return seen

    @pytest.mark.parametrize("runner", [run_sdasf1_on, run_sdasf2_on], ids=["sf1", "sf2"])
    def test_a_problem_is_the_safeguard_reference(self, monkeypatch, runner):
        seen = self.recorded_references(monkeypatch)
        problem = CayleyPair(gen_random_split(6, 6, 8.0, 1e-2, seed=3).pencil, -1.0)
        res = runner(problem, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        assert seen and all(ref is problem for ref in seen)

    def test_block_arguments_keep_their_start_as_the_reference(self, monkeypatch):
        seen = self.recorded_references(monkeypatch)
        p0 = sdasf1_init(cayley(gen_random_split(6, 6, 8.0, 1e-2, seed=3).pencil,
                                CayleyParams(-1.0)))
        res = run_sdasf1(p0.E, p0.F, p0.X, p0.Y, QdaConfig())
        assert res.status is RunStatus.CONVERGED
        assert seen and all(pencil_bytes(ref) == pencil_bytes(p0) for ref in seen)

    @pytest.mark.parametrize("runner, init_name, step_name", [
        (run_sdasf1_on, "sdasf1_init", "step_sf1"),
        (run_sdasf2_on, "sdasf2_init", "step_w"),
    ], ids=["sf1", "sf2"])
    def test_start_from_a_problem_is_released_by_the_second_step(
            self, monkeypatch, runner, init_name, step_name):
        # weakrefs to the closed-form start and its four blocks, read as each
        # step begins; with the cyclic collector off only references keep them
        init_ = getattr(qdoubling.driver, init_name)
        step_ = getattr(qdoubling.driver, step_name)
        refs, alive = [], []

        def tracked_init(g):
            p = init_(g)
            refs.extend(weakref.ref(obj) for obj in (p, p.E, p.F, p.X, p.Y))
            return p

        def watched_step(*blocks):
            alive.append([ref() is not None for ref in refs])
            return step_(*blocks)

        monkeypatch.setattr(qdoubling.driver, init_name, tracked_init)
        monkeypatch.setattr(qdoubling.driver, step_name, watched_step)
        problem = CayleyPair(gen_random_split(6, 6, 8.0, 1e-2, seed=3).pencil, -1.0)
        gc.disable()
        try:
            res = runner(problem, QdaConfig())
        finally:
            gc.enable()
        assert res.status is RunStatus.CONVERGED and res.iterations >= 2
        assert alive[0] == [True] * 5
        assert alive[1] == [False] * 5

    def test_memory_in_use_at_the_second_step_holds_no_start(self, monkeypatch):
        # traced bytes in use as each step begins: one pencil (16 N^2 bytes)
        # at the first step, and at the second the history's record of the
        # live pencil, the same object; a start kept for the safeguard would
        # add one more pencil
        used = []
        step_ = qdoubling.driver.step_sf1

        def watched_step(*blocks):
            used.append(tracemalloc.get_traced_memory()[0])
            return step_(*blocks)

        monkeypatch.setattr(qdoubling.driver, "step_sf1", watched_step)
        g = gen_random_split(60, 70, 8.0, 1e-2, seed=3).pencil
        gc.collect()
        tracemalloc.start()
        try:
            res = run_sdasf1_on(CayleyPair(g, -1.0), QdaConfig())
        finally:
            tracemalloc.stop()
        assert res.iterations >= 2
        assert used[1] - used[0] <= 0.25 * 16 * g.size ** 2

