"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE k: PASS/FAIL`` line (run with ``-s`` to see
the lines as they go; they are also embedded in assertion messages).
"""

import numpy as np

from qdoubling import (
    CayleyParams,
    CriticalSpec,
    Permutation,
    QdaConfig,
    RunStatus,
    SfqPencil,
    StopMode,
    action_x,
    action_y,
    cayley,
    closed_form_init,
    default_tau,
    dual,
    gen_bse_like,
    gen_critical,
    gen_random_split,
    gen_solved_sfq,
    jordan_power,
    nres1,
    nres2,
    reduce_pencil,
    reduce_with_fallback,
    run_qda,
    run_sdasf1_on,
    run_sdasfq,
    sfq_basis,
    step_w,
    step_wt,
    swap_perm,
)
from qdoubling.linalg import lu_factor, lu_solve
from qdoubling.problems import jordan_block
from qdoubling.reduction import Idea, Variant

import doubling_reference as ref
from conftest import NO_GUARD, random_sfq
from ground_truth import cayley_map, known_eigenpairs, primal_eig_residual

EPS = float(np.finfo(np.float64).eps)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rel_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    return np.linalg.norm(a - b) <= tol * scale


def test_01_kernel_equivalence():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        p = random_sfq(rng, m, n, scale=1.0)
        from qdoubling import compute_w, compute_wt, q_blocks_of
        try:
            cw = lu_factor(compute_w(p, q_blocks_of(p))).condition_estimate
            cwt = lu_factor(compute_wt(p, q_blocks_of(dual(p)))).condition_estimate
        except Exception:
            continue
        if max(cw, cwt) > 1e6:
            continue
        a = step_w(p).next
        b = step_wt(p).next
        for blk in "EFXY":
            x, y = getattr(a, blk), getattr(b, blk)
            scale = max(np.linalg.norm(x), 1.0)
            worst = max(worst, np.linalg.norm(x - y) / scale)
        checked += 1
    report(1, "kernel equivalence", worst <= 1e-10,
           f"200 pencils, worst relative disagreement {worst:.2e} <= 1e-10")


def test_02_specialization():
    # the W-rule against the classical SDASF1/SDASF2 formulas of
    # doubling_reference; states scaled so block norms stay ~0.4 regardless
    # of size: the two derivations are compared at the 1e-13 level, which
    # requires the shared solves to remain well conditioned through all
    # five iterates
    rng = np.random.default_rng(202)
    worst_sf1 = 0.0
    worst_sf2 = 0.0
    for case in range(100):
        m = int(rng.integers(1, 6))
        scale = 0.3 / m
        # SF1: identity permutations
        p = random_sfq(rng, m, m, scale=scale, random_q=False)
        e, f, x, y = p.E, p.F, p.X, p.Y
        q = p
        for _ in range(5):
            q = step_w(q).next
            e, f, x, y = ref.step_sf1(e, f, x, y)
            for got, want in ((q.E, e), (q.F, f), (q.X, x), (q.Y, y)):
                norm = max(np.linalg.norm(want), 1.0)
                worst_sf1 = max(worst_sf1, np.linalg.norm(got - want) / norm)
        # SF2: block-swap product, with X - Y kept away from singularity
        base = random_sfq(rng, m, m, scale=scale, random_q=False)
        p2 = SfqPencil(m=m, n=m, E=base.E, F=base.F,
                       X=base.X + np.eye(m), Y=base.Y - np.eye(m),
                       Q1=Permutation.identity(2 * m), Q2=swap_perm(m, m))
        e, f, x, y = p2.E, p2.F, p2.X, p2.Y
        q2 = p2
        for _ in range(5):
            q2 = step_w(q2).next
            e, f, x, y = ref.step_sf2(e, f, x, y)
            for got, want in ((q2.E, e), (q2.F, f), (q2.X, x), (q2.Y, y)):
                norm = max(np.linalg.norm(want), 1.0)
                worst_sf2 = max(worst_sf2, np.linalg.norm(got - want) / norm)
    ok = worst_sf1 <= 1e-13 and worst_sf2 <= 1e-13
    report(2, "SF1/SF2 specialization", ok,
           f"100 states x 5 iterates, worst SF1 {worst_sf1:.2e}, SF2 {worst_sf2:.2e} <= 1e-13")


def _true_phi_and_m(inst, q1, mpow):
    z = inst.true_basis_stable
    m = inst.pencil.m
    qz = z[q1.image, :]
    z1 = qz[:m]
    phi = np.linalg.solve(z1.T, qz[m:].T).T
    return phi, z1 @ mpow @ np.linalg.inv(z1)


def test_03_doubling_invariant():
    gamma = -1.0
    worst = 0.0
    for seed in range(1, 6):
        inst = gen_random_split(m=20, n=25, alpha=8.0, eta=1.0, seed=seed)
        g = cayley(inst.pencil, CayleyParams(gamma))
        res = run_qda(g, QdaConfig())
        eye = np.eye(20, dtype=complex)
        mprime = lu_solve(inst.true_m + gamma * eye, inst.true_m - gamma * eye)
        start = reduce_with_fallback(g).pencil
        pencils = [(0, start)] + [(r.index, r.pencil) for r in res.history]
        mpow = mprime
        at = 0
        for i, p in pencils:
            if i > 6:
                break
            while at < i:
                mpow = mpow @ mpow
                at += 1
            phi, mfull = _true_phi_and_m(inst, p.Q1, mpow)
            worst = max(worst, primal_eig_residual(p, phi, mfull))
    report(3, "doubling invariant", worst <= 1e-8,
           f"5 seeds, i <= 6, worst residual {worst:.2e} <= 1e-8")


def test_04_regular_rate():
    failures = []
    details = []
    for seed in range(1, 6):
        inst = gen_solved_sfq(m=6, n=7, rho_m=0.6, rho_n=0.7, seed=seed)
        prod = inst.rho_m * inst.rho_n
        assert prod <= 0.5  # construction-known product
        res = run_sdasfq(inst.pencil, QdaConfig(rtol=1e-12, stop_mode=StopMode.KAHAN))
        if res.status is not RunStatus.CONVERGED or res.iterations > 10:
            failures.append(f"seed {seed}: {res.status.value} in {res.iterations}")
            continue
        errs = [float(np.linalg.norm(r.pencil.X - inst.phi)) for r in res.history]
        floor = 1e3 * EPS * max(1.0, float(np.linalg.norm(inst.phi)))
        above = [i for i, e in enumerate(errs) if e >= floor]
        istar = max(above) + 1  # 1-based doubling index
        rec = res.history[istar - 1]
        root = 1.0 / 2 ** istar
        rate_x = errs[istar - 1] ** root
        rate_e = rec.norm_e ** root
        rate_f = rec.norm_f ** root
        details.append(f"{rate_x:.2f}/{rate_e:.2f}/{rate_f:.2f}@i{istar}")
        if not (rate_x <= prod + 0.05 and rate_e <= inst.rho_m + 0.05
                and rate_f <= inst.rho_n + 0.05):
            failures.append(f"seed {seed}: rates {rate_x:.3f},{rate_e:.3f},{rate_f:.3f}")
    report(4, "regular-case rates", not failures,
           f"bounds {0.6*0.7+0.05:.2f}/{0.65:.2f}/{0.75:.2f}; measured " + " ".join(details)
           + ("; " + "; ".join(failures) if failures else ""))


def test_05_duality():
    rng = np.random.default_rng(505)
    worst = 0.0
    shapes = [(3, 5), (4, 4), (2, 6), (5, 3), (4, 5)]
    cfg = QdaConfig(max_iter=6, rtol=1e-300, tau=NO_GUARD)
    for m, n in shapes:
        p0 = random_sfq(rng, m, n, scale=0.35)
        primal = run_sdasfq(p0, cfg)
        dual_run = run_sdasfq(dual(p0), cfg)
        assert primal.iterations == dual_run.iterations == 6
        for rp, rd in zip(primal.history, dual_run.history):
            for got, want in ((rd.pencil.X, rp.pencil.Y), (rd.pencil.Y, rp.pencil.X),
                              (rd.pencil.E, rp.pencil.F), (rd.pencil.F, rp.pencil.E)):
                scale = max(np.linalg.norm(want), 1.0)
                worst = max(worst, np.linalg.norm(got - want) / scale)
    report(5, "duality of iterates", worst <= 1e-12,
           f"5 instances x 6 iterates, worst relative mismatch {worst:.2e} <= 1e-12")


def test_06_reciprocal_eigenpairs():
    gamma = -1.0
    checked = 0
    worst = 0.0
    for seed in (61, 62):
        inst = gen_random_split(m=5, n=5, alpha=8.0, eta=1.0, seed=seed)
        g = cayley(inst.pencil, CayleyParams(gamma))
        ident = Permutation.identity(10)
        p0 = closed_form_init(g, ident, ident)
        a0d, b0d = ref.assemble(dual(p0))
        pit = ref.perm_matrix(swap_perm(5, 5)).T
        for lam, z in known_eigenpairs(inst, count=10):
            mu = cayley_map(lam, gamma)
            assert 0.1 <= abs(mu) <= 10.0
            zd = (pit @ z).reshape(-1, 1)
            num = np.linalg.norm(a0d @ zd - (1.0 / mu) * (b0d @ zd))
            den = (np.linalg.norm(a0d) + abs(1.0 / mu) * np.linalg.norm(b0d)) * np.linalg.norm(z)
            worst = max(worst, num / den)
            checked += 1
    report(6, "reciprocal eigenpairs", checked >= 20 and worst <= 1e-10,
           f"{checked} eigenpairs, worst normalized residual {worst:.2e} <= 1e-10")


def test_07_critical_case():
    spec = CriticalSpec(m_prime=3, n_prime=3, blocks=((2, 1.0 + 0j),),
                        rho_stable=0.3, rho_anti=0.3)
    inst = gen_critical(spec, seed=2)
    res = run_qda(inst.pencil, QdaConfig())
    m = inst.pencil.m
    z = inst.true_basis_stable
    errs = []
    for rec in res.history:
        qz = z[rec.pencil.Q1.image, :]
        phi = np.linalg.solve(qz[:m].T, qz[m:].T).T
        errs.append(float(np.linalg.norm(rec.pencil.X - phi)))
    # asymptotic window: indices >= 4 until stagnation at the roundoff floor
    floor = 10.0 * min(errs)
    window = [i for i, e in enumerate(errs, start=1) if i >= 4 and e >= floor]
    ratios = [errs[i] / errs[i - 1] for i in window if i < len(errs) and (i + 1) in window]
    in_band = [0.35 <= r <= 0.65 for r in ratios]
    pivot_first = res.history[0].w_min_pivot
    pivot_last = res.history[-1].w_min_pivot
    pivot_drop = pivot_first / pivot_last
    ok = len(ratios) >= 3 and all(in_band) and pivot_drop >= 10.0
    report(7, "critical case", ok,
           f"{len(ratios)} window ratios in [{min(ratios):.3f}, {max(ratios):.3f}] "
           f"subset of [0.35, 0.65]; W min-pivot fell {pivot_drop:.1e}x >= 10x")


def _planted(rng, which):
    m = int(rng.integers(1, 11))
    n = int(rng.integers(1, 11))
    tau = default_tau(m, n)
    p = random_sfq(rng, m, n, scale=0.5)
    block = getattr(p, which).copy()
    r = int(rng.integers(block.shape[0]))
    c = int(rng.integers(block.shape[1]))
    block[r, c] = 10.0 * tau * np.exp(2j * np.pi * rng.random())
    blocks = {b: getattr(p, b) for b in "EFXY"}
    blocks[which] = block
    return SfqPencil(m=m, n=n, Q1=p.Q1, Q2=p.Q2, **blocks), r, c, tau


def test_08_action_bound_suites():
    rng = np.random.default_rng(808)
    slack = 1e-12
    violations = 0
    for case in range(500):
        which = "X" if case % 2 == 0 else "Y"
        p, j, ell, tau = _planted(rng, which)
        if which == "X":
            q = action_x(p, j, ell)
            before, after, other_before, other_after = p.X, q.X, p.Y, q.Y
            coupling = np.outer(np.abs(p.E[:, ell]), np.abs(p.F[j, :]))
        else:
            q = action_y(p, j, ell)
            before, after, other_before, other_after = p.Y, q.Y, p.X, q.X
            coupling = np.outer(np.abs(p.F[:, ell]), np.abs(p.E[j, :]))
        rows, cols = before.shape
        for i in range(rows):
            for k in range(cols):
                mag = abs(after[i, k])
                if i == j and k == ell:
                    bound = 1.0 / tau
                elif i == j or k == ell:
                    bound = 1.0
                else:
                    bound = 2.0 * abs(before[i, k])
                if mag > bound + slack:
                    violations += 1
        if (np.abs(other_after) > np.abs(other_before) + coupling / tau + slack).any():
            violations += 1
    report(8, "swap-action bounds", violations == 0,
           f"500 planted cases, {violations} entrywise bound violations")


def test_09_eta_sweep_robustness():
    gamma = -1.0
    cfg = QdaConfig()
    qda_fail = []
    sf1_escape = []
    for eta in (1e-4, 1e-5, 1e-6, 1e-7):
        for seed in (1, 2, 3):
            inst = gen_random_split(m=50, n=60, alpha=8.0, eta=eta, seed=seed)
            g = cayley(inst.pencil, CayleyParams(gamma))
            res = run_qda(g, cfg)
            ok = (res.status is RunStatus.CONVERGED and res.iterations <= 12
                  and np.abs(res.final.X).max() <= default_tau(50, 60)
                  and nres2(inst.pencil.A, sfq_basis(res.final)) <= 1e-8)
            if not ok:
                qda_fail.append(f"eta={eta:.0e} seed={seed}")
            if eta in (1e-6, 1e-7):
                sres = run_sdasf1_on(g, cfg)
                failed = sres.status is RunStatus.BREAKDOWN
                if not failed and sres.final is not None:
                    failed = float(np.linalg.norm(sres.final.X)) >= 1e4
                    if not failed:
                        try:
                            failed = nres2(inst.pencil.A, sfq_basis(sres.final)) >= 1e-7
                        except Exception:
                            failed = True
                if not failed:
                    sf1_escape.append(f"eta={eta:.0e} seed={seed}")
    ok = not qda_fail and not sf1_escape
    report(9, "eta-sweep robustness", ok,
           "QDA converged with NRes2<=1e-8 on all 12 runs; SDASF1 failed on all "
           "6 stressed runs" if ok else f"QDA fails: {qda_fail}; SDASF1 escapes: {sf1_escape}")


def test_10_bse_analogue():
    gamma = CayleyParams(-1.0)
    cfg = QdaConfig()
    qda_fail = []
    for seed in (1, 2, 3):
        inst = gen_bse_like(64, 2.0, seed)
        g = cayley(inst.pencil, gamma)
        res = run_qda(g, cfg)
        if res.status is not RunStatus.CONVERGED or res.iterations > 10:
            qda_fail.append(f"seed={seed}: {res.status.value} in {res.iterations}")
            continue
        basis = sfq_basis(res.final)
        r1 = nres1(inst.pencil.A, basis, x_norm=float(np.linalg.norm(res.final.X)))
        r2 = nres2(inst.pencil.A, basis)
        if r1 > 1e-12 or r2 > 1e-12:
            qda_fail.append(f"seed={seed}: NRes1={r1:.1e} NRes2={r2:.1e}")
    signature = []
    for seed in (1, 2, 3):
        inst = gen_bse_like(64, 2.0, seed, coupling_scale=1e-3)
        g = cayley(inst.pencil, gamma)
        sres = run_sdasf1_on(g, cfg)
        if sres.final is None:
            continue
        try:
            basis = sfq_basis(sres.final)
            r1 = nres1(inst.pencil.A, basis, x_norm=float(np.linalg.norm(sres.final.X)))
            r2 = nres2(inst.pencil.A, basis)
        except Exception:
            continue
        if r2 >= 1e3 * r1:
            signature.append(f"seed={seed}: NRes2/NRes1={r2 / r1:.1e}")
    ok = not qda_fail and bool(signature)
    report(10, "Hamiltonian-structured analogue", ok,
           f"QDA NRes<=1e-12 within 10 iterations on 3 seeds; poor-basis signature: "
           f"{signature if signature else 'absent'}"
           + (f"; QDA fails: {qda_fail}" if qda_fail else ""))


def test_11_jordan_power():
    worst = 0.0
    for omega in (1.0, 1j, np.exp(1j * np.pi / 3)):
        for p in range(1, 7):
            for i in range(6):
                expected = jordan_block(p, omega)
                for _ in range(i):
                    expected = expected @ expected
                got = jordan_power(p, omega, i)
                scale = max(np.linalg.norm(expected), 1.0)
                worst = max(worst, np.linalg.norm(got - expected) / scale)
    report(11, "Jordan-block powers", worst <= 1e-12,
           f"p<=6, i<=5, 3 unimodular omegas, worst relative error {worst:.2e}")


def test_12_initialization_invariance():
    gamma = -1.0
    worst = 0.0
    structure_ok = True
    for idea in (Idea.IDEA1, Idea.IDEA2, Idea.IDEA3):
        for variant in (Variant.A_FIRST, Variant.B_FIRST):
            for seed in range(1, 11):
                inst = gen_random_split(m=4, n=5, alpha=8.0, eta=1.0, seed=seed)
                g = cayley(inst.pencil, CayleyParams(gamma))
                rep = reduce_pencil(g, idea, variant)
                p = rep.pencil
                a0, b0 = ref.assemble(p)
                sa = a0[:, p.Q1.image]
                sb = b0[:, p.Q2.image]
                structure_ok &= (
                    np.array_equal(sa[:4, 4:], np.zeros((4, 5)))
                    and np.array_equal(sa[4:, 4:], np.eye(5))
                    and np.array_equal(sb[:4, :4], np.eye(4))
                    and np.array_equal(sb[4:, :4], np.zeros((5, 4))))
                for lam, z in known_eigenpairs(inst, count=6):
                    mu = cayley_map(lam, gamma)
                    num = np.linalg.norm(a0 @ z - mu * (b0 @ z))
                    den = (np.linalg.norm(a0) + abs(mu) * np.linalg.norm(b0)) * np.linalg.norm(z)
                    worst = max(worst, num / den)
    ok = worst <= 1e-9 and structure_ok
    report(12, "initialization invariance", ok,
           f"6 reductions x 10 seeds, worst eigenpair residual {worst:.2e} <= 1e-9, "
           f"exact SFQ structure {'held' if structure_ok else 'violated'}")
