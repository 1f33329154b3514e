"""Permutation-augmented structure-preserving doubling for matrix pencils."""

from .doubling import (
    Kernel,
    StepOutcome,
    compute_w,
    compute_wt,
    step,
    step_sf1,
    step_w,
    step_wt,
)
from .driver import (
    IterationRecord,
    QdaConfig,
    QdaResult,
    RunStatus,
    StopMode,
    check_stop,
    run_qda,
    run_sdasf1,
    run_sdasf1_on,
    run_sdasf2,
    run_sdasf2_on,
    run_sdasfq,
    sdasf1_init,
    sdasf2_init,
    select_kernel,
)
from .eig import (
    CayleyParams,
    EigenspaceBases,
    bases_from_result,
    cayley,
    nres1,
    nres2,
    solve_halfplane,
)
from .guard import (
    GuardAction,
    GuardReport,
    ZeroPivotError,
    action_x,
    action_y,
    default_tau,
    find_violation,
    guard,
)
from .linalg import (
    LUFactors,
    Permutation,
    RankDeficientError,
    SingularMatrixError,
    lu_factor,
    lu_solve,
    thin_qr,
    two_est,
)
from .problems import (
    CriticalSpec,
    JordanOverflowError,
    ProblemInstance,
    SolvedSfqInstance,
    gen_bse_like,
    gen_critical,
    gen_random_split,
    gen_solved_sfq,
    jordan_power,
)
from .reduction import (
    Idea,
    InitReport,
    Variant,
    closed_form_init,
    reduce_pencil,
    reduce_with_fallback,
    reinit,
)
from .sfq import (
    BreakdownError,
    CayleyPair,
    GeneralPencil,
    SfqPencil,
    anti_basis,
    dual,
    dual_nme_residual,
    orthonormal_residual,
    primal_nme_residual,
    q_blocks_of,
    sfq_basis,
    swap_perm,
)

__version__ = "0.1.0"
