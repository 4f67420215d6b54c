"""Numerical toolkit for order-3 generalized q-hypergeometric equations.

Local fundamental solutions at 0 and infinity, Birkhoff and twisted connection
matrices with closed-form determinant/minor oracles, and descriptor-level
classification of the difference Galois group with its density-theorem
generators.
"""

from .context import QContext, TruncationReport
from .errors import (
    QGaloisError,
    DomainError,
    PoleError,
    NonConvergentError,
    DivergenceError,
    NotUnimodularError,
    BadIndexError,
    ResonantError,
    PoleChainError,
    ExtrapolationDivergedError,
    SpiralCollisionError,
    SingularSolutionError,
    BasePointSingularError,
)
from .spiral import (
    SpiralPoint,
    SpiralVerdict,
    decompose,
    in_q_spiral,
    log_q,
    g_endomorphism,
    gamma1,
    gamma2,
)
from .qseries import (
    qpochhammer_finite,
    qpochhammer_infinite,
    qpoch_inf_product,
    theta,
    theta_d1,
    theta_triple_product,
    qcharacter,
    lq,
    phi3_2,
    qhyper_series,
)
from .mat3 import (
    rho,
    psl2_relation_residual,
    psl2_eigenvalue_check,
    minor2,
)
from .hypersystem import (
    HyperParams,
    LocalData,
    SpiralPattern,
    system_matrix,
    spiral_pattern,
    local_solution_zero,
    local_solution_infinity,
    local_solution_zero_log,
    local_solution_infinity_log,
    e_matrix,
    fmatrix_at,
    solution_matrix,
    gauge_residual,
    ladder_order,
)
from .connection import (
    ConnectionEval,
    pochhammer_coefficient,
    core_closed_form,
    core_numeric,
    twisted_birkhoff,
    det_formula,
    minor_formula,
    connection_logarithmic,
    connection_eval,
)
from .galois import (
    IrreducibilityVerdict,
    GaloisReport,
    irreducibility,
    normalize_parameters,
    classify_case,
    base_point,
    omega_samples,
    fit_relation_residual,
    classify,
)
from .verify import CheckResult, run_suite, SUITES

__version__ = "0.1.0"
