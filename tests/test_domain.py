"""Inputs outside the mathematical domain raise DomainError before any
arithmetic: tolerances, parameters and evaluation points."""

import math

import numpy as np
import pytest

from qgalois import (
    DomainError,
    HyperParams,
    QContext,
    connection_eval,
    core_closed_form,
    core_numeric,
    decompose,
    det_formula,
    e_matrix,
    fmatrix_at,
    gauge_residual,
    in_q_spiral,
    log_q,
    lq,
    minor_formula,
    qcharacter,
    qhyper_series,
    qpochhammer_infinite,
    system_matrix,
    twisted_birkhoff,
)
from qgalois.connection import check_det_minors, local_pair

BAD_TOLERANCES = [math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0]


@pytest.mark.parametrize("eps", BAD_TOLERANCES)
@pytest.mark.parametrize("name", ["eps_trunc", "eps_spiral"])
def test_context_rejects_tolerance_outside_unit_interval(name, eps):
    with pytest.raises(DomainError, match=r"finite and in \(0, 1\)"):
        QContext(0.5, **{name: eps})


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.3, math.nan), complex(math.inf, 1.0), 0.0])
@pytest.mark.parametrize("slot", ["a", "b2", "b3"])
def test_params_reject_nonfinite_and_zero(slot, bad):
    fields = {"a": (0.3, 0.4, 0.6), "b2": 0.35, "b3": 0.7}
    fields[slot] = (0.3, bad, 0.6) if slot == "a" else bad
    with pytest.raises(DomainError, match="parameters must be finite and nonzero"):
        HyperParams(**fields)


@pytest.fixture
def p(ctx):
    return HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33))


def _evaluations(p, ctx):
    loc0, locinf = local_pair(p, ctx)
    B = twisted_birkhoff(p, 0.7 + 0.2j, ctx)
    return {
        "connection_eval": lambda z: connection_eval(p, z, ctx),
        "core_numeric": lambda z: core_numeric(p, z, ctx),
        "core_closed_form": lambda z: core_closed_form(p, z, ctx),
        "twisted_birkhoff": lambda z: twisted_birkhoff(p, z, ctx),
        "twisted_birkhoff_batch": lambda z: twisted_birkhoff(p, np.array([0.7 + 0.2j, z]), ctx),
        "det_formula": lambda z: det_formula(p, z, ctx),
        "minor_formula": lambda z: minor_formula(p, (1, 2), (2, 3), z, ctx),
        "check_det_minors": lambda z: check_det_minors(p, B, z, ctx),
        "e_matrix_zero": lambda z: e_matrix(loc0, z, ctx),
        "e_matrix_infinity": lambda z: e_matrix(locinf, z, ctx),
        "fmatrix_at_infinity": lambda z: fmatrix_at(locinf, p, z, ctx),
    }


EVALUATIONS = [
    "connection_eval", "core_numeric", "core_closed_form", "twisted_birkhoff",
    "twisted_birkhoff_batch", "det_formula", "minor_formula", "check_det_minors",
    "e_matrix_zero", "e_matrix_infinity", "fmatrix_at_infinity",
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [0j, complex(math.nan, 0.0), complex(math.inf, 0.0)], ids=["0", "nan", "inf"])
@pytest.mark.parametrize("name", EVALUATIONS)
def test_evaluation_point_must_be_finite_and_nonzero(ctx, p, name, z):
    evaluate = _evaluations(p, ctx)[name]
    with pytest.raises(DomainError, match="evaluation points must be finite and nonzero"):
        evaluate(z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauge_matrix_at_zero_only_on_the_zero_side(ctx, p):
    # F at 0 is the constant term of its series (first row all ones); the
    # gauge matrix at infinity has no value there
    loc0, locinf = local_pair(p, ctx)
    assert np.array_equal(fmatrix_at(loc0, p, 0, ctx)[0], np.ones(3))
    assert gauge_residual(loc0, p, 0, ctx) < 1e-12
    with pytest.raises(DomainError):
        gauge_residual(locinf, p, 0, ctx)
    for z in (complex(math.nan, 0.0), complex(math.inf, 0.0)):
        with pytest.raises(DomainError):
            fmatrix_at(loc0, p, z, ctx)


NONFINITE = [math.inf, -math.inf, math.nan, complex(0.3, math.nan)]
NONFINITE_IDS = ["inf", "-inf", "nan", "nan-imag"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", NONFINITE, ids=NONFINITE_IDS)
def test_system_matrix_needs_a_finite_point(ctx, p, z):
    with pytest.raises(DomainError, match="finite point"):
        system_matrix(p, z, ctx)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_system_matrix_at_zero_is_defined(ctx, p):
    # A(0) is finite, with the exponents {1, q/b2, q/b3} at 0 as eigenvalues
    A0 = system_matrix(p, 0, ctx)
    assert np.isfinite(A0).all()
    expect = np.sort_complex(np.array([1.0, ctx.q / p.b2, ctx.q / p.b3], dtype=complex))
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(A0)) - expect)) < 1e-12


def qcharacter_lam(c, ctx):
    return qcharacter(c, 0.7 + 0.2j, ctx)


def qcharacter_z(c, ctx):
    return qcharacter(np.array([0.6 + 0.1j, 0.8]), c, ctx)


def qhyper_series_z(c, ctx):
    return qhyper_series((0.3, 0.2), (0.5, 0.4), c, ctx)


def qhyper_series_num(c, ctx):
    return qhyper_series((0.3, c), (0.5, 0.4), 0.5, ctx)


def qhyper_series_den(c, ctx):
    return qhyper_series((0.3, 0.2), (c, 0.4), 0.5, ctx)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", NONFINITE, ids=NONFINITE_IDS)
@pytest.mark.parametrize(
    "primitive",
    [
        qpochhammer_infinite, lq, log_q, decompose, in_q_spiral,
        qcharacter_lam, qcharacter_z, qhyper_series_z, qhyper_series_num, qhyper_series_den,
    ],
    ids=lambda f: f.__name__,
)
def test_primitives_reject_nonfinite_arguments(ctx, primitive, c):
    # neither a NaN, a finite value read off a NaN, a run to the term cap,
    # nor an untyped or misleading error
    with pytest.raises(DomainError, match="finite"):
        primitive(c, ctx)
