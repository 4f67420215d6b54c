"""Birkhoff and twisted connection matrices: cross-method agreement,
ellipticity, determinant/minor closed forms, and the logarithmic limits."""

import cmath
import json
import math
import warnings

import numpy as np
import pytest

from qgalois import cli, connection, galois, hypersystem, qseries
from qgalois.connection import check_det_minors
from qgalois import (
    BadIndexError,
    HyperParams,
    QContext,
    QGaloisError,
    SpiralCollisionError,
    connection_eval,
    core_closed_form,
    core_numeric,
    det_formula,
    minor2,
    minor_formula,
    pochhammer_coefficient,
    qpochhammer_infinite,
    theta,
    twisted_birkhoff,
    decompose,
    log_q,
)


@pytest.fixture
def p(ctx):
    return HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))


def qpoch_inf_product(values, ctx):
    """Product of (v;q)_inf over values."""
    return math.prod(qpochhammer_infinite(v, ctx)[0] for v in values)


def _g(w, lam, ctx):
    """The twisting endomorphism g_w(lam) = w^omega for lam = u q^omega, as
    the scalar exp(omega log_q(w) log q)."""
    return cmath.exp(decompose(lam, ctx).omega * log_q(w, ctx) * ctx.log_q)


def _annulus(rng, ctx, n):
    radii = abs(ctx.q) ** rng.uniform(0.6, 0.9, n)
    angles = rng.uniform(0.1, 6.1, n)
    return [complex(r * cmath.exp(1j * t)) for r, t in zip(radii, angles)]


def test_pochhammer_coefficients_nonzero(ctx, p):
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert abs(pochhammer_coefficient(p, i, j, ctx)) > 1e-12


def test_cross_method_agreement(ctx, p, rng):
    for z in _annulus(rng, ctx, 6):
        ev = connection_eval(p, z, ctx, "both")
        assert ev.residual_cross < 1e-8


def test_birkhoff_is_elliptic(ctx, p, rng):
    for z in _annulus(rng, ctx, 4):
        P = connection_eval(p, z, ctx, "closed_form").P
        Pq = connection_eval(p, ctx.q * z, ctx, "closed_form").P
        assert np.max(np.abs(P - Pq)) < 1e-10 * np.max(np.abs(P))


def test_twisted_shift_cocycle(ctx, p, rng):
    # twisting trades ellipticity for a global weight cocycle: the row factor
    # a_i, the theta-core factor b_j/(q a_i), and the column factor 1/b_j
    # multiply to 1/q for every entry
    for z in _annulus(rng, ctx, 3):
        B = twisted_birkhoff(p, z, ctx)
        Bq = twisted_birkhoff(p, ctx.q * z, ctx)
        assert np.max(np.abs(Bq - B / ctx.q)) < 1e-9 * np.max(np.abs(B))


def test_determinant_closed_form(ctx, p, rng):
    for z in _annulus(rng, ctx, 5):
        B = twisted_birkhoff(p, z, ctx)
        f = det_formula(p, z, ctx)
        assert abs(np.linalg.det(B) - f) < 1e-8 * abs(f)


def test_determinant_zero_localization(ctx, p):
    z0 = p.b2 * p.b3 / (ctx.q ** 2 * p.a[0] * p.a[1] * p.a[2])
    near = abs(det_formula(p, z0 * (1 + 1e-9), ctx))
    far = abs(det_formula(p, z0 * 1.3, ctx))
    assert near < 1e-6 * far


def test_all_nine_minor_closed_forms(ctx, p, rng):
    for z in _annulus(rng, ctx, 3):
        B = twisted_birkhoff(p, z, ctx)
        for rows in ((1, 2), (1, 3), (2, 3)):
            for cols in ((1, 2), (1, 3), (2, 3)):
                m = minor2(B, rows, cols)
                f = minor_formula(p, rows, cols, z, ctx)
                assert abs(m - f) < 1e-8 * abs(f)


def test_genericity_guard(ctx):
    q, a, a3 = ctx.q, ctx.qpow(0.3), ctx.qpow(0.7)
    b2, b3 = ctx.qpow(0.15), ctx.qpow(0.55)
    cases = [
        (HyperParams(a=(a, ctx.qpow(1.3), a3), b2=ctx.qpow(0.2), b3=ctx.qpow(0.5)), "a1/a2"),
        (HyperParams(a=(a, a, a3), b2=b2, b3=b3), "a1/a2"),  # merged a-pair
        (HyperParams(a=(ctx.qpow(0.1), a, a3), b2=q, b3=b3), "b2"),  # b2 = q alone
    ]
    for bad, label in cases:
        for z in (0.7 + 0.1j, np.array([0.6 + 0.3j, 0.7 - 0.2j])):
            with pytest.raises(SpiralCollisionError, match=f"^{label} lies on"):
                twisted_birkhoff(bad, z, ctx)


def test_log_case_merged_b_column_display(ctx):
    # b = (q,q,q): first column of the twisted matrix keeps the generic shape
    # (1/z)^(-alpha_i) p_i1 theta(a_i z)/theta(z)
    pl = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q)
    z = 0.8 * cmath.exp(1.1j)
    B = twisted_birkhoff(pl, z, ctx)
    for i in (1, 2, 3):
        expect = (
            pochhammer_coefficient(pl, i, 1, ctx)
            * theta(pl.a[i - 1] * z, ctx)
            / theta(z, ctx)
            / _g(1.0 / z, pl.a[i - 1], ctx)
        )
        assert abs(B[i - 1, 0] - expect) < 1e-9 * abs(expect)


def _z_ring(rng, n=20):
    return np.array([complex(rng.normal(), rng.normal()) for _ in range(n)])


def test_twist_weight_of_q_is_inverse_z(ctx, p, rng):
    # column weight z^(-beta_1) = 1/g_z(b_1) with b_1 = q and g_z(q) = z
    z = _z_ring(rng)
    _, cols = connection._equation(p, ctx).weights(z)
    assert np.all(np.abs(cols[:, 0] - 1.0 / z) < 1e-12 / np.abs(z))


def test_twist_weight_ignores_unit_circle_factor(ctx, p):
    # g_z kills the unit circle: b2 and b2 e^(0.3i) have the same weight
    turned = HyperParams(a=p.a, b2=p.b2 * cmath.exp(0.3j), b3=p.b3)
    z = 0.7 + 0.2j
    _, cols = connection._equation(p, ctx).weights(z)
    _, turned_cols = connection._equation(turned, ctx).weights(z)
    assert abs(turned_cols[1] - cols[1]) < 1e-12 * abs(cols[1])


def test_twist_weight_multiplicative_in_parameter(ctx, rng):
    # g_z is an endomorphism: the weight of b3 = b2^2 is the square of b2's
    b2 = ctx.qpow(0.3)
    sq = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=b2, b3=b2 * b2)
    z = np.concatenate(([0.7 + 0.2j], _z_ring(rng)))
    _, cols = connection._equation(sq, ctx).weights(z)
    assert np.all(np.abs(cols[:, 2] - cols[:, 1] ** 2) < 1e-12 * np.abs(cols[:, 2]))


def test_log_case_merged_b_elliptic_core(ctx):
    pl = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q)
    z = 0.8 * cmath.exp(2.0j)
    P = connection_eval(pl, z, ctx, "numeric").P
    Pq = connection_eval(pl, ctx.q * z, ctx, "numeric").P
    assert np.max(np.abs(P - Pq)) < 1e-6 * np.max(np.abs(P))


def test_doubly_log_core_entries(ctx):
    # a = (a,a,a), b = (q,q,q): the (3,1) core entry is
    # theta(a)^2/(q;q)^6 * theta(a z)/theta(z), and at z = 1/a the (3,2) entry
    # reduces to the theta-derivative term with the same constant
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    qq = qpoch_inf_product([ctx.q], ctx)
    c = theta(a, ctx) ** 2 / qq ** 6
    z = 2.5 * cmath.exp(0.8j)
    core = core_numeric(pl, z, ctx)
    pred = c * theta(a * z, ctx) / theta(z, ctx)
    assert abs(core[2, 0] - pred) < 1e-5 * abs(pred)
    zq = 1.0 / a
    coreq = core_numeric(pl, zq, ctx)
    assert abs(coreq[2, 0]) < 1e-8
    # theta'(1) = -(q;q)_inf^3, from the factor (1 - z) of (z;q)_inf
    pred32 = c * -(qq ** 3) / theta(zq, ctx)
    assert abs(coreq[2, 1] - pred32) < 1e-5 * abs(pred32)


def test_doubly_log_untwisted_elliptic(ctx):
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    z = 0.8 * cmath.exp(2.4j)
    P = connection_eval(pl, z, ctx, "numeric").P
    Pq = connection_eval(pl, ctx.q * z, ctx, "numeric").P
    assert np.max(np.abs(P - Pq)) < 1e-6 * np.max(np.abs(P))


def test_connection_eval_single_method(ctx, p):
    ev = connection_eval(p, 0.75 + 0.2j, ctx, "closed_form")
    assert ev.residual_cross is None
    assert ev.P.shape == (3, 3) and ev.P_twisted.shape == (3, 3)


# --- per-equation constants ------------------------------------------------

_PAIRS = ((1, 2), (1, 3), (2, 3))


def _counting_qpoch(monkeypatch):
    """Count (x;q)_inf evaluations through every binding the package calls."""
    calls = []
    original = qseries.qpochhammer_infinite

    def counted(x, ctx):
        calls.append(x)
        return original(x, ctx)

    monkeypatch.setattr(qseries, "qpochhammer_infinite", counted)
    monkeypatch.setattr(connection, "qpochhammer_infinite", counted)
    return calls


def _reference_p(p, i, j, ctx):
    q, a, b = ctx.q, p.a, p.b(ctx)
    ic = [k for k in (1, 2, 3) if k != i]
    jc = [k for k in (1, 2, 3) if k != j]
    s = q / b[j - 1]
    num = [s * a[k - 1] for k in ic] + [b[k - 1] / a[i - 1] for k in jc]
    den = [s * b[k - 1] for k in jc] + [a[k - 1] / a[i - 1] for k in ic]
    return qpoch_inf_product(num, ctx) / qpoch_inf_product(den, ctx)


def _weights(p, z, ctx, rows, cols):
    w = 1.0
    for i in rows:
        w /= _g(1.0 / z, p.a[i - 1], ctx)
    for j in cols:
        w /= _g(z, p.b(ctx)[j - 1], ctx)
    return w


def _reference_det(p, z, ctx):
    q = ctx.q
    a1, a2, a3 = p.a
    b2, b3 = p.b2, p.b3
    pref = q * (1 - q / b2) * (1 - q / b3) * (1 / b2 - 1 / b3) / (
        (1 / a2 - 1 / a1) * (1 / a3 - 1 / a1) * (1 / a2 - 1 / a3)
    )
    w = _weights(p, z, ctx, (1, 2, 3), (1, 2, 3))
    return pref * w * theta(q * q * a1 * a2 * a3 * z / (b2 * b3), ctx) / theta(z, ctx)


def _reference_minor(p, rows, cols, z, ctx):
    q, a, b = ctx.q, p.a, p.b(ctx)
    (i1, i2), (j1, j2) = rows, cols
    i3 = 6 - i1 - i2
    j3 = 6 - j1 - j2

    def A(i):
        return a[i - 1]

    def B(j):
        return b[j - 1]

    num = qpoch_inf_product(
        [q / B(j1) * A(i3), B(j3) / A(i1), q / B(j2) * A(i3), B(j3) / A(i2)], ctx
    )
    den = 1.0
    for j, i in ((j1, i1), (j2, i2)):
        den *= qpoch_inf_product(
            [q / B(j) * B(k) for k in (1, 2, 3) if k != j]
            + [A(k) / A(i) for k in (1, 2, 3) if k != i],
            ctx,
        )
    pref = -q / qpoch_inf_product([q], ctx) ** 2 * A(i2) / B(j1)
    thetas = theta(A(i1) / A(i2), ctx) * theta(B(j1) / B(j2), ctx)
    quotient = theta(q * q * A(i1) * A(i2) * z / (B(j1) * B(j2)), ctx) / theta(z, ctx)
    return pref * num * thetas / den * _weights(p, z, ctx, rows, cols) * quotient


# eight points on both sides of the series radii, for the fixture p at q = 0.5
_EIGHT_POINTS = "0.7+0.2j,-0.6+0.3j,1.5+0.5j,-2+1j,0.3-0.8j,3+0.1j,-0.9-0.9j,0.2+0.6j"


def test_cli_connection_computes_each_pochhammer_once(monkeypatch, capsys):
    calls = _counting_qpoch(monkeypatch)
    rc = cli.main(["connection", "--q", "0.5", "--a", "q^0.13,q^0.37,q^0.71",
                   "--b", "q,q^0.29,q^0.58", "--z", _EIGHT_POINTS])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rc == 0
    assert len(rows) == 8 and not any("skipped" in r for r in rows)
    assert max(r["max_minor_mismatch"] for r in rows) < 1e-8
    assert 0 < len(calls) <= 31


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
def test_memoized_constants_match_plain_formulas(q):
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    for z in (0.7 + 0.2j, 0.6 * cmath.exp(2.3j)):  # second point reads the memo
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                ref = _reference_p(p, i, j, ctx)
                assert abs(pochhammer_coefficient(p, i, j, ctx) - ref) <= 1e-14 * abs(ref)
        ref = _reference_det(p, z, ctx)
        assert abs(det_formula(p, z, ctx) - ref) <= 1e-14 * abs(ref)
        for rows in _PAIRS:
            for cols in _PAIRS:
                ref = _reference_minor(p, rows, cols, z, ctx)
                assert abs(minor_formula(p, rows, cols, z, ctx) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
def test_reversed_pairs_negate_the_minor_exactly(q):
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    for z in (0.7 + 0.2j, np.array([0.7 + 0.2j, 0.6 * cmath.exp(2.3j)])):
        for rows in _PAIRS:
            for cols in _PAIRS:
                forward = minor_formula(p, rows, cols, z, ctx)
                assert np.array_equal(minor_formula(p, rows[::-1], cols, z, ctx), -forward)
                assert np.array_equal(minor_formula(p, rows, cols[::-1], z, ctx), -forward)
                assert np.array_equal(minor_formula(p, rows[::-1], cols[::-1], z, ctx), forward)


def test_closed_forms_near_unit_q_raise_or_are_finite(monkeypatch):
    # at q = 0.99 the (x;q)_inf of the minor denominators underflow to 0; that
    # must raise, never give an infinity or a NaN (RuntimeWarnings are ignored
    # so that a silent non-finite value shows as one)
    ctx, z = QContext(0.99), 0.7 + 0.2j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        p = HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33))  # the README's
        calls = _counting_qpoch(monkeypatch)
        det = det_formula(p, z, ctx)
        assert calls == [] and cmath.isfinite(det)
        B = connection_eval(p, z, ctx).P_twisted
        for evaluate in (
            lambda: list(vars(check_det_minors(p, B, z, ctx)).values()),
            lambda: [minor_formula(p, (1, 2), (1, 3), z, ctx)],
        ):
            try:
                values = evaluate()
            except (ZeroDivisionError, QGaloisError):
                continue
            assert all(cmath.isfinite(v) for v in values), values


def test_genericity_error_raised_on_every_call(ctx):
    bad = HyperParams(a=(ctx.qpow(0.3), ctx.qpow(1.3), ctx.qpow(0.7)), b2=ctx.qpow(0.2), b3=ctx.qpow(0.5))
    z = 0.7 + 0.1j
    for _ in range(2):
        with pytest.raises(SpiralCollisionError):
            core_closed_form(bad, z, ctx)
        with pytest.raises(SpiralCollisionError):
            det_formula(bad, z, ctx)
        with pytest.raises(SpiralCollisionError):
            minor_formula(bad, (1, 2), (1, 2), z, ctx)


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (1, 1), (0, 1)])
def test_minor_formula_and_minor2_reject_bad_index_pairs(ctx, p, bad):
    z = 0.7 + 0.1j
    B = twisted_birkhoff(p, z, ctx)
    for rows, cols in ((bad, (1, 2)), ((1, 2), bad)):
        with pytest.raises(BadIndexError):
            minor_formula(p, rows, cols, z, ctx)
        with pytest.raises(BadIndexError):
            minor2(B, rows, cols)


def test_constants_are_not_shared_between_equal_instances(monkeypatch, ctx, p):
    calls = _counting_qpoch(monkeypatch)
    z = 0.7 + 0.2j
    core_closed_form(p, z, ctx)
    first = len(calls)
    core_closed_form(p, z, ctx)
    assert len(calls) == first > 0
    twin = HyperParams(a=p.a, b2=p.b2, b3=p.b3)
    assert twin == p and hash(twin) == hash(p)
    core_closed_form(twin, z, ctx)
    assert len(calls) == 2 * first
    assert connection.local_pair(twin, ctx) is not connection.local_pair(p, ctx)


# --- theta calls per point ---------------------------------------------------


def _counting_theta(monkeypatch):
    """Count theta calls through every binding the package calls."""
    calls = []
    original = qseries.theta

    def counted(z, ctx):
        calls.append(z)
        return original(z, ctx)

    monkeypatch.setattr(qseries, "theta", counted)
    monkeypatch.setattr(connection, "theta", counted)
    return calls


def test_connection_eval_makes_three_theta_calls_per_point(monkeypatch, ctx, p):
    zs = _annulus(np.random.default_rng(7), ctx, 4)
    connection_eval(p, zs[0], ctx, "both")  # fills the per-equation memo
    calls = _counting_theta(monkeypatch)
    for z in zs:
        connection_eval(p, z, ctx, "both")
    # the closed-form core, and one q-character call per side
    assert len(calls) == 3 * len(zs)


def _counting_qcharacter(monkeypatch):
    """Count qcharacter calls through every binding the package calls."""
    calls = []
    original = qseries.qcharacter

    def counted(lam, z, ctx):
        calls.append(np.shape(z))
        return original(lam, z, ctx)

    monkeypatch.setattr(qseries, "qcharacter", counted)
    monkeypatch.setattr(hypersystem, "qcharacter", counted)
    return calls


def test_cli_connection_makes_one_batch_of_calls(monkeypatch, capsys, ctx, p):
    zs = [complex(s) for s in _EIGHT_POINTS.split(",")]
    assert cli.cmd_connection(ctx, "json", p, zs) == 0  # fills the per-equation memo
    capsys.readouterr()
    thetas, characters = _counting_theta(monkeypatch), _counting_qcharacter(monkeypatch)
    assert cli.cmd_connection(ctx, "json", p, zs) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 8 and not any("skipped" in r for r in rows)
    # one q-character call per side, the closed-form core and the det/minor
    # check, each over all eight points (one call per point each before)
    assert len(thetas) == 4
    assert characters == [(8, 1), (8, 1)]


def test_cli_connection_fresh_equation_makes_five_theta_calls(monkeypatch, capsys, ctx, p):
    zs = [complex(s) for s in _EIGHT_POINTS.split(",")]
    thetas = _counting_theta(monkeypatch)
    assert cli.cmd_connection(ctx, "json", p, zs) == 0
    capsys.readouterr()
    # the four of a warmed command, and the six thetas of the minor table
    assert len(thetas) == 5
    assert [np.shape(z) for z in thetas].count((6,)) == 1


def _batch_points(ctx):
    """Eight points, half of them inside the unit circle and half outside."""
    zs = _annulus(np.random.default_rng(11), ctx, 8)
    return np.array(zs[:4] + [z / ctx.q for z in zs[4:]])


def _rel(x, ref):
    return np.max(np.abs(np.asarray(x) - ref)) / max(np.max(np.abs(ref)), 1e-300)


@pytest.mark.parametrize("q", [0.5, 0.7, 0.5 * cmath.exp(0.5j)])
@pytest.mark.parametrize("method", ["both", "numeric", "closed_form"])
def test_connection_eval_batch_equals_its_points(q, method):
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    zs = _batch_points(ctx)
    batch = connection_eval(p, zs, ctx, method)
    assert batch.P.shape == batch.P_twisted.shape == (8, 3, 3)
    for k, z in enumerate(zs):
        one = connection_eval(p, complex(z), ctx, method)
        assert one.P.shape == one.P_twisted.shape == (3, 3)
        assert _rel(batch.P[k], one.P) <= 1e-14
        assert _rel(batch.P_twisted[k], one.P_twisted) <= 1e-14
        if method == "both":
            assert type(one.residual_cross) is float
            assert _rel(batch.residual_cross[k], one.residual_cross) <= 1e-14
        else:
            assert batch.residual_cross is one.residual_cross is None


@pytest.mark.parametrize("q", [0.5, 0.7, 0.5 * cmath.exp(0.5j)])
def test_check_det_minors_batch_equals_its_points(q):
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    zs = _batch_points(ctx)
    B = twisted_birkhoff(p, zs, ctx)
    batch = check_det_minors(p, B, zs, ctx)
    fields = ("det_numeric", "det_closed_form", "det_mismatch", "max_minor_mismatch")
    for name in fields:
        assert np.shape(getattr(batch, name)) == (8,)
    assert np.max(batch.max_minor_mismatch) < 1e-8
    for k, z in enumerate(zs):
        one = check_det_minors(p, B[k], complex(z), ctx)
        assert type(one.det_numeric) is type(one.det_closed_form) is complex
        assert type(one.det_mismatch) is type(one.max_minor_mismatch) is float
        for name in fields:
            assert _rel(getattr(batch, name)[k], getattr(one, name)) <= 1e-14


def test_twisted_birkhoff_logarithmic_makes_no_theta_call(monkeypatch, ctx):
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    zs = [0.8 * cmath.exp(1.1j), 1.3 * cmath.exp(-0.4j)]
    twisted_birkhoff(pl, zs[0], ctx)
    calls = _counting_theta(monkeypatch)
    for z in zs:
        twisted_birkhoff(pl, z, ctx)
    assert calls == []


# --- one twist for the generic and the logarithmic cases ----------------------


def _log_params(ctx, case):
    """Case (iii): distinct a, b = (q,q,q); case (iv): a = (a,a,a), b = (q,q,q)."""
    if case == "iii":
        return HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q)
    a = ctx.qpow(0.3)
    return HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
@pytest.mark.parametrize("case", ["iii", "iv"])
def test_connection_eval_twists_the_logarithmic_cases(q, case):
    ctx = QContext(q)
    pl = _log_params(ctx, case)
    z = 0.6 + 0.3j
    ev = connection_eval(pl, z, ctx, "numeric")
    assert np.array_equal(ev.P_twisted, twisted_birkhoff(pl, z, ctx))


@pytest.mark.parametrize("q", [0.5, 0.5 * cmath.exp(0.5j)])
@pytest.mark.parametrize("case", ["iii", "iv"])
def test_twisted_birkhoff_covers_the_logarithmic_cases(q, case):
    ctx = QContext(q)
    pl = _log_params(ctx, case)
    zs = np.array([0.6 + 0.3j, 0.8 * cmath.exp(2.0j), 1.3 * cmath.exp(-0.4j)])
    stacked = np.array([twisted_birkhoff(pl, complex(z), ctx) for z in zs])
    mats = twisted_birkhoff(pl, zs, ctx)
    assert mats.shape == (3, 3, 3)
    assert np.array_equal(mats, stacked)
    assert np.array_equal(twisted_birkhoff(pl, zs[1], ctx), stacked[1])


def test_twisted_birkhoff_makes_one_lq_call_per_batch(monkeypatch, ctx):
    pl = _log_params(ctx, "iv")
    points = [
        galois.base_point(pl, ctx),
        *galois.omega_samples(pl, ctx),
        *galois._relation_zero_points(pl, "iv", ctx),
    ]
    calls = []
    original = qseries.lq

    def counted(z, ctx):
        calls.append(np.shape(z))
        return original(z, ctx)

    for module in (qseries, hypersystem, connection):
        monkeypatch.setattr(module, "lq", counted)
    assert twisted_birkhoff(pl, points, ctx).shape == (19, 3, 3)
    assert calls == [(19,)]


@pytest.mark.parametrize("method", ["both", "closed_form"])
def test_connection_eval_checks_genericity_before_the_numeric_core(monkeypatch, ctx, method):
    calls = []
    real = connection.core_numeric

    def counting(p, z, ctx):
        calls.append(z)
        return real(p, z, ctx)

    monkeypatch.setattr(connection, "core_numeric", counting)
    q = ctx.q
    b2q = HyperParams(a=(ctx.qpow(0.1), ctx.qpow(0.35), ctx.qpow(0.7)), b2=q, b3=ctx.qpow(0.55))
    for p in (_log_params(ctx, "iii"), _log_params(ctx, "iv"), b2q):
        with pytest.raises(SpiralCollisionError):
            connection_eval(p, 0.6 + 0.3j, ctx, method)
    assert calls == []


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.5 * cmath.exp(0.5j)])
@pytest.mark.parametrize("method", ["closed_form", "numeric"])
def test_twisted_matrix_duality(q, method):
    # z -> z*/w with z* = b2 b3/(q^2 a1 a2 a3), gauged by a1, maps the equation
    # to its dual, whose twisted matrix is D1 P~(z*/w)^-1 D2 with D1, D2
    # constant and diagonal: the entrywise ratio is rank one and constant in w.
    # Measured: rank one <= 3.6e-13 (closed form) and 9.6e-13 (numeric core),
    # constancy <= 4.9e-13 and 2.2e-12; the bounds leave a margin of 10x or more
    ctx = QContext(q)
    p = HyperParams.from_exponents(ctx, (0.13, 0.37, 0.71), (0.29, 0.58))
    pd = hypersystem._dual(p, ctx)
    a1, a2, a3 = p.a
    zstar = p.b2 * p.b3 / (ctx.q ** 2 * a1 * a2 * a3)

    def twisted(pp, z):
        if method == "numeric":
            return connection_eval(pp, z, ctx, "numeric").P_twisted
        return twisted_birkhoff(pp, z, ctx)

    ratios = []
    for t, angle in ((0.3, 0.7), (0.45, 2.1), (0.6, -2.6), (0.75, -1.0), (0.55, 1.4)):
        w = abs(ctx.q) ** t * cmath.exp(1j * angle)
        ratios.append(twisted(pd, w) / np.linalg.inv(twisted(p, zstar / w)))
    rank_one = max(s[1] / s[0] for s in (np.linalg.svd(X, compute_uv=False) for X in ratios))
    constancy = max(np.max(np.abs(X - ratios[0])) for X in ratios[1:]) / np.max(np.abs(ratios[0]))
    assert rank_one < 1e-11
    assert constancy < (1e-11 if method == "closed_form" else 5e-11)
