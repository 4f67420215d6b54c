"""Irreducibility, normalization, case taxonomy, and the classifier with its
generators and PSl2 obstruction residual."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from qgalois import (
    HyperParams,
    base_point,
    classify,
    classify_case,
    det_formula,
    fit_relation_residual,
    irreducibility,
    normalize_parameters,
    rho,
    twisted_birkhoff,
)
from qgalois import connection, galois, hypersystem


@pytest.fixture
def p(ctx):
    return HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33))


def test_reducible_witness(ctx, p):
    bad = HyperParams(a=(ctx.q * p.b2, p.a[1], p.a[2]), b2=p.b2, b3=p.b3)
    v = irreducibility(bad, ctx)
    assert not v.irreducible
    assert v.witnesses[0][:2] == (1, 2)


def test_generic_irreducible(ctx, p):
    v = irreducibility(p, ctx)
    assert v.irreducible and not v.witnesses
    assert len(v.distances) == 9


def test_tolerance_edge_detected(ctx, p):
    edge = HyperParams(a=(p.b2 * ctx.q ** 3 * (1 + 1e-12), p.a[1], p.a[2]), b2=p.b2, b3=p.b3)
    v = irreducibility(edge, ctx)
    assert not v.irreducible
    (i, j, k, dist) = v.witnesses[0]
    assert (i, j, k) == (1, 2, 3) and 0 < dist < 1e-11


def test_normalize_band_and_shift(ctx):
    p = HyperParams.from_exponents(ctx, (2.3, 0.2, 0.4), (0.15, 0.33))
    pn, (sh_a, sh_b) = normalize_parameters(p, ctx)
    assert abs(pn.a[0] - ctx.qpow(0.3)) < 1e-12
    assert sh_a == (-2, 0, 0) and sh_b == (0, 0)


def test_normalize_keeps_b_on_q(ctx):
    p = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q ** 3, b3=1.0)
    pn, (_, sh_b) = normalize_parameters(p, ctx)
    assert pn.b2 == ctx.q and pn.b3 == ctx.q
    assert sh_b == (-2, 1)


def test_normalize_merges_resonant_pair(ctx):
    p = HyperParams.from_exponents(ctx, (0.3, 2.3, 0.7), (0.15, 0.33))
    pn, _ = normalize_parameters(p, ctx)
    assert pn.a[0] == pn.a[1]
    assert classify_case(pn, ctx) == "ii"


def test_classify_case_tags(ctx):
    q = ctx.q
    assert classify_case(HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33)), ctx) == "i"
    assert classify_case(HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.15)), ctx) == "ii"
    assert classify_case(HyperParams(a=(ctx.qpow(0.1), ctx.qpow(0.2), ctx.qpow(0.4)), b2=q, b3=q), ctx) == "iii"
    a = ctx.qpow(0.3)
    assert classify_case(HyperParams(a=(a, a, a), b2=q, b3=q), ctx) == "iv"
    # routed analogues
    assert classify_case(HyperParams(a=(a, a, a), b2=ctx.qpow(0.15), b3=ctx.qpow(0.33)), ctx) == "iii"
    assert classify_case(HyperParams(a=(a, a, ctx.qpow(0.7)), b2=ctx.qpow(0.15), b3=ctx.qpow(0.33)), ctx) == "ii"


def test_generators_case_i_display(ctx, p, monkeypatch):
    # the base point as the one connection sample
    y0 = base_point(p, ctx)
    monkeypatch.setattr(galois, "omega_samples", lambda p, ctx: [y0])
    gens = dict(classify(p, ctx).generators)
    # semi-simple local generators at 0: diag(e^{2 pi i beta}) and diag(v)
    expect = np.diag([cmath.exp(2j * math.pi * w) for w in (1.0, 0.15, 0.33)])
    assert np.max(np.abs(gens["1.a"] - expect)) < 1e-10
    assert np.max(np.abs(gens["1.a'"] - np.eye(3))) < 1e-10  # q-real: v = 1
    assert np.max(np.abs(gens["1.b"] - np.eye(3))) < 1e-12
    # item 3 at the base point itself is the identity
    assert np.max(np.abs(gens["3.0"] - np.eye(3))) < 1e-8


def test_generators_invertible(ctx, p):
    for label, M in classify(p, ctx).generators:
        assert abs(np.linalg.det(M)) > 1e-8, label


def test_generator_det_ratio_sanity(ctx, p):
    report = classify(p, ctx)
    y0, zs = report.base_point, report.samples
    gens = dict(report.generators)
    assert len(zs) == 16 and all(f"3.{k}" in gens for k in range(16))
    d0 = det_formula(p, y0, ctx)
    for k, z in enumerate(zs):
        ratio = det_formula(p, z, ctx) / d0
        d = np.linalg.det(gens[f"3.{k}"])
        assert abs(d - ratio) < 1e-8 * abs(ratio)


def test_generators_case_iii_display(ctx):
    pl = HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=ctx.q, b3=ctx.q)
    gens = dict(classify(pl, ctx).generators)
    assert np.allclose(gens["1.b"], np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))


def test_generators_case_iv_display(ctx):
    a = ctx.qpow(0.3)
    pl = HyperParams(a=(a, a, a), b2=ctx.q, b3=ctx.q)
    gens = dict(classify(pl, ctx).generators)
    # scalar semi-simple generators at infinity commute with everything
    assert np.max(np.abs(gens["2.a"] - cmath.exp(2j * math.pi * 0.3) * np.eye(3))) < 1e-8
    assert np.max(np.abs(gens["2.a'"] - np.eye(3))) < 1e-8
    # unipotent at infinity: conjugate of [[1,a,0],[0,1,a],[0,0,1]]
    w = np.linalg.eigvals(gens["2.b"])
    # a full 3x3 Jordan block: a rounding error d in the matrix moves its
    # eigenvalues by about d^(1/3), here ~7e-6 off 1
    assert np.max(np.abs(w - 1.0)) < 1e-4
    # the well-conditioned form of the same statement: (2.b - I) is
    # nilpotent of order exactly 3
    N = gens["2.b"] - np.eye(3)
    n = np.linalg.norm(N)
    assert np.linalg.norm(N @ N @ N) <= 1e-12 * n ** 3
    assert np.linalg.norm(N @ N) >= 0.1 * n ** 2


@pytest.mark.parametrize("a_exps", [(0.13, 0.37, 0.71), (0.3, 0.3, 0.3)], ids=["iii", "iv"])
def test_logarithmic_generators_do_not_depend_on_the_circle(monkeypatch, ctx, a_exps):
    # the logarithmic limit is a mean over a circle of perturbations; twice
    # the radius moves the generators by rounding only (reads <= 1.5e-9)
    def generators():
        pl = HyperParams(a=tuple(ctx.qpow(x) for x in a_exps), b2=ctx.q, b3=ctx.q)
        return classify(pl, ctx).generators

    base = generators()
    monkeypatch.setattr(hypersystem, "_CIRCLE", 2.0 * hypersystem._CIRCLE)
    wide = generators()
    assert [label for label, _ in base] == [label for label, _ in wide]
    for (label, M), (_, W) in zip(base, wide):
        assert np.max(np.abs(M - W)) <= 1e-8 * np.max(np.abs(M)), label


def test_generators_case_ii_local_only(ctx):
    p2 = HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.15))
    gens = classify(p2, ctx).generators
    labels = [l for l, _ in gens]
    assert labels == ["1.a", "1.a'", "1.b"]
    assert np.allclose(dict(gens)["1.b"], np.array([[1, 0, 0], [0, 1, p2.b2 / ctx.q], [0, 0, 1]]))


def test_base_point_rejected_on_spiral(ctx, p, monkeypatch):
    monkeypatch.setattr(galois, "base_point", lambda p, ctx: ctx.q ** 2)
    report = classify(p, ctx)
    assert report.generators == () and report.obstruction_residual is None
    note = f"connection data unavailable: base point {ctx.q ** 2} is on a singular spiral"
    assert note in report.notes


def test_obstruction_synthetic_fixture(rng):
    # data from genuine symmetric-square images satisfies the relation with
    # constant 4 exactly
    lhs, rhs = [], []
    for _ in range(12):
        N = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        N /= np.sqrt(np.linalg.det(N))
        R = rho(N)
        lhs.append(R[0, 1] ** 2)
        rhs.append(R[0, 0] * R[0, 2])
    c, res = fit_relation_residual(lhs, rhs)
    assert abs(c - 4.0) < 1e-10
    assert res < 1e-8


def test_obstruction_large_for_case_i(ctx, p):
    assert classify(p, ctx).obstruction_residual > 0.1


def test_obstruction_zero_pattern(ctx, p):
    # near (b2/(q a1)) q^Z the relation's left side vanishes but the right
    # side does not
    anchor = p.b2 / (ctx.q * p.a[0])
    z = anchor * abs(ctx.q) ** 0  # on the spiral up to the 1e-6 nudge below
    z *= 1 + 1e-6
    B = twisted_birkhoff(p, z, ctx)
    lhs = abs(B[0, 1] ** 2)
    rhs = abs(B[0, 0] * B[0, 2])
    assert lhs < 1e-3 * rhs


def test_classify_main_theorem_examples(ctx):
    r = classify(HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33)), ctx)
    assert r.classification == "GL3" and r.lie_case == "i"
    r2 = classify(HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.55)), ctx)
    assert r2.classification == "SL3_extended"
    s1, s2 = r2.scalar_generators
    assert abs(s1 - cmath.exp(2j * math.pi * 0.7)) < 1e-10
    assert abs(s2 - 1.0) < 1e-10
    assert r2.scalar_resolution == "mu_10 x SL3"


def test_classify_reducible_undetermined(ctx):
    p = HyperParams.from_exponents(ctx, (1.15, 0.2, 0.4), (0.15, 0.33))
    r = classify(p, ctx)
    assert not r.irreducible and r.classification == "undetermined"


def test_classify_non_q_real_undetermined(ctx):
    # a2 = 0.45, not q: with a2 = q the input was reducible and stopped first
    p = HyperParams(a=(0.3 * cmath.exp(0.2j), 0.45, 0.7), b2=0.4, b3=0.6)
    r = classify(p, ctx)
    assert r.irreducible and not r.q_real and r.classification == "undetermined"


def test_classify_shift_invariance(ctx, rng):
    for _ in range(5):
        alpha = np.sort(rng.uniform(0.05, 0.95, 3))
        beta = np.sort(rng.uniform(0.05, 0.95, 2)) + np.array([0.0, 0.02])
        p = HyperParams.from_exponents(ctx, tuple(alpha), tuple(beta))
        shifted = HyperParams.from_exponents(
            ctx, (alpha[0] + 2, alpha[1], alpha[2] - 1), (beta[0] + 1, beta[1])
        )
        r1, r2 = classify(p, ctx), classify(shifted, ctx)
        assert r1.classification == r2.classification


def _case_params(ctx, case):
    q = ctx.q
    if case == "i":
        return HyperParams.from_exponents(ctx, (0.1, 0.2, 0.4), (0.15, 0.33))
    if case == "iii":
        return HyperParams(a=(ctx.qpow(0.13), ctx.qpow(0.37), ctx.qpow(0.71)), b2=q, b3=q)
    a = ctx.qpow(0.3)
    return HyperParams(a=(a, a, a), b2=q, b3=q)


def test_classify_case_iii_evaluates_each_sample_once(ctx, monkeypatch):
    real = connection.core_numeric
    calls = []

    def counting(p, z, ctx):
        calls.append(z)
        return real(p, z, ctx)

    monkeypatch.setattr(connection, "core_numeric", counting)
    report = classify(_case_params(ctx, "iii"), ctx)
    assert report.lie_case == "iii" and report.obstruction_residual is not None
    # base point, 16 circle samples, 2 points beside the relation's zero spiral
    assert len(calls) == 19 and len(set(calls)) == 19


def test_classify_case_i_evaluates_one_batch(ctx, monkeypatch):
    real_twisted, real_samples = connection.twisted_birkhoff, galois.omega_samples
    batches, sample_calls = [], []

    def twisted(p, z, ctx):
        batches.append(np.shape(z))
        return real_twisted(p, z, ctx)

    def samples(p, ctx):
        sample_calls.append(p)
        return real_samples(p, ctx)

    monkeypatch.setattr(connection, "twisted_birkhoff", twisted)
    monkeypatch.setattr(galois, "omega_samples", samples)
    report = classify(_case_params(ctx, "i"), ctx)
    assert report.lie_case == "i" and report.obstruction_residual is not None
    assert batches == [(19,)]
    assert len(sample_calls) == 1


@pytest.mark.parametrize("case", ["iii", "iv"])
def test_classify_logarithmic_inverts_j_once(ctx, monkeypatch, case):
    # fmatrix_at continues the infinity side toward 0 with J^-1 at every
    # sample point; the inverse is taken once per local solution
    real = np.linalg.inv
    calls = []

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(np.linalg, "inv", counting)
    report = classify(_case_params(ctx, case), ctx)
    assert report.lie_case == case and report.obstruction_residual is not None
    assert len(calls) == 1


def test_reducible_report_keeps_the_defaults(ctx):
    p = HyperParams.from_exponents(ctx, (1.15, 0.2, 0.4), (0.15, 0.33))
    r = classify(p, ctx)
    verdict = irreducibility(p, ctx)
    expected = dict(
        irreducibility=verdict, q_real=True, classification="undetermined",
        normalized=None, shifts=None, lie_case=None, generators=(),
        obstruction_residual=None, scalar_generators=None, scalar_resolution=None,
        base_point=None, samples=(), notes=("reducible: a_i/b_j on q^Z",),
    )
    assert {f.name for f in dataclasses.fields(r)} == set(expected)
    assert {name: getattr(r, name) for name in expected} == expected
    assert not r.irreducible and r.witnesses == verdict.witnesses != ()


def test_non_q_real_report_keeps_the_defaults(ctx):
    # irreducible: no a_i/b_j is a power of q = 0.5
    p = HyperParams(a=(0.3 * cmath.exp(0.2j), 0.45, 0.7), b2=0.4, b3=0.6)
    r = classify(p, ctx)
    pn, shifts = normalize_parameters(p, ctx)
    expected = dict(
        irreducibility=irreducibility(p, ctx), q_real=False, classification="undetermined",
        normalized=pn, shifts=shifts, lie_case="shifted(i)", generators=(),
        obstruction_residual=None, scalar_generators=None, scalar_resolution=None,
        base_point=None, samples=(),
        notes=("parameters shifted by integer q-powers before analysis", "parameters are not q-real"),
    )
    assert shifts == ((-1, -1, 0), (-1, 0))
    assert {f.name for f in dataclasses.fields(r)} == set(expected)
    assert {name: getattr(r, name) for name in expected} == expected
    assert r.irreducible and r.witnesses == ()
