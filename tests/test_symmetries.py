"""Exact symmetries of the twisted connection matrix and of classify:
relabelling a1, a2, a3 or b2 <-> b3, and the character gauge by q/b2.

Each matrix relation runs on both cores, the closed form (twisted_birkhoff)
and the numeric one (connection_eval(..., "numeric").P_twisted), over seeded
case-i draws whose six exponents (alpha_1..3, beta_2, beta_3 and 1) lie at
least 0.12 apart modulo 1."""

import cmath
import functools
import itertools

import numpy as np
import pytest

from qgalois import HyperParams, QContext, classify, connection_eval, twisted_birkhoff

QS = [0.3, 0.5, 0.7, 0.5 * cmath.exp(0.5j)]
QIDS = ["0.3", "0.5", "0.7", "0.5e^0.5i"]
POINTS = [(0.3, 0.7), (0.45, 2.1), (0.6, -2.6), (0.75, -1.0), (0.55, 1.4)]  # (t, angle): |q|^t e^(i angle)
A_PERMS = [s for s in itertools.permutations(range(3)) if s != (0, 1, 2)]
SWAP = [0, 2, 1]  # b2 <-> b3 swaps the exponents q/b2, q/b3 at 0


@functools.lru_cache(maxsize=None)
def _exponents(seed):
    """The first of a seeded batch of exponent sets (alpha_1..3, beta_2,
    beta_3) whose six exponents, 1 included, are >= 0.12 apart mod 1."""
    rng = np.random.default_rng(seed)
    while True:
        exps = rng.uniform(0.0, 1.0, (4096, 5))
        full = np.concatenate((exps, np.zeros((4096, 1))), axis=1)
        gaps = np.abs(full[:, :, None] - full[:, None, :]) % 1.0
        upper = np.triu_indices(6, 1)
        gaps = np.minimum(gaps, 1.0 - gaps)[:, upper[0], upper[1]]
        ok = np.flatnonzero(gaps.min(axis=1) >= 0.12)
        if ok.size:
            return tuple(float(x) for x in exps[ok[0]])


def _draw(ctx, seed):
    """Seeded case-i parameters a_i = q^alpha_i, b_j = q^beta_j."""
    e = _exponents(seed)
    return HyperParams.from_exponents(ctx, e[:3], e[3:])


def _twisted(p, z, ctx, method):
    if method == "numeric":
        return connection_eval(p, z, ctx, "numeric").P_twisted
    return twisted_birkhoff(p, z, ctx)


def _points(ctx):
    return [abs(ctx.q) ** t * cmath.exp(1j * angle) for t, angle in POINTS]


def _rel(X, Y):
    return float(np.max(np.abs(X - Y)) / np.max(np.abs(Y)))


def _permuted(p, sigma):
    return HyperParams(a=tuple(p.a[i] for i in sigma), b2=p.b2, b3=p.b3)


def _swapped(p):
    return HyperParams(a=p.a, b2=p.b3, b3=p.b2)


@pytest.mark.parametrize("q", QS, ids=QIDS)
@pytest.mark.parametrize("method", ["closed_form", "numeric"])
def test_relabelling_permutes_rows_and_columns(q, method):
    # an a-permutation permutes the rows (the infinity side), b2 <-> b3 swaps
    # columns 2 and 3 (the zero side).  Finding 6 measured <= 3.7e-16 (rows)
    # and <= 5.6e-18 (columns) on the closed form, <= 4.1e-13 on the numeric
    # core; these draws read <= 2.4e-16 and <= 2.5e-13.  The bounds leave a
    # margin of 10x or more
    ctx = QContext(q)
    bound = 4e-15 if method == "closed_form" else 5e-12
    for seed, z in zip((0, 1), _points(ctx)):
        p = _draw(ctx, seed)
        P = _twisted(p, z, ctx, method)
        for sigma in A_PERMS:
            assert _rel(_twisted(_permuted(p, sigma), z, ctx, method), P[list(sigma)]) < bound
        assert _rel(_twisted(_swapped(p), z, ctx, method), P[:, SWAP]) < bound


def _generators(report):
    return {name: g for name, g in report.generators if name[0] in "23"}


@pytest.mark.parametrize("q", QS, ids=QIDS)
def test_relabelling_leaves_the_classification_unchanged(q):
    # base point and samples are identical; every 2.x and 3.k generator is
    # unchanged under an a-permutation and conjugated by the swap under
    # b2 <-> b3.  Finding 6 measured <= 4.3e-15 and <= 3.0e-15, these draws
    # <= 9.0e-15 (q = 0.7) and <= 2.9e-15; the bound leaves a margin of 10x
    ctx = QContext(q)
    p = _draw(ctx, 0)
    r = classify(p, ctx)
    gens = _generators(r)
    assert r.irreducible and r.classification == "GL3" and len(gens) == 19
    S = np.eye(3)[SWAP]
    relabelled = [(_permuted(p, sigma), lambda g: g) for sigma in A_PERMS]
    relabelled.append((_swapped(p), lambda g: S @ g @ S))
    for pr, conjugate in relabelled:
        rr = classify(pr, ctx)
        assert (rr.classification, rr.lie_case, rr.irreducible) == (
            r.classification, r.lie_case, r.irreducible
        )
        assert rr.base_point == r.base_point
        assert rr.samples == r.samples
        gr = _generators(rr)
        assert gr.keys() == gens.keys()
        for name, g in gens.items():
            assert _rel(gr[name], conjugate(g)) < 1e-13, name


@pytest.mark.xfail(
    strict=True,
    reason="the PGL2 obstruction residual anchors its zero points on a1 and reads "
    "row 1, so it depends on the order of a1, a2, a3 (finding 6: median spread "
    "0.63 over relabellings); it is to be replaced by an invariant certificate",
)
@pytest.mark.parametrize("q", QS, ids=QIDS)
def test_obstruction_residual_is_invariant_under_a_permutations(q):
    ctx = QContext(q)
    p = _draw(ctx, 0)
    base = classify(p, ctx).obstruction_residual
    for sigma in A_PERMS:
        assert abs(classify(_permuted(p, sigma), ctx).obstruction_residual - base) < 1e-6


@pytest.mark.parametrize("q", QS, ids=QIDS)
@pytest.mark.parametrize("method", ["closed_form", "numeric"])
def test_character_gauge(q, method):
    # the gauge by a character of multiplier mu = q/b2 gives a' = mu a,
    # b2' = q^2/b2, b3' = q b3/b2 and P~'(z) = D1 P~(z) Pi D2, Pi swapping
    # columns 1 and 2, D1 and D2 constant and diagonal: the entrywise ratio
    # is rank one and constant in z.  Finding 7 measured <= 4.3e-13 (rank one)
    # and <= 1.2e-12 (constancy); these draws read <= 7.9e-14 and 2.4e-13 on
    # the closed form, <= 1.0e-12 and 1.2e-11 (q = 0.7) on the numeric core.
    # The bounds leave a margin of 8x or more
    ctx = QContext(q)
    p = _draw(ctx, 0)
    mu = ctx.q / p.b2
    pg = HyperParams(a=tuple(mu * v for v in p.a), b2=ctx.q ** 2 / p.b2, b3=ctx.q * p.b3 / p.b2)
    ratios = [
        _twisted(pg, z, ctx, method) / _twisted(p, z, ctx, method)[:, [1, 0, 2]]
        for z in _points(ctx)
    ]
    rank_one = max(s[1] / s[0] for s in (np.linalg.svd(X, compute_uv=False) for X in ratios))
    constancy = max(np.max(np.abs(X - ratios[0])) for X in ratios[1:]) / np.max(np.abs(ratios[0]))
    assert rank_one < 1e-11
    assert constancy < (1e-11 if method == "closed_form" else 1e-10)
