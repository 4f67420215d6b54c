"""SpiralPattern against the pairwise spiral tests it replaced.

The reference functions below are copies of the earlier per-module loops: the
local verdict over ordered eigenvalue pairs, the genericity check of the
closed forms and the case-tag loop.  Seeded draws put exponents on exact
merges (a_i = a_j, b_j = q, b2 = b3, also up to q^k) and at relative offsets
of 0.5 and 2 eps_spiral from them, where a decision could flip.
"""

import cmath

import numpy as np
import pytest

from qgalois import (
    DomainError,
    HyperParams,
    QContext,
    ResonantError,
    SpiralCollisionError,
    classify_case,
    core_closed_form,
    in_q_spiral,
    local_solution_infinity,
    local_solution_infinity_log,
    local_solution_zero,
    local_solution_zero_log,
    spiral_pattern,
)

QS = [0.5, 0.5 * cmath.exp(0.5j)]
GRID = (0.1, 0.25, 0.4, 0.6, 0.85)
SHIFTS = (0, 0, 0, 1, -2)


def _ref_side(eigvals, ctx):
    """(nonresonant, logarithmic) from all ordered eigenvalue pairs."""
    nonres, log = True, False
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            hit = in_q_spiral(eigvals[i] / eigvals[j], ctx)
            if hit.member and hit.k != 0:
                nonres = False
            if hit.member and hit.k == 0 and i < j:
                log = True
    return nonres, log


def _ref_sides(p, ctx):
    q = ctx.q
    zero = _ref_side((1.0 + 0j, q / p.b2, q / p.b3), ctx)
    infinity = _ref_side(tuple(1.0 / v for v in p.a), ctx)
    return {"zero": zero, "infinity": infinity}


def _ref_collision(p, ctx):
    a = p.a
    for i in range(3):
        for j in range(i + 1, 3):
            if in_q_spiral(a[i] / a[j], ctx).member:
                return f"a{i+1}/a{j+1} lies on q^Z"
    for label, v in (("b2", p.b2), ("b3", p.b3), ("b2/b3", p.b2 / p.b3)):
        if in_q_spiral(v, ctx).member:
            return f"{label} lies on q^Z"
    return None


def _ref_case(p, ctx):
    a_pairs = sum(
        1 for i in range(3) for j in range(i + 1, 3) if in_q_spiral(p.a[i] / p.a[j], ctx).member
    )
    b2_on = in_q_spiral(p.b2, ctx).member
    b3_on = in_q_spiral(p.b3, ctx).member
    b_merged = in_q_spiral(p.b2 / p.b3, ctx).member
    if a_pairs == 0:
        if not b_merged and not b2_on and not b3_on:
            return "i"
        if b2_on and b3_on:
            return "iii"
        if b_merged:
            return "ii"
        return "i"
    if a_pairs == 3:
        return "iv" if b2_on and b3_on else "iii"
    return "ii"


def _ref_log_checks(p, ctx):
    """The DomainError messages of the two logarithmic constructors, or None."""
    zero = infinity = None
    for j, bj in ((2, p.b2), (3, p.b3)):
        if abs(bj / ctx.q - 1.0) > ctx.eps_spiral:
            zero = zero or f"b{j} must equal q for the logarithmic limit at 0"
            infinity = infinity or f"b{j} must equal q in the doubly logarithmic case"
    for i in (1, 2):
        if abs(p.a[i] / p.a[0] - 1.0) > ctx.eps_spiral:
            infinity = "a must be a constant triple for the logarithmic limit at infinity"
            break
    return zero, infinity


def _near(rng, c, ctx):
    """c times q^k, at a relative offset 0, +-0.5 or +-2 eps_spiral."""
    delta = rng.choice((0.0, 0.0, 0.5, -0.5, 2.0, -2.0)) * ctx.eps_spiral
    k = int(rng.choice(SHIFTS))
    return c * ctx.q ** k * (1.0 + delta * cmath.exp(1j * rng.uniform(0, 2 * np.pi)))


def _fresh(rng, ctx):
    return ctx.qpow(float(rng.choice(GRID))) * cmath.exp(1j * rng.choice((0.0, 0.0, 0.7)))


def _draw(rng, ctx):
    a1 = _fresh(rng, ctx)
    a2 = _near(rng, a1, ctx) if rng.random() < 0.5 else _fresh(rng, ctx)
    a3 = _near(rng, (a1, a2)[rng.integers(2)], ctx) if rng.random() < 0.5 else _fresh(rng, ctx)
    b2 = _near(rng, ctx.q, ctx) if rng.random() < 0.4 else _fresh(rng, ctx)
    r = rng.random()
    if r < 0.3:
        b3 = _near(rng, ctx.q, ctx)
    elif r < 0.6:
        b3 = _near(rng, b2, ctx)
    else:
        b3 = _fresh(rng, ctx)
    return HyperParams(a=(a1, a2, a3), b2=b2, b3=b3)


def _outcome(build, p, ctx):
    try:
        build(p, ctx)
    except (ResonantError, DomainError) as err:
        return type(err).__name__, str(err)
    return "ok", None


_GENERIC_ERRORS = {
    "zero": (
        "system is resonant at 0; shift parameters first",
        "logarithmic at 0; use local_solution_zero_log for b2 = b3 = q",
    ),
    "infinity": (
        "system is resonant at infinity; shift parameters first",
        "logarithmic at infinity; use local_solution_infinity_log for a = (a,a,a)",
    ),
}


def _ref_generic_outcome(p, ctx, side):
    """Outcome of local_solution_zero / local_solution_infinity."""
    nonres, log = _ref_sides(p, ctx)[side]
    resonant_msg, log_msg = _GENERIC_ERRORS[side]
    if not nonres:
        return "ResonantError", resonant_msg
    if log:
        return "ResonantError", log_msg
    return "ok", None


@pytest.mark.parametrize("q", QS)
def test_spiral_pattern_matches_the_pairwise_loops(q):
    ctx = QContext(q)
    rng = np.random.default_rng(2024)
    seen = {"merged": 0, "resonant": 0, "collision": 0, "cases": set()}
    for _ in range(400):
        p = _draw(rng, ctx)
        pattern = spiral_pattern(p, ctx)
        for side, (nonres, log) in _ref_sides(p, ctx).items():
            assert pattern.merged(side) == log, (side, p)
            assert pattern.resonant(side) == (not nonres), (side, p)
            seen["merged"] += log
            seen["resonant"] += not nonres

        expected = _ref_collision(p, ctx)
        try:
            core_closed_form(p, 0.7 + 0.2j, ctx)
            got = None
        except SpiralCollisionError as err:
            got = str(err)
        assert got == expected, p
        seen["collision"] += expected is not None

        case = classify_case(p, ctx)
        assert case == _ref_case(p, ctx), p
        seen["cases"].add(case)

        assert _outcome(local_solution_zero, p, ctx) == _ref_generic_outcome(p, ctx, "zero"), p
        assert _outcome(local_solution_infinity, p, ctx) == _ref_generic_outcome(
            p, ctx, "infinity"
        ), p
        zero_msg, inf_msg = _ref_log_checks(p, ctx)
        assert _outcome(local_solution_zero_log, p, ctx) == (
            ("DomainError", zero_msg) if zero_msg else ("ok", None)
        ), p
        assert _outcome(local_solution_infinity_log, p, ctx) == (
            ("DomainError", inf_msg) if inf_msg else ("ok", None)
        ), p
    # the draws reach every branch of the decision
    assert seen["cases"] == {"i", "ii", "iii", "iv"}
    assert min(seen["merged"], seen["resonant"], seen["collision"]) > 20
