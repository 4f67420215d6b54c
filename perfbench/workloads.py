"""Seeded inputs, op execution and correctness checks for the qgalois benchmark.

Three workloads, each a closed loop of single-threaded calls into the public
API.  Every input is drawn here from the seed with the benchmark's own
arithmetic (exponents on the q-spiral, points kept clear of every singular
spiral); every expected result is derived here from those exponents.  The
program only ever receives the generated parameters and points.

classify-mix     one ``galois.classify(p, ctx)`` per op at q = 0.5, over a
                 fixed cycle of local cases (see CLASSIFY_CYCLE).
connection-scan  one in-process ``cli.main(["connection", ...])`` per op on a
                 batch of points, q alternating between 0.5 and 0.5 e^{0.5i}.
near-unit-q      the same CLI call at a single point, q cycling over the
                 |q| -> 1 set {0.8, 0.9, 0.95, 0.99, 0.95 e^{0.3i}}.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import math
import random

import numpy as np

from qgalois import cli, connection, galois, hypersystem, qseries
from qgalois.context import QContext
from qgalois.hypersystem import HyperParams

WORKLOADS = ("classify-mix", "connection-scan", "near-unit-q")

# One cycle of classify-mix.  Case i is 6 of the 9 supported ops, so the
# median call is a case-i call; case iv (the slowest) is 1 in 9, so the tail
# percentile lands on it.  The last three kinds are parameter patterns that
# the classifier routes to a case it cannot build (b2 = q with b3 generic,
# triple a with generic b, one merged a-pair): they count as failed until
# they get connection generators or a case tag of their own.
CLASSIFY_CYCLE = (
    "i", "i-res", "i", "iii", "i", "i-res", "iv", "i", "iii",
    "b2-on-q", "triple-a", "a-pair",
)
UNSUPPORTED_KINDS = ("b2-on-q", "triple-a", "a-pair")
CLASSIFY_Q = 0.5 + 0j

SCAN_QS = (0.5 + 0j, 0.5 * cmath.exp(0.5j))
SCAN_POINTS = 8
NEAR_UNIT_QS = (0.8 + 0j, 0.9 + 0j, 0.95 + 0j, 0.99 + 0j, 0.95 * cmath.exp(0.3j))

# Smallest circular distance between any two parameter exponents (mod 1).
# Closer exponents make the PGl2 obstruction residual legitimately small, so
# the 0.1 threshold below would reject correct output.
EXPONENT_GAP = 0.12
LOG_EXPONENT_GAP = 0.2  # case iii / iv: a-exponents against the b's at 0
VERDICT_GAP = 0.1  # distance of sum(alpha) - beta2 - beta3 from Z for GL3 draws
POINT_CLEARANCE = 0.05  # relative distance of every z from every singular spiral

# Thresholds: those of `qgalois verify` for the connection checks, and the
# obstruction level that certifies the full SL3 for classify.
CROSS_METHOD_MAX = 1e-6
DET_MISMATCH_MAX = 1e-8
MINOR_MISMATCH_MAX = 1e-8
THETA_REFERENCE_MAX = 1e-8
OBSTRUCTION_MIN = 0.1
CLASSIFY_ACCURACY_MAX = 1e-6
DIGITS_CAP = 16.0


@dataclasses.dataclass(frozen=True)
class Op:
    """One benchmark operation and everything needed to check it."""

    kind: str
    q: complex
    alpha: tuple[float, float, float]
    beta: tuple[float, float]  # (beta2, beta3); 1.0 means exactly b = q
    z: tuple[complex, ...] = ()

    @property
    def key(self) -> tuple:
        """Identity of the equation, for the reuse count."""
        return (self.q, self.alpha, self.beta)

    def params(self) -> HyperParams:
        a = tuple(_qpow(self.q, x) for x in self.alpha)
        b2, b3 = (self.q if x == 1.0 else _qpow(self.q, x) for x in self.beta)
        return HyperParams(a=a, b2=b2, b3=b3)

    def expected_classification(self) -> str:
        excess = sum(self.alpha) - self.beta[0] - self.beta[1]
        return "SL3_extended" if _dist_to_int(excess) < 1e-9 else "GL3"

    def argv(self) -> list[str]:
        """The `qgalois connection` command line for this op."""
        qtext = repr(self.q.real) if self.q.imag == 0 else f"{self.q.real!r},{self.q.imag!r}"
        b = ["q" if x == 1.0 else f"q^{x!r}" for x in self.beta]
        return [
            "connection",
            "--q", qtext,
            "--a", ",".join(f"q^{x!r}" for x in self.alpha),
            "--b", ",".join(["q"] + b),
            "--z", ",".join(repr(z) for z in self.z),
        ]


@dataclasses.dataclass
class Outcome:
    """What one op did: its time, and the checks it failed."""

    seconds: float  # wall time of the call
    reasons: list[str]
    residual: float | None  # worst relative residual against an independent check
    scale: float = 1.0  # reference seconds per wall second around the call
    points: int = 0  # evaluation points of the equation
    beyond_zero: int = 0  # points past the series radius at 0
    beyond_infinity: int = 0  # points inside the series radius at infinity

    @property
    def passed(self) -> bool:
        return not self.reasons

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def digits(self) -> float:
        """-log10 of the worst residual, within [0, DIGITS_CAP]; 0 when the op
        produced nothing to check."""
        if self.residual is None:
            return 0.0
        if self.residual <= 0.0:
            return DIGITS_CAP
        return max(0.0, min(DIGITS_CAP, -math.log10(self.residual)))


# --- input generation -----------------------------------------------------------


def _qpow(q: complex, x: float) -> complex:
    """q**x on the principal branch, as the CLI's 'q^x' literal computes it."""
    return cmath.exp(x * cmath.log(q))


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def _circle_points(rng: random.Random, n: int, gap: float) -> list[float]:
    """n points of R/Z, the first at 0, pairwise at least `gap` apart.

    Uniform spacings conditioned on a minimum gap are the minimum plus
    uniform spacings of the remaining length, so no rejection is needed.
    """
    e = [rng.expovariate(1.0) for _ in range(n)]
    total = sum(e)
    pts = [0.0]
    for x in e[:-1]:
        pts.append(pts[-1] + gap + (1.0 - n * gap) * x / total)
    rest = pts[1:]
    rng.shuffle(rest)
    return [0.0] + rest


def _draw_exponents(rng: random.Random, kind: str) -> tuple[tuple[float, ...], tuple[float, float]]:
    """Exponents (alpha1..3), (beta2, beta3) of a q-real equation of `kind`;
    beta = 1.0 stands for b = q exactly."""
    while True:
        if kind in ("i", "i-res"):
            pts = _circle_points(rng, 6, EXPONENT_GAP)
            alpha, beta = pts[1:4], (pts[4], pts[5])
            if kind == "i-res":
                alpha[2] = (beta[0] + beta[1] - alpha[0] - alpha[1]) % 1.0
                others = [0.0, alpha[0], alpha[1], beta[0], beta[1]]
                if min(_dist_to_int(alpha[2] - x) for x in others) < EXPONENT_GAP:
                    continue
        elif kind == "iii":
            alpha = _circle_points(rng, 4, LOG_EXPONENT_GAP)[1:]
            beta = (1.0, 1.0)
        elif kind == "iv":
            x = rng.uniform(LOG_EXPONENT_GAP, 1.0 - LOG_EXPONENT_GAP)
            alpha, beta = [x, x, x], (1.0, 1.0)
        elif kind == "b2-on-q":
            pts = _circle_points(rng, 5, EXPONENT_GAP)
            alpha, beta = pts[1:4], (1.0, pts[4])
        elif kind == "triple-a":
            pts = _circle_points(rng, 4, EXPONENT_GAP)
            alpha, beta = [pts[1]] * 3, (pts[2], pts[3])
        elif kind == "a-pair":
            pts = _circle_points(rng, 5, EXPONENT_GAP)
            alpha, beta = [pts[1], pts[1], pts[2]], (pts[3], pts[4])
        else:
            raise ValueError(f"unknown kind {kind!r}")
        excess = sum(alpha) - beta[0] - beta[1]
        if kind == "i-res" or _dist_to_int(excess) >= VERDICT_GAP:
            return tuple(alpha), beta


def _spiral_distance(w: complex, q: complex) -> float:
    """Relative distance from w to the discrete spiral q^Z."""
    lq = math.log(abs(q))
    omega = math.log(abs(w)) / lq
    reach = math.log1p(POINT_CLEARANCE) / -lq + 1.0
    best = math.inf
    for k in range(math.floor(omega - reach), math.ceil(omega + reach) + 1):
        qk = q ** k
        best = min(best, abs(w - qk) / abs(qk))
    return best


def _singular_anchors(op: Op) -> list[complex]:
    """c such that the connection matrices or their checks are singular on c q^Z:
    theta(z) poles, the q-character poles at 0 and infinity, and the zeros of
    the twisted determinant and of its nine 2x2 minors."""
    p = op.params()
    q = op.q
    a = p.a
    b = (q, p.b2, p.b3)
    out = [1.0 + 0j, p.b2, p.b3, *a, p.b2 * p.b3 / (q * q * a[0] * a[1] * a[2])]
    pairs = ((0, 1), (0, 2), (1, 2))
    for i1, i2 in pairs:
        for j1, j2 in pairs:
            out.append(b[j1] * b[j2] / (q * q * a[i1] * a[i2]))
    return out


def _draw_points(rng: random.Random, op: Op, n: int) -> tuple[complex, ...]:
    """n points over |q|^2 <= |z| <= |q|^-2, stratified in log|z| so that a
    fixed share lies past each series radius, all clear of the singular spirals."""
    anchors = _singular_anchors(op)
    absq = abs(op.q)
    out = []
    for k in range(n):
        while True:
            t = -2.0 + 4.0 * (k + rng.random()) / n
            z = absq ** t * cmath.exp(2j * math.pi * rng.random())
            if all(_spiral_distance(z / c, op.q) >= POINT_CLEARANCE for c in anchors):
                out.append(z)
                break
    return tuple(out)


def _op_stream(workload: str, rng: random.Random):
    """Endless generator of ops in cycle order; cycle boundaries every
    cycle_length(workload) ops."""
    n = 0
    while True:
        if workload == "classify-mix":
            kind = CLASSIFY_CYCLE[n % len(CLASSIFY_CYCLE)]
            alpha, beta = _draw_exponents(rng, kind)
            yield Op(kind=kind, q=CLASSIFY_Q, alpha=alpha, beta=beta)
        else:
            qs = SCAN_QS if workload == "connection-scan" else NEAR_UNIT_QS
            q = qs[n % len(qs)]
            alpha, beta = _draw_exponents(rng, "i")
            op = Op(kind="i", q=q, alpha=alpha, beta=beta)
            npts = SCAN_POINTS if workload == "connection-scan" else 1
            yield dataclasses.replace(op, z=_draw_points(rng, op, npts))
        n += 1


def cycle_length(workload: str) -> int:
    if workload == "classify-mix":
        return len(CLASSIFY_CYCLE)
    return len(SCAN_QS) if workload == "connection-scan" else len(NEAR_UNIT_QS)


def op_stream(workload: str, seed: int, phase: str):
    """Deterministic op sequence for (workload, seed); `phase` separates the
    warm-up stream from the timed one so no equation repeats between them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return _op_stream(workload, random.Random(f"{workload}:{seed}:{phase}"))


# --- execution and checks ---------------------------------------------------------


def _theta_reference(z: complex, q: complex) -> complex:
    """theta_q(z) = sum (-1)^n q^(n(n-1)/2) z^n as Jacobi's theta_4(v | sqrt q)
    with e^(2iv) = z/sqrt(q), in mpmath.

    The series cancels down to |(q;q)_inf| ~ exp(-pi^2/(6(1-|q|))), so the
    working precision is raised by that many digits on top of 30.
    """
    import mpmath

    lost = math.pi ** 2 / (6.0 * (1.0 - abs(q))) / math.log(10.0)
    with mpmath.workdps(30 + int(lost)):
        mq, mz = mpmath.mpc(q), mpmath.mpc(z)
        v = (mpmath.log(mz) - mpmath.log(mq) / 2) / 2j
        return complex(mpmath.jtheta(4, v, mpmath.sqrt(mq)))


def _rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(v["re"], v["im"]) for v in row] for row in rows], dtype=complex)


def _cli_main(argv: list[str], out: io.StringIO, err: io.StringIO) -> int:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


def run_op(workload: str, op: Op, timed) -> Outcome:
    """Run one op through `timed`, then check it outside the timed call.

    timed(call) returns (result, exception, wall seconds, scale); it must
    catch every exception of call, which makes the op failed, never an abort.
    """
    if workload == "classify-mix":
        p, ctx = op.params(), QContext(op.q)
        report, exc, seconds, scale = timed(lambda: galois.classify(p, ctx))
        outcome = Outcome(seconds, [], None, scale)
        if exc is not None:
            outcome.reasons.append(f"exception:{type(exc).__name__}")
            return outcome
        return _check_classify(op, report, ctx, outcome)

    argv = op.argv()
    out, err = io.StringIO(), io.StringIO()
    rc, exc, seconds, scale = timed(lambda: _cli_main(argv, out, err))
    outcome = Outcome(seconds, [], None, scale)
    _count_points(op, op.params(), list(op.z), outcome)
    if exc is not None:
        outcome.reasons.append(f"exception:{type(exc).__name__}")
        return outcome
    return _check_connection(workload, op, rc, out.getvalue(), outcome)


def _count_points(op: Op, p: HyperParams, zs: list[complex], outcome: Outcome) -> None:
    """Series radii of the local solutions: 0.5 at 0 and 2|b2 b3/(q a1 a2 a3)|
    at infinity; points past them are reached by q-shift continuation."""
    a1, a2, a3 = p.a
    r_inf = 2.0 * abs(p.b2 * p.b3 / (a1 * a2 * a3 * op.q))
    outcome.points = len(zs)
    outcome.beyond_zero = sum(abs(z) > 0.5 for z in zs)
    outcome.beyond_infinity = sum(abs(z) < r_inf for z in zs)


def _check_classify(op: Op, report, ctx: QContext, outcome: Outcome) -> Outcome:
    reasons = outcome.reasons
    if report.classification != op.expected_classification():
        reasons.append("check:verdict")
    gens = {label: m for label, m in report.generators if label.startswith("3.")}
    has_connection = bool(gens) and report.obstruction_residual is not None
    if op.kind in UNSUPPORTED_KINDS:
        # Supported once these get connection generators, or an explicit
        # case tag of their own instead of a silent fallback.
        if not has_connection and report.lie_case in ("i", "ii", "iii", "iv"):
            reasons.append("check:unsupported_pattern_routed")
        if not has_connection:
            return outcome
    else:
        expected_case = "i" if op.kind == "i-res" else op.kind
        if report.lie_case != expected_case:
            reasons.append("check:lie_case")
        if not has_connection:
            reasons.append("check:missing_generators")
            return outcome
    if report.obstruction_residual <= OBSTRUCTION_MIN:
        reasons.append("check:obstruction_residual")
    pn = report.normalized
    zs = list(report.samples)
    _count_points(op, pn, zs + [report.base_point], outcome)
    try:
        if report.lie_case == "i":
            residual = _det_ratio_residual(pn, report.base_point, zs, gens, ctx)
        else:
            residual = _local_gauge_residual(pn, report.lie_case, report.base_point, ctx)
    except Exception as e:
        reasons.append(f"check_exception:{type(e).__name__}")
        return outcome
    outcome.residual = residual
    if not residual < CLASSIFY_ACCURACY_MAX:
        reasons.append("check:accuracy")
    return outcome


def _det_ratio_residual(pn, y0, zs, gens, ctx) -> float:
    """Generator 3.k is P(y0)^-1 P(z_k), so its determinant is the ratio of the
    closed-form determinants at z_k and y0."""
    d0 = connection.det_formula(pn, y0, ctx)
    worst = 0.0
    for k, z in enumerate(zs):
        m = gens.get(f"3.{k}")
        if m is None:
            return math.inf
        worst = max(worst, _rel(complex(np.linalg.det(m)), connection.det_formula(pn, z, ctx) / d0))
    return worst


def _local_gauge_residual(pn, case, y0, ctx) -> float:
    """F(qz) J = A(z) F(z) for both local solutions, at the base point."""
    loc0 = hypersystem.local_solution_zero_log(pn, ctx)
    if case == "iv":
        locinf = hypersystem.local_solution_infinity_log(pn, ctx)
    else:
        locinf = hypersystem.local_solution_infinity(pn, ctx)
    return max(hypersystem.gauge_residual(loc, pn, y0, ctx) for loc in (loc0, locinf))


def _check_connection(workload: str, op: Op, rc, stdout: str, outcome: Outcome) -> Outcome:
    reasons = outcome.reasons
    if rc != 0:
        reasons.append(f"exit:{rc}")
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError):
        reasons.append("output:unparsable")
        return outcome
    if len(rows) != len(op.z):
        reasons.append("output:row_count")
        return outcome
    worst = 0.0
    for row, z in zip(rows, op.z):
        try:
            residuals = _row_residuals(row, z)
        except (KeyError, TypeError, ValueError):
            reasons.append("output:unparsable")
            continue
        if isinstance(residuals, str):
            reasons.append(residuals)
            continue
        for name, value, limit in residuals:
            if not value < limit:
                reasons.append(f"check:{name}")
            worst = max(worst, value)
    if workload == "near-unit-q":
        theta_err = _theta_residual(op)
        if not theta_err < THETA_REFERENCE_MAX:
            reasons.append("check:theta_reference")
        worst = max(worst, theta_err)
    outcome.reasons = sorted(set(reasons))
    outcome.residual = worst
    return outcome


def _row_residuals(row: dict, z: complex):
    """(name, residual, limit) triples of one output row, or the reason the
    row has none."""
    if complex(row["z"]["re"], row["z"]["im"]) != z:
        return "output:wrong_point"
    if "skipped" in row:
        return "skipped:" + row["skipped"].split(":")[0]
    # det of the returned matrix, recomputed here, against the closed form
    det_c = complex(row["det_closed_form"]["re"], row["det_closed_form"]["im"])
    det_mis = max(row["det_mismatch"], _rel(complex(np.linalg.det(_matrix(row["P_twisted"]))), det_c))
    return (
        ("cross_method_residual", float(row["cross_method_residual"]), CROSS_METHOD_MAX),
        ("det_mismatch", float(det_mis), DET_MISMATCH_MAX),
        ("max_minor_mismatch", float(row["max_minor_mismatch"]), MINOR_MISMATCH_MAX),
    )


def _theta_residual(op: Op) -> float:
    """qseries.theta at z and at the det-formula argument q^2 a1 a2 a3 z/(b2 b3)
    against the mpmath reference."""
    ctx = QContext(op.q)
    p = op.params()
    a1, a2, a3 = p.a
    worst = 0.0
    for z in op.z:
        for w in (z, op.q * op.q * a1 * a2 * a3 * z / (p.b2 * p.b3)):
            try:
                val = qseries.theta(w, ctx)
            except Exception:
                return math.inf
            worst = max(worst, _rel(val, _theta_reference(w, op.q)))
    return worst
