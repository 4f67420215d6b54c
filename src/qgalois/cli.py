"""Command-line interface: classification runs, connection-matrix tables, and
identity-verification suites, with JSON reports on stdout.

Exit codes: 0 definitive success, 1 input/usage error, 2 undetermined result
(a connection table with a skipped point included) or failed verification.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import asdict

import numpy as np

from .context import QContext
from .errors import QGaloisError
from .hypersystem import HyperParams
from . import connection as cn
from . import galois as ga
from . import verify as vf

__all__ = ["build_parser", "cmd_classify", "cmd_connection", "cmd_verify", "main"]


def _parse_complex(text: str, q: complex) -> complex:
    """A parameter literal: 'q' or 'q^0.3' (exact on the q-spiral), a real, or
    a Python complex literal like '0.2+0.1j'."""
    s = text.strip()
    if s == "q":
        return q
    if s.startswith("q^"):
        return cmath.exp(float(s[2:]) * cmath.log(q))
    return complex(s)


def _parse_triple(text: str, q: complex, name: str, count: int) -> tuple[complex, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise ValueError(f"--{name} needs {count} comma-separated values, got {len(parts)}")
    return tuple(_parse_complex(p, q) for p in parts)


def _context(args: argparse.Namespace) -> QContext:
    parts = args.q.split(",")
    if len(parts) > 2:
        raise ValueError(f"--q takes one value or 're,im', got {args.q!r}")
    q = complex(args.q) if len(parts) == 1 else complex(*map(float, parts))
    return QContext(q, eps_trunc=args.eps_trunc, eps_spiral=args.eps_spiral)


def _params(args: argparse.Namespace, ctx: QContext) -> HyperParams:
    a = _parse_triple(args.a, ctx.q, "a", 3)
    b = _parse_triple(args.b, ctx.q, "b", 3)
    if abs(b[0] - ctx.q) > 1e-12 * abs(ctx.q):
        raise ValueError("the first b parameter must be q")
    return HyperParams(a=a, b2=b[1], b3=b[2])


def _jsonable(obj):
    """Recursive conversion to JSON-serializable structures; complex numbers
    become {'re': x, 'im': y} and matrices nested lists."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [_jsonable(row) for row in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        c = complex(obj)
        return {"re": c.real, "im": c.imag}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(_jsonable(payload), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:  # text
        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}{k}.", value[k])
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    walk(f"{prefix}{i}.", v)
            else:
                print(f"{prefix[:-1]}: {value}")

        walk("", _jsonable(payload))


def cmd_classify(ctx: QContext, fmt: str, p: HyperParams) -> int:
    report = ga.classify(p, ctx)
    payload = {
        "command": "classify",
        "q": ctx.q,
        "a": list(p.a),
        "b": list(p.b(ctx)),
        "q_real": report.q_real,
        "irreducible": report.irreducible,
        "witnesses": [list(w) for w in report.witnesses],
        "lie_case": report.lie_case,
        "shifts": report.shifts,
        "classification": report.classification,
        "scalar_generators": report.scalar_generators,
        "scalar_resolution": report.scalar_resolution,
        "obstruction_residual": report.obstruction_residual,
        "base_point": report.base_point,
        "samples": list(report.samples),
        "generators": [{"label": label, "matrix": M} for label, M in report.generators],
        "spiral_distances": [list(d) for d in report.irreducibility.distances],
        "notes": list(report.notes),
    }
    _emit(payload, fmt)
    return 0 if report.classification != "undetermined" else 2


def cmd_connection(ctx: QContext, fmt: str, p: HyperParams, zs: list[complex]) -> int:
    rows = []
    for z in zs:
        entry: dict = {"z": z}
        try:
            ev = cn.connection_eval(p, z, ctx, "both")
            entry.update(
                P=ev.P,
                P_twisted=ev.P_twisted,
                cross_method_residual=ev.residual_cross,
                **asdict(cn.check_det_minors(p, ev.P_twisted, z, ctx)),
            )
        except QGaloisError as exc:
            entry["skipped"] = f"{type(exc).__name__}: {exc}"
        rows.append(entry)
    _emit({"command": "connection", "q": ctx.q, "rows": rows}, fmt)
    return 2 if any("skipped" in row for row in rows) else 0


def cmd_verify(ctx: QContext, fmt: str, suite: str, seed: int) -> int:
    results = vf.run_suite(suite, ctx, seed=seed)
    payload = {
        "command": "verify",
        "suite": suite,
        "checks": [
            {
                "suite": r.suite,
                "name": r.name,
                "residual": r.residual,
                "threshold": r.threshold,
                "passed": r.passed,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(payload, fmt)
    return 0 if payload["all_passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgalois",
        description="Order-3 q-hypergeometric toolkit: connection matrices and "
        "difference Galois group classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--q", default="0.5", help="base q, 0 < |q| < 1 ('re,im' for complex)")
        sp.add_argument("--eps-trunc", type=float, default=1e-12, help="series tail tolerance")
        sp.add_argument("--eps-spiral", type=float, default=1e-9, help="spiral membership tolerance")
        sp.add_argument("--format", choices=("json", "text"), default="json", help="output format")

    def with_params(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--a", required=True, help="numerator triple, e.g. q^0.1,q^0.2,q^0.4")
        sp.add_argument("--b", required=True, help="denominator triple starting with q, e.g. q,q^0.15,q^0.33")

    sp = sub.add_parser("classify", help="classify the difference Galois group")
    common(sp)
    with_params(sp)

    sp = sub.add_parser("connection", help="evaluate connection matrices at points")
    common(sp)
    with_params(sp)
    sp.add_argument("--z", required=True, help="comma-separated evaluation points")

    sp = sub.add_parser("verify", help="run identity-verification suites")
    common(sp)
    sp.add_argument(
        "--suite",
        default="all",
        choices=sorted(vf.SUITES) + ["all"],
        help="which suite to run",
    )
    sp.add_argument("--seed", type=int, default=0, help="RNG seed for the sampled checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        ctx, fmt = _context(args), args.format
        if args.command == "classify":
            return cmd_classify(ctx, fmt, _params(args, ctx))
        if args.command == "connection":
            zs = [_parse_complex(s, ctx.q) for s in args.z.split(",") if s.strip()]
            if not zs:
                raise ValueError("--z needs at least one evaluation point")
            return cmd_connection(ctx, fmt, _params(args, ctx), zs)
        return cmd_verify(ctx, fmt, args.suite, args.seed)
    except (ValueError, QGaloisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
