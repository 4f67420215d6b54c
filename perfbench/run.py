"""qgalois benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from src/.
The workload is one caller in a closed loop (each call waits for the previous
one) in this process, with BLAS pinned to one thread.  Ops run in whole
cycles of the workload's input mix until their summed call time reaches
--seconds; the checks between calls are not timed.

On shared virtual machines the CPU speed can shift by up to 1.7x for
seconds at a time (seen on a 2-vCPU Xeon VM).  So every timed interval is
bracketed by a fixed calibration kernel (plain Python complex arithmetic,
cmath and small numpy solves, independent of qgalois) and reported in
reference time: wall time x (1 ms / the kernel's mean wall time around the
interval), i.e. the time at the speed where the kernel takes exactly 1 ms.
The raw wall-clock figures are in the report line.

End-to-end metrics (each workload reports all seven):
  setup_s          median time from a fresh interpreter to qgalois imported
                   and a context built, over SETUP_RUNS - 1 spawns
  ops_per_s        ops that passed their checks / summed time of all ops
  call_p50_ms      median time of one public call, over passing calls
  call_tail_ms     the highest percentile with >= 10 passing calls beyond
                   it (percentile and count in the report)
  passed_ratio     passing ops / attempted ops (failed_ratio = 1 - this is
                   in the report; it is 0 on connection-scan, and a metric
                   that can be 0 has no relative spread)
  accuracy_digits  mean over ops of -log10 of the op's worst relative
                   residual against its independent check, within [0, 16];
                   0 for an op that returned nothing to check.  A mean,
                   since the digits of a mixed workload sit in clusters and
                   their median jumps between them from run to run.
  peak_rss_mb      peak resident memory of this process

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (cycles alternate untraced / traced, the difference of their
mean op times being the tracing overhead; raw spans go to .perfbench/).
Human-readable detail goes to the `report:` line; the last line of stdout is
the JSON result {"correct", "attempted", "failed", "metrics"}.  `correct` is
false only when the benchmark could not check an op; every wrong output is a
failed op, listed by cause in the report.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
KERNEL_REF_S = 1e-3  # the calibration kernel's duration in reference time
KERNEL_REPEATS = 3  # a single run is often slowed by the switch from other work
SETUP_RUNS = 7  # fresh interpreters per run; the first only warms the disk cache
WALL_LIMIT_S = 150.0  # stop after the current cycle past this, whatever --seconds says
PROBE = (
    "import sys; sys.path.insert(0, 'src'); import qgalois, qgalois.cli; "
    "qgalois.QContext(0.5); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "passed_ratio": "1",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}


def _pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QGALOIS_EPS", None)  # the CLI would read tolerances from it


def kernel_seconds() -> float:
    """Wall time of the fixed calibration kernel (about 1 ms on a Xeon core),
    the fastest of KERNEL_REPEATS back-to-back runs."""
    return min(_kernel_once() for _ in range(KERNEL_REPEATS))


def _kernel_once() -> float:
    import numpy as np

    m0 = np.array([[2, 1, 0], [0.5, 3, 1], [0, 1, 4]], dtype=complex)
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.4j, 1.0 + 0j
    for _ in range(2200):
        acc *= 1.0 - z
        z *= 0.999
    s = 0j
    for k in range(270):
        s += cmath.exp(0.01j * k) / (1.0 + abs(acc))
    m = m0
    for _ in range(70):
        m = np.linalg.solve(m0, m @ m0) / 3.0
    return time.perf_counter() - t0


def calibrated(run):
    """(run(), scale) with scale = reference seconds per wall second, from the
    kernel timed just before and just after run."""
    k0 = kernel_seconds()
    value = run()
    k1 = kernel_seconds()
    return value, KERNEL_REF_S / (0.5 * (k0 + k1))


def measure_setup() -> list[tuple[float, float]]:
    """(wall seconds, scale) from spawning a fresh interpreter until qgalois is
    imported and a context can be built, SETUP_RUNS - 1 times after one
    warm-up."""
    return [calibrated(_setup_once) for _ in range(SETUP_RUNS)][1:]


def _setup_once() -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=ROOT, stdout=subprocess.PIPE, env=os.environ.copy()
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return t1 - t0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it; the maximum when there are 10 samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
    }


def run_cycles(workload: str, seed: int, seconds: float, tracer=None):
    """Warm up on one cycle, then run whole cycles until the summed op time
    reaches `seconds`.  With a tracer, odd cycles are traced."""
    import workloads as wl

    cyc = wl.cycle_length(workload)
    seen = set()
    warm = wl.op_stream(workload, seed, "warmup")
    for _ in range(cyc):
        op = next(warm)
        seen.add(op.key)
        wl.run_op(workload, op, _timed(None))

    stream = wl.op_stream(workload, seed, "timed")
    start = time.perf_counter()
    ops, outcomes, traced = [], [], []
    op_time, cycle = 0.0, 0
    unchecked = 0
    while True:
        trace_this = tracer is not None and cycle % 2 == 1
        if trace_this:
            tracer.install()
        for _ in range(cyc):
            op = next(stream)
            try:
                outcome = wl.run_op(workload, op, _timed(tracer if trace_this else None))
            except Exception:  # a fault in the checks: count it, keep running
                print(f"unchecked op {op}:\n{traceback.format_exc()}", file=sys.stderr)
                unchecked += 1
                continue
            ops.append(op)
            outcomes.append(outcome)
            traced.append(trace_this)
            op_time += outcome.seconds
        if trace_this:
            tracer.uninstall()
        cycle += 1
        if tracer is not None and cycle % 2 == 1:
            continue  # finish on a traced cycle
        if op_time >= seconds or time.perf_counter() - start > WALL_LIMIT_S:
            break
    return ops, outcomes, traced, seen, unchecked


def _timed(tracer):
    """The op timer: wall time and calibration scale of one call, recorded
    as spans when a tracer is given."""

    def timed(call):
        def run():
            if tracer is not None:
                tracer.begin()
            t0 = time.perf_counter_ns()
            try:
                result, exc = call(), None
            except Exception as e:  # a failed op, never an abort
                result, exc = None, e
            return result, exc, t0, time.perf_counter_ns()

        (result, exc, t0, t1), scale = calibrated(run)
        if tracer is not None:
            tracer.end(t0, t1, scale)
        return result, exc, (t1 - t0) / 1e9, scale

    return timed


def properties(ops, outcomes, seen) -> dict:
    """Measured input properties of the run: reuse, points, radii, mix."""
    reuse = 0
    for op in ops:
        reuse += op.key in seen
        seen.add(op.key)
    points = sum(o.points for o in outcomes)
    evaluated = sum(o.points > 0 for o in outcomes)
    return {
        "equation_reuse_share": reuse / len(ops),
        "points_per_equation": points / max(evaluated, 1),
        "points_beyond_radius_at_0_share": sum(o.beyond_zero for o in outcomes) / max(points, 1),
        "points_beyond_radius_at_infinity_share": sum(o.beyond_infinity for o in outcomes) / max(points, 1),
        "kind_mix": dict(Counter(op.kind for op in ops)),
        "q_mix": dict(Counter(_qtext(op.q) for op in ops)),
    }


def _qtext(q: complex) -> str:
    return f"{q.real:.6g}" if q.imag == 0 else f"{abs(q):.6g}*exp({cmath.phase(q):.6g}i)"


def failure_histogram(ops, outcomes) -> dict:
    by_reason = Counter()
    by_input = Counter()
    for op, o in zip(ops, outcomes):
        for r in o.reasons:
            by_reason[r] += 1
            by_input[f"{op.kind} q={_qtext(op.q)} {r}"] += 1
    return {"by_reason": dict(by_reason), "by_input": dict(sorted(by_input.items()))}


def timings(outcomes, setup_s: list[float], seconds) -> tuple[dict, float]:
    """The four timing metrics, with op times taken by `seconds`, and the
    tail's percentile."""
    passing = [seconds(o) for o in outcomes if o.passed]
    tail_value, tail_pct = tail(passing) if passing else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(passing) / sum(seconds(o) for o in outcomes),
        "call_p50_ms": statistics.median(passing) * 1e3 if passing else 0.0,
        "call_tail_ms": tail_value * 1e3,
    }
    return values, tail_pct


def end_to_end(setup: list[tuple[float, float]], outcomes) -> tuple[dict, dict]:
    """The end-to-end metrics in reference time, and the report's detail with
    their raw wall-clock counterparts."""
    values, tail_pct = timings(outcomes, [w * k for w, k in setup], lambda o: o.ref_seconds)
    raw, _ = timings(outcomes, [w for w, _ in setup], lambda o: o.seconds)
    n_pass = sum(o.passed for o in outcomes)
    values["passed_ratio"] = n_pass / len(outcomes)
    values["accuracy_digits"] = statistics.fmean(o.digits for o in outcomes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "wall_clock": raw,
        "call_tail_percentile": tail_pct,
        "passing_calls": n_pass,
        "samples_beyond_tail": min(10, max(n_pass - 1, 0)),
        "failed_ratio": 1.0 - values["passed_ratio"],
        "timed_wall_s": sum(o.seconds for o in outcomes),
        "mean_scale": statistics.fmean(o.scale for o in outcomes),
        "setup_runs": [{"wall_s": w, "scale": k} for w, k in setup],
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify-mix", "connection-scan", "near-unit-q"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qgalois" / "__init__.py").is_file():
        print(f"error: no qgalois sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    _pin_environment()
    sys.path.insert(0, str(SRC))
    setup = measure_setup()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ops, outcomes, traced, seen, unchecked = run_cycles(args.workload, args.seed, args.seconds, tracer)

    report = {"metadata": metadata(args), "unchecked_ops": unchecked}
    report["properties"] = properties(ops, outcomes, seen)
    report["failures"] = failure_histogram(ops, outcomes)
    if args.trace:
        from tracing import expected_move, metric_names, metric_unit

        plain = [o.ref_seconds for o, t in zip(outcomes, traced) if not t]
        values = tracer.metrics(statistics.fmean(plain) * 1e3)
        units = {name: metric_unit(name) for name in metric_names()}
        report["traced_ops"] = tracer.ops
        report["untraced_ops"] = len(plain)
        report["trace_file"] = write_spans(tracer, args)
        report["expected_moves"] = {name: expected_move(name) for name in metric_names()}
    else:
        values, report["detail"] = end_to_end(setup, outcomes)
        units = END_TO_END
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": unchecked == 0,
        "attempted": len(outcomes) + unchecked,
        "failed": sum(not o.passed for o in outcomes) + unchecked,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def write_spans(tracer, args) -> str:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {"fields": ["op", "span", "parent", "name", "start_ns", "end_ns"], "spans": tracer.kept},
            fh,
        )
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
