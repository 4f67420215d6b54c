"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py --seeds 1-10 --seconds 25 [--workload NAME ...]
                                 [--traced] [--out FILE --label TEXT]

The one command for all workloads: runs perfbench/run.py once per
(workload, seed), one run at a time, and prints per workload and metric,
with its unit, the median, the quartiles and the spread (q3 - q1) /
median, flagging each spread that is not below a third of the metric's bound
in BENCHMARK.json.  With --out, appends the summary as one point of the
trajectory file (created if missing), with the runs' metadata, failure
histograms and workload properties; --traced adds one traced run per
workload for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l[len("report: "):]) for l in lines if l.startswith("report: "))
    return report, json.loads(lines[-1])


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    point = {"label": args.label, "seeds": seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, s, args.seconds, 0) for s in seeds(args.seeds)]
        metrics = {name: summarise([r[1]["metrics"][name]["value"] for r in runs]) for name in bounds}
        by_reason, by_input = Counter(), Counter()
        for report, _ in runs:
            by_reason.update(report["failures"]["by_reason"])
            by_input.update(report["failures"]["by_input"])
        wall = {name: statistics.median(r[0]["detail"]["wall_clock"][name] for r in runs)
                for name in runs[0][0]["detail"]["wall_clock"]}
        entry = {
            "metrics": metrics,
            "wall_clock_medians": wall,
            "call_tail_percentile_median": statistics.median(
                r[0]["detail"]["call_tail_percentile"] for r in runs),
            "attempted": sum(r[1]["attempted"] for r in runs),
            "failed": sum(r[1]["failed"] for r in runs),
            "correct": all(r[1]["correct"] for r in runs),
            "failures_by_reason": dict(by_reason),
            "failures_by_input": dict(sorted(by_input.items())),
            "properties": runs[0][0]["properties"],
            "metadata": runs[0][0]["metadata"],
        }
        print(f"== {workload}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for name, s in metrics.items():
            flag = ""
            if name != "setup_s" and s["spread"] >= bounds[name] / 3:
                flag, steady = "  <-- spread >= bound/3", False
            print(f"  {name:16s} median {s['median']:.6g} {units[name]}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.traced:
            _, result = run(workload, point["seeds"][0], args.seconds, 1)
            layer = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer"] = layer
            # top-level spans cover the op time to within the tracing overhead
            entry["trace_spans_cover_ops"] = layer["trace.unaccounted_ms"] <= layer["trace.overhead_ms"]
        point["workloads"][workload] = entry
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {"points": []}
        data["points"].append(point)
        path.write_text(json.dumps(data, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
