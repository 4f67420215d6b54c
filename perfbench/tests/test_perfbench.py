"""Tests of the benchmark itself: seeded inputs, the correctness gate, tracing.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import run
import tracing
import workloads as wl
from qgalois import connection, galois


def _take(workload, seed, n, phase="timed"):
    return list(itertools.islice(wl.op_stream(workload, seed, phase), n))


def _run(workload, op):
    return wl.run_op(workload, op, run._timed(None))


def _first(workload, kind, seed=3):
    return next(op for op in wl.op_stream(workload, seed, "timed") if op.kind == kind)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic(workload):
    n = 2 * wl.cycle_length(workload)
    assert _take(workload, 7, n) == _take(workload, 7, n)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_other_inputs_same_mix(workload):
    n = 2 * wl.cycle_length(workload)
    a, b = _take(workload, 1, n), _take(workload, 2, n)
    assert [(op.kind, op.q) for op in a] == [(op.kind, op.q) for op in b]
    assert all(x.alpha != y.alpha for x, y in zip(a, b))
    assert all(x.z != y.z for x, y in zip(a, b) if x.z)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_equation_repeats(workload):
    ops = _take(workload, 5, 3 * wl.cycle_length(workload))
    ops += _take(workload, 5, wl.cycle_length(workload), phase="warmup")
    assert len({op.key for op in ops}) == len(ops)


def test_expected_verdicts_follow_the_exponents():
    ops = _take("classify-mix", 4, 2 * wl.cycle_length("classify-mix"))
    for op in ops:
        want = "SL3_extended" if op.kind == "i-res" else "GL3"
        assert op.expected_classification() == want


def test_points_stay_in_the_annulus_and_clear_of_the_spirals():
    for workload in ("connection-scan", "near-unit-q"):
        for op in _take(workload, 9, 10):
            absq = abs(op.q)
            for z in op.z:
                assert absq ** 2 * (1 - 1e-12) <= abs(z) <= absq ** -2 * (1 + 1e-12)
                for c in wl._singular_anchors(op):
                    assert wl._spiral_distance(z / c, op.q) >= wl.POINT_CLEARANCE


def test_circle_points_keep_their_gap():
    import random

    rng = random.Random(0)
    for _ in range(200):
        pts = wl._circle_points(rng, 6, wl.EXPONENT_GAP)
        gaps = [wl._dist_to_int(x - y) for x, y in itertools.combinations(pts, 2)]
        assert min(gaps) >= wl.EXPONENT_GAP - 1e-12


@pytest.mark.parametrize("kind", ["i", "i-res", "iii"])
def test_supported_classify_ops_pass(kind):
    outcome = _run("classify-mix", _first("classify-mix", kind))
    assert outcome.passed, outcome.reasons
    assert outcome.residual < wl.CLASSIFY_ACCURACY_MAX


def test_misrouted_pattern_counts_as_failed():
    outcome = _run("classify-mix", _first("classify-mix", "a-pair"))
    assert outcome.reasons == ["check:unsupported_pattern_routed"]


def test_connection_op_passes():
    outcome = _run("connection-scan", _first("connection-scan", "i"))
    assert outcome.passed, outcome.reasons
    assert outcome.points == wl.SCAN_POINTS


def test_gate_catches_flipped_verdict(monkeypatch):
    real = galois.classify

    def flipped(p, ctx):
        r = real(p, ctx)
        other = "GL3" if r.classification == "SL3_extended" else "SL3_extended"
        return dataclasses.replace(r, classification=other)

    monkeypatch.setattr(galois, "classify", flipped)
    outcome = _run("classify-mix", _first("classify-mix", "i"))
    assert "check:verdict" in outcome.reasons


def test_gate_catches_perturbed_twisted_matrix(monkeypatch):
    real = connection.connection_eval

    def perturbed(p, z, ctx, method="both"):
        ev = real(p, z, ctx, method)
        m = ev.P_twisted.copy()
        m[0, 0] *= 1 + 1e-6
        return dataclasses.replace(ev, P_twisted=m)

    monkeypatch.setattr(connection, "connection_eval", perturbed)
    outcome = _run("connection-scan", _first("connection-scan", "i"))
    assert "check:det_mismatch" in outcome.reasons
    assert "check:max_minor_mismatch" in outcome.reasons


def test_gate_catches_misreported_residual(monkeypatch):
    """The determinant is recomputed from the returned matrix, so a wrong
    matrix is caught even when the reported mismatch says all is well."""
    captured = {}
    real_dumps = json.dump

    def lying_dump(obj, fh, **kw):
        for row in obj.get("rows", []):
            row["P_twisted"][0][0]["re"] *= 1 + 1e-6
            row["det_mismatch"] = 0.0
        captured["rows"] = len(obj.get("rows", []))
        return real_dumps(obj, fh, **kw)

    monkeypatch.setattr("qgalois.cli.json.dump", lying_dump)
    outcome = _run("connection-scan", _first("connection-scan", "i"))
    assert captured["rows"] == wl.SCAN_POINTS
    assert "check:det_mismatch" in outcome.reasons


@pytest.mark.parametrize("workload", ["classify-mix", "connection-scan"])
def test_gate_catches_raised_exception(monkeypatch, workload):
    def boom(*args, **kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(galois, "classify", boom)
    monkeypatch.setattr(connection, "connection_eval", boom)
    outcome = _run(workload, _first(workload, "i"))
    assert outcome.reasons == ["exception:KeyError"]
    assert outcome.digits == 0.0


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_tracer_spans_add_up_and_uninstall_restores():
    from qgalois import qseries

    original = qseries.theta
    tracer = tracing.Tracer()
    op = _first("connection-scan", "i")
    tracer.install()
    try:
        assert qseries.theta is not original
        assert connection.theta is qseries.theta
        outcome = wl.run_op("connection-scan", op, run._timed(tracer))
    finally:
        tracer.uninstall()
    assert qseries.theta is original and connection.theta is original
    assert outcome.passed, outcome.reasons
    m = tracer.metrics(untraced_op_ms=0.0)
    assert m["cli.main.self_ms"] > 0
    assert m["connection.connection_eval.calls"] == wl.SCAN_POINTS
    assert m["qseries.qpochhammer_infinite.terms"] > m["qseries.qpochhammer_infinite.calls"]
    assert 0 < m["connection.pochhammer_coefficient.useful_ratio"] <= 1
    self_total = sum(v for k, v in m.items() if k.endswith(".self_ms") and not k.startswith("trace."))
    # per-layer self times cover the op, apart from the layers traced without
    # a self_ms metric (system_matrix) and the harness around the call
    assert self_total <= tracer.op_ns / 1e6 + 1e-9
    assert m["trace.unaccounted_ms"] < 0.05 * tracer.op_ns / 1e6
    assert set(m) == set(tracing.metric_names())


def test_checks_run_untraced():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run("classify-mix", _first("classify-mix", "i"))  # untraced op and checks
    finally:
        tracer.uninstall()
    assert tracer.ops == 0 and not tracer.calls


def test_benchmark_json_lists_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in bench["end_to_end"])


def test_every_layer_metric_says_what_it_should_move():
    for name in tracing.metric_names():
        assert tracing.expected_move(name)


def test_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_outcome_digits():
    assert wl.Outcome(0.1, [], 1e-12).digits == pytest.approx(12.0)
    assert wl.Outcome(0.1, ["check:x"], 3.2).digits == 0.0
    assert wl.Outcome(0.1, [], 0.0).digits == wl.DIGITS_CAP
    assert wl.Outcome(0.1, [], None).digits == 0.0
    assert np.isclose(wl.Outcome(2.0, [], None, scale=0.5).ref_seconds, 1.0)
