"""Command-line surface: parsing, JSON reports, exit codes, determinism."""

import cmath
import json
import sys

import numpy as np
import pytest

from qgalois import spiral
from qgalois.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_gl3(capsys):
    code, out, _ = _run(
        capsys, "classify", "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33",
    )
    assert code == 0
    d = json.loads(out)
    assert d["classification"] == "GL3"
    assert d["lie_case"] == "i"
    assert d["irreducible"] is True
    assert d["obstruction_residual"] > 0.1
    assert any(g["label"] == "1.a" for g in d["generators"])


def test_classify_extended(capsys):
    code, out, _ = _run(
        capsys, "classify", "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.55",
    )
    assert code == 0
    d = json.loads(out)
    assert d["classification"] == "SL3_extended"
    assert d["scalar_resolution"] == "mu_10 x SL3"


def test_classify_reducible_exit_2(capsys):
    code, out, _ = _run(
        capsys, "classify", "--q", "0.5",
        "--a", "q^1.15,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33",
    )
    assert code == 2
    d = json.loads(out)
    assert d["classification"] == "undetermined"
    assert d["witnesses"]


def test_malformed_parameter_exit_1(capsys):
    code, _, err = _run(
        capsys, "classify", "--q", "0.5", "--a", "q^0.1,bogus", "--b", "q,q^0.15,q^0.33"
    )
    assert code == 1
    assert "error" in err


def test_b1_must_be_q(capsys):
    code, _, err = _run(
        capsys, "classify", "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q^0.5,q^0.15,q^0.33",
    )
    assert code == 1
    assert "first b parameter" in err


def test_verify_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "0.5", "--suite", "theta")
    assert code == 0
    d = json.loads(out)
    assert d["all_passed"] is True
    names = {c["name"] for c in d["checks"]}
    assert "functional_equation" in names


def test_connection_skips_singular_points(capsys):
    argv = ["connection", "--q", "0.5", "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33"]
    code, out, _ = _run(capsys, *argv, "--z", "0.7+0.2j,1,q^0.5,0,nan,-0.6+0.3j")
    assert code == 2  # a skipped point leaves the table undetermined
    rows = json.loads(out)["rows"]
    zs = [complex(r["z"]["re"], r["z"]["im"]) for r in rows]
    assert zs[:4] == [0.7 + 0.2j, 1, 0.5 ** 0.5, 0] and cmath.isnan(zs[4]) and zs[5] == -0.6 + 0.3j
    # the batch raises, so each point is evaluated alone and only its row skipped
    assert [r.get("skipped") for r in rows] == [
        None,
        "PoleError: qcharacter pole: lam*z within 0.00e+00 of q^Z",
        None,
        "DomainError: evaluation points must be finite and nonzero",
        "DomainError: evaluation points must be finite and nonzero",
        None,
    ]
    good = [rows[k] for k in (0, 2, 5)]
    for row in good:
        assert row["cross_method_residual"] < 1e-6
        assert row["det_mismatch"] < 1e-8
        assert row["max_minor_mismatch"] < 1e-8
    code, out, _ = _run(capsys, *argv, "--z", "0.7+0.2j,q^0.5,-0.6+0.3j")
    assert code == 0
    for row, ref in zip(good, json.loads(out)["rows"]):
        assert row.keys() == ref.keys()
        for key in ("P", "P_twisted"):
            m, r = _matrix(row[key]), _matrix(ref[key])
            assert np.max(np.abs(m - r)) <= 1e-14 * np.max(np.abs(r))
        for key in ("det_numeric", "det_closed_form"):
            m, r = _complex(row[key]), _complex(ref[key])
            assert abs(m - r) <= 1e-14 * abs(r)
        for key in ("cross_method_residual", "det_mismatch", "max_minor_mismatch"):
            assert abs(row[key] - ref[key]) <= 1e-14 * ref[key]


def _complex(v):
    return complex(v["re"], v["im"])


def _matrix(rows):
    return np.array([[_complex(v) for v in row] for row in rows])


@pytest.mark.parametrize("a, b, code, skipped", [
    ("q^0.1,q^0.2,q^0.4", "q,q^0.15,q^0.33", 0, 0),  # case i: every row computed
    ("q^0.3,q^0.3,q^0.3", "q,q,q", 2, 2),  # case iv: no closed form, every row skipped
])
def test_connection_exit_code_reflects_skipped_rows(capsys, a, b, code, skipped):
    got, out, _ = _run(
        capsys, "connection", "--q", "0.5", "--a", a, "--b", b, "--z", "0.6+0.3j,0.7+0.2j",
    )
    rows = json.loads(out)["rows"]
    assert got == code
    assert len(rows) == 2
    assert sum("skipped" in row for row in rows) == skipped


@pytest.mark.parametrize("zs", [",", "", " , "])
def test_connection_without_points_exit_1(capsys, zs):
    code, out, err = _run(
        capsys, "connection", "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33", "--z", zs,
    )
    assert code == 1
    assert out == "" and "--z" in err


def test_output_deterministic(capsys):
    _, out1, _ = _run(capsys, "verify", "--q", "0.5", "--suite", "characters", "--seed", "7")
    _, out2, _ = _run(capsys, "verify", "--q", "0.5", "--suite", "characters", "--seed", "7")
    assert out1 == out2


@pytest.mark.parametrize("command", [
    ["classify"],
    ["connection", "--z", "0.7+0.2j"],
])
def test_seed_only_on_verify(capsys, command):
    code, _, err = _run(
        capsys, *command, "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33", "--seed", "3",
    )
    assert code == 1
    assert "--seed" in err


def test_text_format(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "0.5", "--suite", "theta", "--format", "text")
    assert code == 0
    assert "all_passed: True" in out


CASE_I = ("--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33")


@pytest.mark.parametrize("flag", ["--eps-trunc", "--eps-spiral"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1", "2"])
def test_tolerance_outside_unit_interval_exit_1(capsys, flag, value):
    code, out, err = _run(capsys, "classify", "--q", "0.5", *CASE_I, f"{flag}={value}")
    assert code == 1 and out == ""
    assert err.startswith("error: tolerances must be finite and in (0, 1)")


@pytest.mark.parametrize("q", ["0.5,0.1,0.2", "0.5,,0.1"])
def test_q_with_extra_commas_exit_1(capsys, q):
    code, out, err = _run(capsys, "classify", "--q", q, *CASE_I)
    assert code == 1 and out == ""
    assert err.startswith("error: --q")


@pytest.mark.parametrize("a", ["nan,q^0.2,q^0.4", "q^0.1,inf,q^0.4", "q^0.1,q^0.2,nan+1j"])
def test_nonfinite_parameter_exit_1(capsys, a):
    code, out, err = _run(capsys, "classify", "--q", "0.5", "--a", a, "--b", "q,q^0.15,q^0.33")
    assert code == 1 and out == ""
    assert err == "error: parameters must be finite and nonzero\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_connection_skips_point_at_zero_and_nonfinite(capsys):
    code, out, _ = _run(capsys, "connection", "--q", "0.5", *CASE_I, "--z", "0,0.7+0.2j,nan,inf")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert ["skipped" in row for row in rows] == [True, False, True, True]
    assert rows[0]["skipped"] == "DomainError: evaluation points must be finite and nonzero"


@pytest.mark.parametrize("a, b, expected", [
    ("q^0.1,q^0.2,q^0.4", "q,q^0.15,q^0.33", 22),  # case i
    ("q^0.3,q^0.3,q^0.3", "q,q,q", 34),  # case iv
])
def test_classify_runs_irreducibility_once(capsys, monkeypatch, a, b, expected):
    # spiral_distances come from the report's verdict: irreducibility (9
    # calls) runs once, with spiral_pattern twice (classify_case and the
    # equation record) and the extended-SL3 test; case iv adds the pattern
    # checks of both logarithmic local solutions
    real = spiral.in_q_spiral
    calls = []

    def counting(c, ctx):
        calls.append(c)
        return real(c, ctx)

    for name, module in list(sys.modules.items()):
        if name.startswith("qgalois") and getattr(module, "in_q_spiral", None) is real:
            monkeypatch.setattr(module, "in_q_spiral", counting)
    code, out, _ = _run(capsys, "classify", "--q", "0.5", "--a", a, "--b", b)
    assert code == 0
    assert len(json.loads(out)["spiral_distances"]) == 9
    assert len(calls) == expected
