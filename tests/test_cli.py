"""Command-line surface: parsing, JSON reports, exit codes, determinism."""

import json

import pytest

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
    code, out, _ = _run(
        capsys, "connection", "--q", "0.5",
        "--a", "q^0.1,q^0.2,q^0.4", "--b", "q,q^0.15,q^0.33",
        "--z", "0.7+0.2j,1,q^0.5",
    )
    assert code == 0
    d = json.loads(out)
    assert len(d["rows"]) == 3
    assert "skipped" in d["rows"][1]
    good = d["rows"][0]
    assert good["cross_method_residual"] < 1e-6
    assert good["det_mismatch"] < 1e-8
    assert good["max_minor_mismatch"] < 1e-8


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
