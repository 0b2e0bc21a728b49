"""Exit codes, report structure, and determinism of the command line."""

import json

import pytest

from flatdec.cli import SHORTCUT_NOTE, main

from conftest import COUPLED_SYS, SIN_SYS, chain_text


@pytest.fixture
def sin_file(tmp_path):
    p = tmp_path / "sinex.fds"
    p.write_text(SIN_SYS)
    return str(p)


@pytest.fixture
def coupled_file(tmp_path):
    p = tmp_path / "coupled.fds"
    p.write_text(COUPLED_SYS)
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain3.fds"
    p.write_text(chain_text(3))
    return str(p)


# -- analyze -------------------------------------------------------------------------


def test_analyze_reports_annihilator_and_flag(sin_file, tmp_path, capsys):
    report = tmp_path / "a.json"
    assert main(["analyze", sin_file, "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["schema"] == "flatdec/1"
    flag = obj["analysis"]["derived_flag"]
    assert [lvl["dimension"] for lvl in flag] == [3, 1, 0]
    v0 = flag[0]["vertical_annihilator"]
    assert sorted(tuple(d.items()) for d in v0) == \
        [(("u1", "1"),), (("u2", "1"),)]
    assert obj["analysis"]["shortcut"] is None
    out = capsys.readouterr().out
    assert "derived flag dimensions: 3 > 1 > 0" in out


def test_analyze_flags_integrator_chain(chain_file, capsys):
    assert main(["analyze", chain_file]) == 0
    assert SHORTCUT_NOTE in capsys.readouterr().out


def test_analyze_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.fds"
    p.write_text("")
    assert main(["analyze", str(p)]) == 1
    assert "SyntaxError" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.fds")]) == 1


# -- decompose -----------------------------------------------------------------------


def test_decompose_emits_flat_outputs(sin_file, tmp_path, capsys):
    report = tmp_path / "d.json"
    code = main(["decompose", sin_file, "--samples", "5",
                 "--report", str(report)])
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["decomposition"]["status"] == "Triangularized"
    assert obj["certificate"]["outputs"] == ["x3", "x1 - u1*x2/u2"]
    assert obj["certificate"]["order"] == "1-flat"
    out = capsys.readouterr().out
    assert "Triangularized" in out and "x3" in out


def test_decompose_reports_are_byte_identical(sin_file, tmp_path):
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    flags = ["--seed", "3", "--samples", "5", "--verify"]
    assert main(["decompose", sin_file, "--report", str(a)] + flags) == 0
    assert main(["decompose", sin_file, "--report", str(b)] + flags) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decompose_depth_budget_suspends(sin_file, tmp_path):
    report = tmp_path / "d.json"
    code = main(["decompose", sin_file, "--max-depth", "0",
                 "--report", str(report)])
    assert code == 3
    obj = json.loads(report.read_text())
    assert obj["decomposition"]["status"] == "Inconclusive"
    log = obj["decomposition"]["branch_log"]
    assert log and log[0]["kind"] == "depth-limit"
    assert log[0]["outcome"] == "suspended"


def test_decompose_zero_budget_exhausts(coupled_file, tmp_path):
    report = tmp_path / "d.json"
    code = main(["decompose", coupled_file, "--samples", "0",
                 "--report", str(report)])
    assert code == 3
    obj = json.loads(report.read_text())
    assert obj["decomposition"]["status"] == "Inconclusive"


def test_decompose_logs_dead_end(coupled_file, tmp_path):
    report = tmp_path / "d.json"
    assert main(["decompose", coupled_file, "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    kinds = [(e["kind"], e["outcome"])
             for e in obj["decomposition"]["branch_log"]]
    assert ("splitting", "dead_end") in kinds
    assert ("splitting", "success") in kinds


def test_decompose_timings_flag(sin_file, tmp_path):
    report = tmp_path / "d.json"
    assert main(["decompose", sin_file, "--samples", "5", "--timings",
                 "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    assert obj["timings"]["recorded"] is True
    assert obj["timings"]["seconds"]["decompose"] >= 0


# -- verify --------------------------------------------------------------------------


def test_verify_certificate_roundtrip(sin_file, tmp_path, capsys):
    report = tmp_path / "d.json"
    assert main(["decompose", sin_file, "--samples", "5",
                 "--report", str(report)]) == 0
    code = main(["verify", sin_file, "--certificate", str(report),
                 "--samples", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_verify_rejects_wrong_outputs(sin_file, capsys):
    code = main(["verify", sin_file, "--outputs", "x3; x2",
                 "--samples", "5"])
    assert code == 4
    assert "verdict: FAIL" in capsys.readouterr().out


def test_verify_accepts_own_outputs(sin_file, capsys):
    code = main(["verify", sin_file,
                 "--outputs", "x3; x1 - u1*x2/u2", "--samples", "5"])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_verify_without_certificate(sin_file, capsys):
    assert main(["verify", sin_file]) == 1
    assert "missing certificate" in capsys.readouterr().err


def test_verify_missing_certificate_file(sin_file, tmp_path, capsys):
    code = main(["verify", sin_file,
                 "--certificate", str(tmp_path / "nope.json")])
    assert code == 1
    assert "missing certificate" in capsys.readouterr().err


def test_verify_bad_output_expression(sin_file, capsys):
    assert main(["verify", sin_file, "--outputs", "x3; )"]) == 1
    assert "SyntaxError" in capsys.readouterr().err


def test_verify_survives_finite_time_blowup(tmp_path, capsys):
    # x1' = x2 + x1^2 escapes to infinity within the trial window: the
    # reference run overflows, which must make trials singular, not crash
    src = tmp_path / "nlchain.fds"
    src.write_text("system nlchain {\n  states: x1, x2, x3;\n  inputs: u;\n"
                   "  dot(x1) = x2 + x1^2;\n  dot(x2) = x3*x1;\n"
                   "  dot(x3) = u;\n}\n")
    cert = tmp_path / "d.json"
    assert main(["decompose", str(src), "--report", str(cert)]) == 0
    report = tmp_path / "v.json"
    code = main(["verify", str(src), "--certificate", str(cert),
                 "--samples", "3", "--report", str(report)])
    assert code in (0, 4)
    assert "internal error" not in capsys.readouterr().err
    numeric = json.loads(report.read_text())["verification"]["numeric"]
    assert numeric["passed"] + numeric["failed"] + numeric["singular"] == 3
