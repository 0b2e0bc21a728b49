"""Exit codes, report structure, and determinism of the command line."""

import contextlib
import gc
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from flatdec.cli import SHORTCUT_NOTE, _build_parser, main

from conftest import COUPLED_SYS, SIN_SYS, chain_text

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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
def nlchain_file(tmp_path):
    # x1' = x2 + x1^2 escapes to infinity within the trial window
    p = tmp_path / "nlchain.fds"
    p.write_text("system nlchain {\n  states: x1, x2, x3;\n  inputs: u;\n"
                 "  dot(x1) = x2 + x1^2;\n  dot(x2) = x3*x1;\n"
                 "  dot(x3) = u;\n}\n")
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


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_undefined_everywhere_exits_1(tmp_path, capsys, command):
    # 4*x1*x2 >= 1 on the whole 50-digit sample box [1/2, 2]^2, so arcsin
    # is undefined at every point and no rank can be decided
    p = tmp_path / "asin.fds"
    p.write_text("system asin {\n  states: x1, x2;\n  inputs: u;\n"
                 "  dot(x1) = arcsin(4*x1*x2);\n  dot(x2) = u;\n}\n")
    assert main([command, str(p)]) == 1
    err = capsys.readouterr().err
    assert "RankDecisionFailed" in err and "undefined at every sample" in err
    assert "internal error" not in err


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


def test_in_process_runs_start_cold(coupled_file, tmp_path, monkeypatch):
    # mirrors perfbench/selftest.py: back-to-back runs in one process make
    # the same zero tests and write the same bytes, and symexpr keeps no
    # module-level cache (sample values live on the expression nodes, and
    # the intern table holds only live nodes)
    from flatdec import linalg, symexpr
    zero_test, calls = linalg.is_zero, []

    def counting(*args, **kwargs):
        calls[-1] += 1
        return zero_test(*args, **kwargs)

    def containers():
        return {k: len(v) for k, v in vars(symexpr).items()
                if not k.startswith("__") and isinstance(v, (dict, list, set))}

    def interned():
        return {ref() for ref in symexpr._NODES.values()}

    monkeypatch.setattr(linalg, "is_zero", counting)
    gc.collect()
    # the module constants, and the nodes other test modules hold
    live = interned()
    assert {symexpr.ZERO, symexpr.ONE, symexpr.MINUS_ONE} <= live
    before, reports = containers(), []
    for i in range(2):
        calls.append(0)
        report = tmp_path / f"r{i}.json"
        assert main(["decompose", coupled_file, "--report", str(report)]) == 0
        reports.append(report.read_bytes())
        gc.collect()
        assert interned() == live
    assert reports[0] == reports[1]
    assert calls[0] == calls[1] > 0
    assert containers() == before
    # the finalizers drop dead entries from both weak intern tables
    for table in (symexpr._NODES, symexpr._SYMBOLS):
        assert all(ref() is not None for ref in table.values())
    assert not hasattr(symexpr, "clear_zero_cache")
    assert all(c._memo is None
               for c in (symexpr.ZERO, symexpr.ONE, symexpr.MINUS_ONE))


_INTERNED_AFTER = """
import gc, sys
from flatdec import symexpr
from flatdec.cli import main
system, report = sys.argv[1:]
for argv in (["analyze", system], ["decompose", system, "--verify"]):
    assert main(argv + ["--samples", "2", "--report", report]) == 0
    gc.collect()
    print("interned:", sorted(ref().key for ref in symexpr._NODES.values()))
"""


def test_commands_leave_only_the_constants_interned(coupled_file, tmp_path):
    # in a fresh interpreter, nothing a command builds outlives it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _INTERNED_AFTER, coupled_file,
         str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    interned = [line for line in done.stdout.splitlines()
                if line.startswith("interned:")]
    constants = "interned: " + str([("c", (-1, 1)), ("c", (0, 1)),
                                    ("c", (1, 1))])
    assert interned == [constants, constants]


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_decompose_rejects_zero_samples(coupled_file, tmp_path, capsys):
    # a zero-test budget of 0 would decide every rank with no evidence
    report = tmp_path / "d.json"
    for value in ("0", "-3"):
        err = _usage_error(["decompose", coupled_file, "--samples", value,
                            "--report", str(report)], capsys)
        assert f"argument --samples: must be at least 1, got {value}" in err
    assert not report.exists()


def test_decompose_rejects_negative_max_degree(sin_file, capsys):
    err = _usage_error(["decompose", sin_file, "--max-degree", "-1"], capsys)
    assert "argument --max-degree: must be at least 0, got -1" in err


def test_decompose_rejects_bad_search_budgets(sin_file, tmp_path, capsys):
    # every level lowers the dimension, so the system bounds the depth
    report = tmp_path / "d.json"
    err = _usage_error(["decompose", sin_file, "--max-depth", "8",
                        "--report", str(report)], capsys)
    assert "unrecognized arguments: --max-depth 8" in err
    # a level yields at most two splittings, so there is no width to set
    err = _usage_error(["decompose", sin_file, "--branch-width", "8",
                        "--report", str(report)], capsys)
    assert "unrecognized arguments: --branch-width 8" in err
    assert not report.exists()


def test_in_process_calls_share_one_parser_and_keep_no_state(
        sin_file, tmp_path, capsys):
    assert _build_parser() is _build_parser()
    checked, plain = tmp_path / "checked.json", tmp_path / "plain.json"
    argv = ["decompose", sin_file, "--samples", "3"]
    assert main(argv + ["--verify", "--report", str(checked)]) == 0
    assert main(argv + ["--report", str(plain)]) == 0
    assert json.loads(checked.read_text())["config"]["verify"] is True
    assert json.loads(plain.read_text())["config"]["verify"] is False
    # a usage error that has already read some flags leaves none behind
    again = tmp_path / "again.json"
    _usage_error(argv + ["--verify", "--seed", "7", "--max-degree", "-1",
                         "--report", str(again)], capsys)
    assert main(argv + ["--report", str(again)]) == 0
    assert again.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("name, parent, level, count, exhausted, ends", [
    ("nfd", None, 0, 512, True, None),
    ("sinex", None, 0, 9, False, (["1", "0"], ["u1", "1"])),
    ("coupled", 0, 1, 1, True, None),
])
def test_decompose_summarises_the_ansatz_scan(name, parent, level, count,
                                              exhausted, ends, tmp_path):
    # the scan's candidates whose field is not characteristic are counted in
    # one entry per level, not logged one by one
    report = tmp_path / "d.json"
    code = main(["decompose", str(DATA / f"{name}.fds"),
                 "--report", str(report)])
    assert code == (3 if name == "nfd" else 0)
    log = json.loads(report.read_text())["decomposition"]["branch_log"]
    scans = [e for e in log if e["kind"] == "ansatz"]
    assert all("c" not in e for e in scans)
    assert len({(e["parent"], e["level"]) for e in scans}) == len(scans)
    scan, = [e for e in scans if (e["parent"], e["level"]) == (parent, level)]
    assert scan["outcome"] == "rejected" and scan["count"] == count
    assert scan["note"].startswith("no admissible splitting within 512 ") \
        == exhausted
    if ends:
        assert (scan["first"], scan["last"]) == ends
    if name == "nfd":
        assert report.stat().st_size < 10_000


def test_decompose_logs_dead_end(coupled_file, tmp_path):
    report = tmp_path / "d.json"
    assert main(["decompose", coupled_file, "--report", str(report)]) == 0
    obj = json.loads(report.read_text())
    kinds = [(e["kind"], e["outcome"])
             for e in obj["decomposition"]["branch_log"]]
    assert ("splitting", "dead_end") in kinds
    assert ("splitting", "success") in kinds


def test_decompose_verify_exit_code_follows_the_verdict(
        sin_file, nlchain_file, tmp_path, capsys):
    # every nlchain trial is singular: FAIL exits 4, after the report
    report = tmp_path / "nl.json"
    assert main(["decompose", nlchain_file, "--verify", "--samples", "3",
                 "--report", str(report)]) == 4
    assert "verdict: FAIL" in capsys.readouterr().out
    numeric = json.loads(report.read_text())["verification"]["numeric"]
    assert numeric["singular"] == 3 and not numeric["ok"]
    assert main(["decompose", sin_file, "--verify", "--samples", "3"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


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


@pytest.mark.parametrize("claim, count", [("x3", 1), ("x3; x1; x2", 3),
                                          ("", 0), (" ; ", 0)])
def test_verify_rejects_output_count_mismatch(sin_file, tmp_path, capsys,
                                              claim, count):
    report = tmp_path / "v.json"
    code = main(["verify", sin_file, "--outputs", claim, "--samples", "5",
                 "--report", str(report)])
    assert code == 4
    assert "output count mismatch" in capsys.readouterr().err
    verification = json.loads(report.read_text())["verification"]
    assert verification["numeric"] == {
        "error": f"{count} claimed flat outputs for 2 inputs"}
    assert verification["ok"] is False


def test_verify_rejects_a_block_with_an_extra_flat_output(sin_certificate,
                                                          capsys):
    # a coordinate added to the chart and listed as a block-1 output: three
    # flat-output coordinates for two inputs, and two curves to recover from
    d, text = sin_certificate
    obj = json.loads(text)
    cert = obj["certificate"]
    cert["chart"].append("w")
    cert["blocks"][0]["outputs"].append("w")
    cert["transform"]["inverse"]["w"] = "0"
    (d / "extra.json").write_text(json.dumps(obj))
    code = main(["verify", str(d / "sinex.fds"),
                 "--certificate", str(d / "extra.json"), "--samples", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert "blocks list 3 flat outputs for 2 inputs" in err
    assert "internal error" not in err


def test_a_chart_coordinate_named_like_a_jet_verifies_the_same(
        sin_certificate, capsys):
    # a jet is a symbol of its own kind, so a chart coordinate renamed to
    # another coordinate's first jet (r1 to r2_d1) is not mistaken for it
    d, text = sin_certificate
    obj = json.loads(text)
    first, second = obj["certificate"]["chart"][:2]
    renamed = re.sub(rf"\b{first}\b", f"{second}_d1",
                     json.dumps(obj["certificate"]))
    assert renamed.count(f"{second}_d1") > 2
    numeric = {}
    for name, cert in (("orig", obj["certificate"]),
                       ("renamed", json.loads(renamed))):
        (d / f"{name}.json").write_text(json.dumps(cert))
        report = d / f"{name}.report.json"
        code = main(["verify", str(d / "sinex.fds"), "--certificate",
                     str(d / f"{name}.json"), "--samples", "4",
                     "--report", str(report)])
        assert code == 0
        numeric[name] = json.loads(report.read_text())["verification"][
            "numeric"]
    capsys.readouterr()
    counts = ("trials", "passed", "failed", "singular")
    assert [numeric["renamed"][k] for k in counts] == \
        [numeric["orig"][k] for k in counts] == [4, 4, 0, 0]


def test_verify_accepts_own_outputs(sin_file, capsys):
    code = main(["verify", sin_file,
                 "--outputs", "x3; x1 - u1*x2/u2", "--samples", "5"])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_verify_without_certificate(sin_file, capsys):
    assert main(["verify", sin_file]) == 1
    assert "missing certificate" in capsys.readouterr().err


def test_verify_takes_a_certificate_or_outputs_not_both(sin_file, tmp_path,
                                                        capsys):
    # a claim passed next to a certificate would go unchecked
    report = tmp_path / "d.json"
    assert main(["decompose", sin_file, "--samples", "5",
                 "--report", str(report)]) == 0
    err = _usage_error(["verify", sin_file, "--certificate", str(report),
                        "--outputs", "x3; x2"], capsys)
    assert "argument --outputs: not allowed with argument --certificate" in err


# decompose at seed 0 on every fast fixture: status, then the certificate's
# order and number of flat outputs (None for an Inconclusive search); a new
# fixture fails the test below until it is listed here
FIXTURE_SHAPES = {
    "car": ("Triangularized", "0-flat", 2),
    "chain4": ("Triangularized", "0-flat", 1),
    "chained5": ("Triangularized", "0-flat", 2),
    "coupled": ("Triangularized", "1-flat", 2),
    "gb3": ("Triangularized", "0-flat", 2),
    "gb6": ("Triangularized", "0-flat", 2),
    "gc11": ("Triangularized", "0-flat", 2),
    "gch1": ("Inconclusive", None, None),
    "nfd": ("Inconclusive", None, None),
    "nfd2": ("Inconclusive", None, None),
    "nfd3": ("Inconclusive", None, None),
    "nfd4": ("Inconclusive", None, None),
    "ruled": ("Triangularized", "1-flat", 2),
    "sinex": ("Triangularized", "1-flat", 2),
    "three": ("Triangularized", "0-flat", 3),
    "trailer1": ("Triangularized", "0-flat", 2),
    "unicycle": ("Triangularized", "0-flat", 2),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.fds")))
def test_fixture_decompose_status_and_certificate_shape(name, tmp_path,
                                                        capsys):
    report = tmp_path / "d.json"
    code = main(["decompose", str(DATA / f"{name}.fds"), "--seed", "0",
                 "--report", str(report)])
    capsys.readouterr()
    status, order, count = FIXTURE_SHAPES[name]
    assert code == (0 if status == "Triangularized" else 3)
    obj = json.loads(report.read_text())
    assert obj["decomposition"]["status"] == status
    cert = obj.get("certificate")
    if order is None:
        assert cert is None
    else:
        assert (cert["order"], len(cert["outputs"])) == (order, count)


@pytest.mark.parametrize("name, claim", [
    ("car", "x; y"), ("trailer1", "x - cos(th1); y - sin(th1)")])
@pytest.mark.xfail(strict=True, reason=(
    "all 6 trials singular: the claim is checked against the search's "
    "blocks (ROADMAP item 4), and ph crosses pi/2 inside [0, 1] (item 6)"))
def test_verify_passes_the_textbook_flat_outputs(name, claim, capsys):
    assert main(["verify", str(DATA / f"{name}.fds"), "--outputs", claim,
                 "--samples", "6"]) == 0


@pytest.mark.xfail(strict=True, reason=(
    "0 passed, 5 failed, 1 singular of 6 trials: the claim is checked "
    "against the search's blocks (ROADMAP item 4)"))
def test_verify_passes_the_pvtol_textbook_flat_outputs(capsys):
    # the planar VTOL aircraft with eps = 1/2
    assert main(["verify", str(DATA / "slow" / "pvtol.fds"), "--outputs",
                 "x - sin(th)/2; z + cos(th)/2", "--samples", "6"]) == 0


@pytest.mark.parametrize("name, outputs, checks", [
    ("gb3", ["x1 - (-4*x2 - 1)*x2 - 2*x2^2", "x3"], 8),
    ("gb6", ["x1 - x2 - x3*x4", "x4"], 11),
    ("ruled", ["x2", "x1 - x3/u2"], 11)])
def test_generated_systems_pass_at_every_seed(name, outputs, checks,
                                              tmp_path, capsys):
    # gb3 and gb6 are flat by construction, and an Xi^1 coefficient of each
    # mentions a coordinate of a later block that cancels out of it; ruled
    # is nfd's flat counterpart, its dot(x3) = dot(x1)*dot(x2) a ruled
    # surface where nfd's dot(x1)^2 + dot(x2)^2 is not
    for seed in range(4):
        report = tmp_path / f"{seed}.json"
        code = main(["decompose", str(DATA / f"{name}.fds"), "--verify",
                     "--samples", "6", "--seed", str(seed),
                     "--report", str(report)])
        capsys.readouterr()
        assert code == 0, seed
        obj = json.loads(report.read_text())
        structure = obj["verification"]["structure"]
        assert len(structure) == checks, seed
        assert all(item["ok"] for item in structure), seed
        assert obj["verification"]["numeric"]["passed"] == 6, seed
        assert obj["certificate"]["outputs"] == outputs, seed


def test_gc11_triangularizes_with_every_structure_check(tmp_path, capsys):
    # gc11's flow fields have components that mention coordinates they do
    # not depend on; read off .free, the search ended Inconclusive.  Its
    # numeric trials are all singular, so the verdict is not asserted
    report = tmp_path / "gc11.json"
    main(["decompose", str(DATA / "gc11.fds"), "--verify", "--samples", "2",
          "--seed", "0", "--report", str(report)])
    capsys.readouterr()
    obj = json.loads(report.read_text())
    assert obj["decomposition"]["status"] == "Triangularized"
    structure = obj["verification"]["structure"]
    assert len(structure) == 10 and all(item["ok"] for item in structure)


def test_verify_missing_certificate_file(sin_file, tmp_path, capsys):
    code = main(["verify", sin_file,
                 "--certificate", str(tmp_path / "nope.json")])
    assert code == 1
    assert "missing certificate" in capsys.readouterr().err


@pytest.fixture
def sin_report(sin_file, tmp_path):
    path = tmp_path / "sinex-report.json"
    assert main(["decompose", sin_file, "--report", str(path)]) == 0
    return json.loads(path.read_text())


def _misshape(cert, case):
    if case == "duplicate-equation":
        cert["equations"][0].append(dict(cert["equations"][0][0]))
    elif case == "no-equations":
        cert["equations"] = []
    elif case == "empty-solved":
        cert["blocks"][1]["solved"] = []
    elif case == "empty-block":
        cert["equations"][1] = []
        cert["blocks"][2]["solved"] = []
    elif case == "wrong-index":
        cert["blocks"][2]["index"] = 7
    elif case == "output-dropped":
        cert["blocks"][0]["outputs"] = []
    elif case == "chart-duplicate":
        cert["chart"].append(cert["chart"][0])
    elif case == "chart-time":
        cert["chart"][0] = "t"
    elif case == "index-true":
        cert["blocks"][0]["index"] = True
    elif case in ("order-relabelled", "order-unknown"):
        cert["order"] = "0-flat" if case == "order-relabelled" else "2-flat"
    elif case == "solved-in-block-1":
        cert["blocks"][0]["solved"] = list(cert["blocks"][1]["solved"])
        cert["blocks"][1]["solved"] = []
    else:
        cert["blocks"][1]["outputs"].append(cert["blocks"][0]["outputs"][0])


@pytest.mark.parametrize("case, message", [
    ("not-json", "certificate is not JSON"),
    ("missing-key", "missing field chart"),
    ("wrong-schema", "field schema must be 'flatdec/1'"),
    ("duplicate-equation", "blocks[1].solved names 1 variables for 2"),
    ("no-equations", "blocks has 4 entries for 0 equation blocks"),
    ("empty-solved", "blocks[1].solved names 0 variables for 1"),
    ("empty-block", "equations[1] is empty"),
    ("wrong-index", "blocks[2].index must be 3, got 7"),
    ("solved-in-block-1", "blocks[0].solved names 1 variables for 0"),
    ("coordinate-twice", "blocks[1] names"),
    ("chart-duplicate", "field chart names"),
    ("chart-time", "field chart names t, which is reserved for time"),
    ("output-dropped", "which no block lists"),
    ("index-true", "field blocks[0].index must be an integer"),
    ("order-relabelled", "field order must be '1-flat'"),
    ("order-unknown", "field order must be '1-flat'"),
])
def test_verify_malformed_certificate_exits_1(sin_file, sin_report, tmp_path,
                                              capsys, case, message):
    cert = tmp_path / "bad.json"
    if case == "not-json":
        cert.write_text("{\"schema\": \"flatdec/1\", ")
    else:
        if case == "missing-key":
            del sin_report["certificate"]["chart"]
        elif case == "wrong-schema":
            sin_report["schema"] = "flatdec/0"
        else:
            _misshape(sin_report["certificate"], case)
        cert.write_text(json.dumps(sin_report))
    capsys.readouterr()
    assert main(["verify", sin_file, "--certificate", str(cert)]) == 1
    err = capsys.readouterr().err
    assert "CertificateError" in err and message in err
    assert "internal error" not in err


@pytest.fixture(scope="module")
def sin_certificate(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "sinex.fds").write_text(SIN_SYS)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decompose", str(d / "sinex.fds"),
                     "--report", str(d / "d.json")]) == 0
    return d, (d / "d.json").read_text()


def _lists(cert):
    """Every list of the certificate that the fuzz may drop, duplicate or
    shuffle entries of."""
    out = [cert["chart"], cert["blocks"], cert["equations"], cert["outputs"]]
    for b in cert["blocks"]:
        out += [b["solved"], b["outputs"]]
    return out + cert["equations"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["drop", "dup", "shuffle"]),
                          st.integers(0, 2**32)), min_size=1, max_size=3))
def test_fuzzed_certificate_never_crashes(sin_certificate, edits):
    d, text = sin_certificate
    obj = json.loads(text)
    for op, seed in edits:
        rng = random.Random(seed)
        lst = rng.choice(_lists(obj["certificate"]))
        if op == "shuffle" or not lst:
            rng.shuffle(lst)
        elif op == "drop":
            lst.pop(rng.randrange(len(lst)))
        else:
            lst.insert(rng.randrange(len(lst) + 1),
                       json.loads(json.dumps(rng.choice(lst))))
    (d / "m.json").write_text(json.dumps(obj))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", str(d / "sinex.fds"),
                     "--certificate", str(d / "m.json"), "--samples", "2"])
    assert code in (0, 1, 4)
    assert "internal error" not in err.getvalue()


def test_verify_bad_output_expression(sin_file, capsys):
    assert main(["verify", sin_file, "--outputs", "x3; )"]) == 1
    assert "SyntaxError" in capsys.readouterr().err


def test_verify_survives_finite_time_blowup(nlchain_file, tmp_path, capsys):
    # the reference run overflows, which must make trials singular, not crash
    cert = tmp_path / "d.json"
    assert main(["decompose", nlchain_file, "--report", str(cert)]) == 0
    report = tmp_path / "v.json"
    code = main(["verify", nlchain_file, "--certificate", str(cert),
                 "--samples", "3", "--report", str(report)])
    assert code in (0, 4)
    assert "internal error" not in capsys.readouterr().err
    numeric = json.loads(report.read_text())["verification"]["numeric"]
    assert numeric["passed"] + numeric["failed"] + numeric["singular"] == 3


# -- every command -------------------------------------------------------------------


def test_every_zero_test_uses_the_command_line_budget_and_seed(
        sin_file, tmp_path, monkeypatch, capsys):
    # the input check, the search, assembly and the structure checks all
    # decide with --samples and --seed, none with a context of their own
    from flatdec import linalg
    zero_test, seen = linalg.is_zero, []

    def recording(e, budget, seed):
        seen[-1].add((budget, seed))
        return zero_test(e, budget, seed)

    monkeypatch.setattr(linalg, "is_zero", recording)
    report = tmp_path / "d.json"
    flags = ["--seed", "7", "--samples", "3"]
    for argv in (["analyze", sin_file],
                 ["decompose", sin_file, "--verify", "--report", str(report)],
                 ["verify", sin_file, "--certificate", str(report)]):
        seen.append(set())
        assert main(argv + flags) == 0, argv
        assert seen[-1] == {(3, 7)}, argv
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["analyze"], ["decompose"], ["decompose", "--verify"],
    ["verify", "--outputs", "x1; x2"], ["verify", "--certificate", "CERT"]])
def test_dependent_inputs_exit_1_without_a_report(tmp_path, capsys, command):
    p = tmp_path / "dep.fds"
    p.write_text("system dep {\n  states: x1, x2;\n  inputs: u1, u2;\n"
                 "  dot(x1) = u1 + u2;\n  dot(x2) = 2*u1 + 2*u2;\n}\n")
    cert = tmp_path / "cert.json"
    cert.write_text("{}")
    report = tmp_path / "r.json"
    cmd, *flags = [str(cert) if a == "CERT" else a for a in command]
    assert main([cmd, str(p), *flags, "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SemanticError: inputs are dependent")
    assert not report.exists()
