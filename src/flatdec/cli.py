"""Command line front end: analyze, decompose, and verify system files.

Each command reads a .fds file, prints a short plain-text summary, and can
write a JSON report (--report).  Reports are deterministic for a fixed seed:
keys sorted, two-space indent, wall-clock timings only on request.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import stat
import sys
import time

from .decompose import run_decomposition
from .exterior import Chart, ChartTransform, T, oneform
from .linalg import RankDecisionFailed, ZeroCtx
from .pfaffian import derived_flag, from_control_system, is_involutive
from .symexpr import AUX, Symbol
from .sysdsl import (
    ParseError, SemanticError, check_inputs_independent, field_dict,
    form_dict, parse_expr, parse_system, render,
)
from .triangular import (
    Block, FlatnessCertificate, OutputCountMismatch, StructureViolation,
    TriangularDecomposition, check_shape, extract_flat_output, flat_order,
    from_sequence, validate, verify_flatness_numeric,
)

SHORTCUT_NOTE = "static-feedback-linearizable shortcut applicable"
SCHEMA = "flatdec/1"


def _read_system(path: str, zc: ZeroCtx):
    """The file's text and system, its inputs checked with the command's
    zero test."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cs = parse_system(text)
    check_inputs_independent(cs, zc)
    return text, cs


def _base_report(command: str, path: str, text: str, cs, args) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "input": {
            "path": path,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "system": cs.name,
            "states": [s.name for s in cs.states],
            "inputs": [s.name for s in cs.inputs],
            "dynamics": {s.name: render(f)
                         for s, f in zip(cs.states, cs.dynamics)},
        },
        "config": {
            "seed": args.seed,
            **({"samples": args.samples} if "samples" in args else {}),
            "verify": bool(getattr(args, "verify", False)),
        },
        "timings": {"recorded": False},
    }


def _emit(report: dict, args, timer: dict) -> None:
    if args.timings:
        report["timings"] = {"recorded": True,
                             "seconds": {k: round(v, 6)
                                         for k, v in timer.items()}}
    if args.report:
        data = (json.dumps(report, sort_keys=True, indent=2,
                           ensure_ascii=False) + "\n").encode("utf-8")
        # on ext4, truncating a file written moments ago waits tens of ms
        # for its writeback: write over the old report instead, then cut a
        # regular file (not a FIFO or a device) to the new length
        with open(os.open(args.report, os.O_WRONLY | os.O_CREAT, 0o666),
                  "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
        print(f"report written to {args.report}")


# -- analyze -------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    zc = ZeroCtx(args.seed)
    text, cs = _read_system(args.file, zc)
    S0 = from_control_system(cs, zc)
    levels = []
    for k, (P, V, tabs) in enumerate(derived_flag(S0, zc)):
        levels.append({
            "level": k,
            "dimension": P.dim,
            "generators": [form_dict(g) for g in P.generators],
            "vertical_annihilator": [field_dict(v) for v in V],
            "integrable_with_dt": is_involutive(P, tabs, zc),
        })
    shortcut = levels[-1]["dimension"] == 0 and all(
        l["integrable_with_dt"] for l in levels)
    report = _base_report("analyze", args.file, text, cs, args)
    report["analysis"] = {
        "pfaffian_dimension": S0.dim,
        "chart": [s.name for s in S0.chart.coords],
        "derived_flag": levels,
        "shortcut": SHORTCUT_NOTE if shortcut else None,
    }

    dims = " > ".join(str(l["dimension"]) for l in levels)
    print(f"{cs.name}: {len(cs.states)} states, {len(cs.inputs)} inputs, "
          f"Pfaffian dimension {S0.dim}")
    print(f"derived flag dimensions: {dims}")
    v0 = ", ".join(json.dumps(d, sort_keys=True)
                   for d in levels[0]["vertical_annihilator"])
    print(f"vertical annihilator of S0: {v0}")
    if shortcut:
        print(SHORTCUT_NOTE)
    _emit(report, args, {"analyze": time.perf_counter() - t0})
    return 0


# -- decompose -----------------------------------------------------------------------


def _certificate_json(cert: FlatnessCertificate) -> dict:
    td = cert.decomposition
    phi = td.transform
    return {
        "chart": [c.name for c in td.chart.coords],
        "blocks": [{"index": b.index,
                    "outputs": [c.name for c in b.y],
                    "solved": [p.name for p in b.nondrv]}
                   for b in td.blocks],
        "equations": [[form_dict(g) for g in xi] for xi in td.equations],
        "transform": {
            "forward": {s.name: render(phi.forward[s])
                        for s in phi.target.coords},
            "inverse": {s.name: render(phi.inverse[s])
                        for s in phi.source.coords},
        },
        "outputs": [render(y) for y in cert.outputs],
        "order": cert.order,
    }


class CertificateError(ValueError):
    """A certificate file that does not follow the flatdec/1 schema."""


def _is_names(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_text_map(v) -> bool:
    return isinstance(v, dict) and all(isinstance(x, str) for x in v.values())


def _field(obj: dict, key: str, where: str, test, what: str):
    """obj[key], checked with test; the error names the field by its path."""
    if key not in obj:
        raise CertificateError(f"missing field {where}{key}")
    if not test(obj[key]):
        raise CertificateError(f"field {where}{key} must be {what}")
    return obj[key]


def _certificate_load(obj, cs) -> FlatnessCertificate:
    """The certificate of a decompose report, or a bare certificate.

    Keys, types and coordinate names are checked before anything is built,
    and `order` must be the order the outputs imply (flat_order); a
    violation raises CertificateError naming the field.
    """
    if not isinstance(obj, dict):
        raise CertificateError("a certificate must be a JSON object")
    if "schema" in obj and obj["schema"] != SCHEMA:
        raise CertificateError(
            f"field schema must be {SCHEMA!r}, got {obj['schema']!r}")
    if "schema" in obj or "certificate" in obj:   # a whole report
        obj = _field(obj, "certificate", "", lambda v: isinstance(v, dict),
                     "an object")
    names = _field(obj, "chart", "", _is_names, "a list of names")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CertificateError(f"field chart names {name} a second time")
    if "t" in names:
        raise CertificateError("field chart names t, which is reserved for time")
    coords = tuple(Symbol(n, AUX) for n in names)
    final = Chart(coords)
    byname = {s.name: s for s in coords}
    base_coords = tuple(cs.states) + tuple(cs.inputs)
    base = Chart(base_coords)

    def coord(name, where):
        if name not in byname:
            raise CertificateError(
                f"field {where} names {name!r}, which is not in the chart")
        return byname[name]

    def expr(text, chart, path):
        try:
            return parse_expr(text, chart)
        except (ParseError, SemanticError) as ex:
            raise CertificateError(f"field {path}: {ex}") from None

    blocks = []
    for i, b in enumerate(_field(obj, "blocks", "", lambda v: isinstance(v, list),
                                 "a list")):
        where = f"blocks[{i}]."
        if not isinstance(b, dict):
            raise CertificateError(f"field blocks[{i}] must be an object")
        index = _field(b, "index", where, lambda v: isinstance(v, int)
                       and not isinstance(v, bool), "an integer")
        ys = tuple(coord(n, where + "outputs") for n in _field(
            b, "outputs", where, _is_names, "a list of names"))
        solved = tuple(coord(n, where + "solved") for n in _field(
            b, "solved", where, _is_names, "a list of names"))
        blocks.append(Block(index, ys, solved))
    equations = []
    for i, xi in enumerate(_field(
            obj, "equations", "",
            lambda v: isinstance(v, list) and all(
                isinstance(x, list) and all(_is_text_map(d) for d in x)
                for x in v),
            "a list of lists of coefficient maps")):
        gens = []
        for j, d in enumerate(xi):
            coeffs = {(T if k == "t" else coord(k, f"equations[{i}]")):
                      expr(v, coords, f"equations[{i}][{j}].{k}")
                      for k, v in d.items()}
            gens.append(oneform(final, coeffs))
        equations.append(tuple(gens))
    try:
        check_shape(final, blocks, equations)
    except StructureViolation as ex:
        raise CertificateError(str(ex)) from None
    transform = _field(obj, "transform", "", lambda v: isinstance(v, dict),
                       "an object")
    forward = _field(transform, "forward", "transform.", _is_text_map,
                     "a map of expressions")
    inverse = _field(transform, "inverse", "transform.", _is_text_map,
                     "a map of expressions")
    for where, m, need in (("transform.forward.", forward, base_coords),
                           ("transform.inverse.", inverse, coords)):
        for s in need:
            if s.name not in m:
                raise CertificateError(f"missing field {where}{s.name}")
    outputs = tuple(
        expr(y, base_coords, f"outputs[{j}]") for j, y in enumerate(_field(
            obj, "outputs", "", _is_names, "a list of expressions")))
    order = flat_order(outputs)
    _field(obj, "order", "", lambda v: v == order,
           f"{order!r}, the order its outputs imply")
    phi = ChartTransform(
        final, base,
        {s: expr(forward[s.name], coords, f"transform.forward.{s.name}")
         for s in base_coords},
        {s: expr(inverse[s.name], base_coords,
              f"transform.inverse.{s.name}")
         for s in coords})
    td = TriangularDecomposition(chart=final, blocks=tuple(blocks),
                                 equations=tuple(equations), transform=phi,
                                 system=cs)
    return FlatnessCertificate(decomposition=td, outputs=outputs, order=order)


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    zc = ZeroCtx(args.seed)
    text, cs = _read_system(args.file, zc)
    res = run_decomposition(cs, zc)
    report = _base_report("decompose", args.file, text, cs, args)
    report["decomposition"] = {
        "status": res.status,
        "levels": len(res.sequence),
        "branch_log": [dict(e) for e in res.branch_log],
    }
    timer = {"decompose": time.perf_counter() - t0}

    if res.status != "Triangularized":
        print(f"{cs.name}: {res.status} "
              f"({len(res.branch_log)} branch log entries)")
        _emit(report, args, timer)
        return 3

    td = from_sequence(res.sequence, zc, cs)
    cert = extract_flat_output(td)
    report["certificate"] = _certificate_json(cert)
    report["decomposition"]["blocks"] = report["certificate"]["blocks"]
    report["decomposition"]["flat_outputs"] = list(
        report["certificate"]["outputs"])
    report["decomposition"]["order"] = cert.order

    print(f"{cs.name}: Triangularized in {len(res.sequence)} levels, "
          f"{td.m} coordinate blocks")
    print(f"flat outputs ({cert.order}): "
          + ", ".join(report["certificate"]["outputs"]))

    ok = True
    if args.verify:
        t1 = time.perf_counter()
        ok = _verify_into(report, cert, zc, args)
        timer["verify"] = time.perf_counter() - t1

    _emit(report, args, timer)
    return 0 if ok else 4


# -- verify --------------------------------------------------------------------------


def _verify_into(report: dict, cert: FlatnessCertificate, zc: ZeroCtx,
                 args) -> bool:
    """Run the structure checks and the numeric check on cert, record them
    as report["verification"] and print the summary; True when all pass."""
    items = validate(cert.decomposition, zc)
    structure = [{"check": label, "ok": flag} for label, flag in items]
    try:
        verdict = verify_flatness_numeric(cert, trials=args.samples,
                                          seed=args.seed)
    except OutputCountMismatch as ex:
        report["verification"] = {"structure": structure,
                                  "numeric": {"error": str(ex)}, "ok": False}
        print(f"output count mismatch: {ex}", file=sys.stderr)
        return False
    good = sum(1 for _, flag in items if flag)
    ok = good == len(items) and verdict.ok
    report["verification"] = {
        "structure": structure,
        "numeric": {
            "trials": verdict.trials,
            "passed": verdict.passed,
            "failed": verdict.failed,
            "singular": verdict.singular,
            "worst_deviation": verdict.worst_deviation,
            "ok": verdict.ok,
        },
        "ok": ok,
    }
    print(f"structure checks: {good}/{len(items)} pass\n"
          f"numeric: {verdict.trials} trials, {verdict.passed} passed, "
          f"{verdict.failed} failed, {verdict.singular} singular\n"
          f"verdict: {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    zc = ZeroCtx(args.seed)
    text, cs = _read_system(args.file, zc)
    report = _base_report("verify", args.file, text, cs, args)

    if args.certificate:
        try:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as ex:
            print(f"missing certificate: {ex}", file=sys.stderr)
            return 1
        except ValueError as ex:
            raise CertificateError(f"certificate is not JSON: {ex}") from None
        cert = _certificate_load(obj, cs)
    elif args.outputs is not None:
        claimed = tuple(parse_expr(part.strip(),
                                   tuple(cs.states) + tuple(cs.inputs))
                        for part in args.outputs.split(";") if part.strip())
        res = run_decomposition(cs, zc)
        if res.status != "Triangularized":
            print(f"{cs.name}: {res.status}, nothing to verify against",
                  file=sys.stderr)
            return 3
        td = from_sequence(res.sequence, zc, cs)
        cert = dataclasses.replace(extract_flat_output(td), outputs=claimed)
    else:
        print("missing certificate: pass --certificate <report.json> "
              "or --outputs <expr;expr>", file=sys.stderr)
        return 1

    ok = _verify_into(report, cert, zc, args)
    _emit(report, args, {"verify": time.perf_counter() - t0})
    return 0 if ok else 4


# -- entry point ---------------------------------------------------------------------


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="system description (.fds)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized decisions (default 0)")
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON report to PATH")
    p.add_argument("--timings", action="store_true",
                   help="embed wall-clock timings in the report")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    `main(argv)` call: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="flatdec",
        description="flatness analysis of nonlinear control systems")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="Pfaffian form and derived flag")
    _add_common(pa)

    pd = sub.add_parser("decompose",
                        help="search for an implicit triangular form")
    _add_common(pd)
    pd.add_argument("--verify", action="store_true",
                    help="also run structural and numeric verification")

    pv = sub.add_parser("verify", help="check a flatness certificate")
    _add_common(pv)
    claim = pv.add_mutually_exclusive_group()
    claim.add_argument("--certificate", metavar="PATH",
                       help="JSON report or certificate from decompose")
    claim.add_argument("--outputs", metavar="EXPRS",
                       help="semicolon-separated claimed flat outputs")

    for p in (pd, pv):
        p.add_argument("--samples", type=_positive, default=20,
                       help="numeric verification trial count (default 20)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "decompose": cmd_decompose,
               "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except (ParseError, SemanticError, CertificateError) as ex:
        label = "SyntaxError" if isinstance(ex, SyntaxError) \
            else type(ex).__name__
        print(f"{label}: {ex}", file=sys.stderr)
        return 1
    except OSError as ex:
        print(str(ex), file=sys.stderr)
        return 1
    except RankDecisionFailed as ex:
        print(f"RankDecisionFailed: an expression is undefined at every "
              f"sample point of the zero test (50-digit points lie in "
              f"[1/2, 2]): {ex}", file=sys.stderr)
        return 1
    except (StructureViolation, OutputCountMismatch) as ex:
        print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # pragma: no cover - defensive
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
