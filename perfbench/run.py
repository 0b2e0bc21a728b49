"""Corpus benchmark for flatdec.

One workload runs in one process as a closed loop with a single client:
each command of the workload is a call to the public entry point
`flatdec.cli.main(argv)`, one after another, pass after pass, while the
next pass is expected to end within --seconds (at least one pass).  Before
each command the module-global zero cache is cleared (when
`symexpr.clear_zero_cache` exists), so every command starts as cold as a
fresh `flatdec` process.  After each command a fixed reference
computation is timed, and the bounded pass and key-system times are given
in units of it, which cancels most of the drift in machine speed.  Every
command's exit code, status, flat outputs, verdict and report bytes are
checked against perfbench/expected.json.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run (see perfbench/README.md).  Without
--workload every workload runs in turn, each in its own process.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from spans import SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_SAMPLES = 5

# One set-up sample: a fresh interpreter imports the CLI and parses the
# workload's systems.  Interpreter start-up itself is not counted.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flatdec.cli
from flatdec.sysdsl import parse_system
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_system(fh.read())
print(repr(time.perf_counter() - t0))
"""


def reference() -> None:
    """A fixed computation, timed between commands to gauge machine speed.

    It mixes what flatdec spends its time on: exact rational arithmetic
    over a tree of tuples, repr and hashing of that tree, and small float
    and numpy solves.  It uses no flatdec code, so no change to flatdec
    can change it.
    """
    rng = random.Random(1)

    def tree(depth):
        if depth == 0:
            return Fraction(rng.randint(1, 64), rng.randint(1, 64))
        return (rng.choice("+*"), tree(depth - 1), tree(depth - 1))

    def value(t):
        if isinstance(t, Fraction):
            return t
        a, b = value(t[1]), value(t[2])
        return a + b if t[0] == "+" else a * b

    t = tree(9)
    value(t)
    hashlib.sha256(repr(t).encode()).digest()
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    for k in range(500):
        np.linalg.solve(m, np.array([float(k), 1.0]))
    sum(math.sin(k * 1e-3) for k in range(10000))


def gauge() -> list:
    """Four timings of reference()."""
    out = []
    for _ in range(4):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def system_path(system: str) -> str:
    return f"perfbench/systems/{system}.fds"


def setup_sample(systems) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)]
        + [system_path(s) for s in systems],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# One pass over a workload's commands: per command its wall time, parsed
# report and the reference time measured around it.
Pass = collections.namedtuple("Pass", "latencies reports refs")


class Runner:
    """Calls flatdec.cli.main in-process and checks every answer."""

    def __init__(self, cli, symexpr, spec, workload, seed):
        self.cli = cli
        self.clear_cache = getattr(symexpr, "clear_zero_cache", None)
        self.spec = spec
        self.seed = seed
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self.ok = []              # one flag per checked operation
        self.outputs = []         # (operation index, system, flat outputs)
        self.first = {}           # command index -> first pass report bytes

    def certificate(self, system: str) -> Path:
        return self.dir / f"cert-{system}.json"

    def run(self, cmd, report: Path, index=None):
        """Run one command with --report; returns (wall time, report).

        `index` names the command within a pass; its report bytes must
        match the first pass's.
        """
        argv = [cmd["run"], system_path(cmd["system"]), "--seed",
                str(self.seed), "--report", str(report.relative_to(ROOT))]
        if cmd.get("certificate"):
            cert = self.certificate(cmd["system"])
            argv += ["--certificate", str(cert.relative_to(ROOT))]
        argv += cmd.get("args", [])
        report.unlink(missing_ok=True)
        if self.clear_cache is not None:
            self.clear_cache()
        if self.tracer is not None:
            self.tracer.new_command()
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.cli.main(argv)
        took = time.perf_counter() - t0
        return took, self.check(index, cmd, rc, report)

    def make_certificate(self, system: str) -> None:
        self.run({"run": "decompose", "system": system, "exit": 0,
                  "status": "Triangularized"}, self.certificate(system))

    def check(self, index, cmd, rc, path: Path):
        """Record one operation's verdict; returns the parsed report."""
        exits = cmd["exit"] if isinstance(cmd["exit"], list) else [cmd["exit"]]
        ok = rc in exits and path.is_file()
        report = {}
        if ok:
            data = path.read_bytes()
            if index is not None:
                ok = self.first.setdefault(index, data) == data
            report = json.loads(data)
            found = report.get("decomposition", {})
            if "status" in cmd and found.get("status") != cmd["status"]:
                ok = False
            verdict = report.get("verification", {}).get("ok")
            if "verdict" in cmd and verdict != cmd["verdict"]:
                ok = False
            want = self.spec["systems"][cmd["system"]]["outputs"]
            if cmd["run"] == "decompose" and want is not None:
                self.outputs.append((len(self.ok), cmd["system"],
                                     tuple(found.get("flat_outputs", ()))))
        self.ok.append(ok)
        return report

    def run_pass(self, commands) -> Pass:
        """Run every command once.  reference() is timed four times before
        the pass and after every command; a command's reference time is the
        median of the eight timings around it."""
        latencies, reports, gauges = [], [], [gauge()]
        for i, cmd in enumerate(commands):
            took, report = self.run(cmd, self.dir / f"{i}.json", i)
            latencies.append(took)
            reports.append(report)
            gauges.append(gauge())
        refs = [statistics.median(a + b) for a, b in zip(gauges, gauges[1:])]
        return Pass(latencies, reports, refs)

    def failed(self) -> int:
        """Failed operations, flat outputs compared with sympy."""
        bad = set(i for i, ok in enumerate(self.ok) if not ok)
        wrong = wrong_outputs(self.spec, {(s, o) for _, s, o in self.outputs})
        bad.update(i for i, s, o in self.outputs if (s, o) in wrong)
        return len(bad)


def wrong_outputs(spec, found):
    """The (system, outputs) pairs that differ from the expected outputs."""
    if not found:
        return set()
    import sympy
    from sympy.parsing.sympy_parser import (
        convert_xor, parse_expr, standard_transformations)

    names = {"ln": sympy.log, "arcsin": sympy.asin, "arctan": sympy.atan}
    rules = standard_transformations + (convert_xor,)

    def same(a: str, b: str) -> bool:
        diff = (parse_expr(a, local_dict=dict(names), transformations=rules)
                - parse_expr(b, local_dict=dict(names), transformations=rules))
        return sympy.simplify(diff) == 0

    wrong = set()
    for system, outs in found:
        want = spec["systems"][system]["outputs"]
        if len(outs) != len(want) or not all(map(same, outs, want)):
            wrong.add((system, outs))
    return wrong


def report_counts(reports) -> dict:
    """Branch-log outcomes and numeric trials read from one pass's reports."""
    counts = dict.fromkeys(["decompose.branch_log.extended",
                            "decompose.branch_log.rejected",
                            "decompose.branch_log.dead_end",
                            "decompose.branch_log.suspended",
                            "triangular.trials.passed",
                            "triangular.trials.failed",
                            "triangular.trials.singular"], 0)
    for report in reports:
        for entry in report.get("decomposition", {}).get("branch_log", ()):
            # a splitting is logged as "extended" and relabelled
            # "success" or "dead_end" once its subtree is explored
            if entry["kind"] == "splitting":
                counts["decompose.branch_log.extended"] += 1
            if entry["outcome"] in ("rejected", "dead_end", "suspended"):
                counts[f"decompose.branch_log.{entry['outcome']}"] += 1
        numeric = report.get("verification", {}).get("numeric", {})
        for part in ("passed", "failed", "singular"):
            counts[f"triangular.trials.{part}"] += numeric.get(part, 0)
    return counts


def per_system(commands, values) -> dict:
    """Per-command values of one pass, summed per system."""
    sums = {}
    for cmd, value in zip(commands, values):
        sums[cmd["system"]] = sums.get(cmd["system"], 0.0) + value
    return sums


def repeat(step, seconds, took=0.0):
    """Results of step(), called while the next call is expected to end
    within `seconds`; `took` is the expected duration of one call."""
    out, start = [], time.perf_counter()
    while time.perf_counter() - start + took <= seconds:
        t0 = time.perf_counter()
        out.append(step())
        took = time.perf_counter() - t0
    return out


def end_to_end(wl, commands, passes, setup, peak_mb):
    """End-to-end metrics, then the extra lines printed for people only.

    Each command's wall time is divided by the reference time measured
    around it, which cancels most of the drift in the machine's speed.
    """
    median = statistics.median
    times = [per_system(commands, p.latencies) for p in passes]
    scaled = [per_system(commands, map(float.__truediv__, p.latencies, p.refs))
              for p in passes]
    metrics = {
        "setup_s": (median(setup), "s"),
        "pass_ref": (median(sum(s.values()) for s in scaled), "ref"),
        "latency_ref.key": (median(s[wl["key"]] for s in scaled), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {"ref_s": (median(r for p in passes for r in p.refs), "s"),
             "pass_s": (median(sum(p.latencies) for p in passes), "s")}
    for system in sorted(times[0]):
        extra[f"latency_s.{system}"] = (median(t[system] for t in times), "s")
    trials = sum(report_counts(p.reports)[f"triangular.trials.{part}"]
                 for p in passes for part in ("passed", "failed", "singular"))
    if trials:
        busy = sum(sum(p.latencies) for p in passes)
        extra["trials_per_s"] = (trials / busy, "1/s")
    extra["passes"] = (len(passes), "count")
    return metrics, extra


def per_layer(runner, commands, seconds):
    """Alternate untraced and traced passes; per-layer metrics and overhead."""
    tracer = Tracer()
    plain, traced, summaries = [], [], []

    def pair():
        plain.append(runner.run_pass(commands))
        tracer.reset()
        runner.tracer = tracer
        with tracer.installed():
            traced.append(runner.run_pass(commands))
        runner.tracer = None
        summaries.append((tracer.summary(), tracer.zero_distinct,
                          tracer.out_nodes_max))

    repeat(pair, seconds)
    tracer.dump(runner.dir / "spans.jsonl")

    first, distinct, nodes = summaries[0]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(
            s[name]["self_s"] for s, _, _ in summaries), "s")
    metrics["symexpr.is_zero.distinct"] = (distinct, "count")
    metrics["linalg.out_nodes_max"] = (nodes, "nodes")
    for key, value in report_counts(traced[0].reports).items():
        metrics[key] = (value, "count")
    overhead = (statistics.median(sum(p.latencies) for p in traced)
                - statistics.median(sum(p.latencies) for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"passes": (len(traced), "count")}


def run_workload(name, spec, seed, seconds, trace):
    """Set up, measure and check one workload; returns the JSON result."""
    cli, symexpr = load_flatdec()
    wl = spec["workloads"][name]
    commands = wl["commands"]
    runner = Runner(cli, symexpr, spec, name, seed)

    systems = sorted({c["system"] for c in commands})
    setup = [setup_sample(systems) for _ in range(SETUP_SAMPLES)]
    for system in sorted({c["system"] for c in commands
                          if c.get("certificate")}):
        runner.make_certificate(system)

    if trace:
        metrics, extra = per_layer(runner, commands, seconds)
    else:
        # peak memory of set-up and one pass, whatever the pass count
        t0 = time.perf_counter()
        passes = [runner.run_pass(commands)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        took = time.perf_counter() - t0
        passes += repeat(lambda: runner.run_pass(commands), seconds - took,
                         took)
        metrics, extra = end_to_end(wl, commands, passes, setup, peak_mb)

    attempted = len(runner.ok)
    failed = runner.failed()
    extra["fail_ratio"] = (failed / attempted, "ratio")
    print(f"workload {name}: seed {seed}, trace {trace}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:40s} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def load_flatdec():
    if not (SRC / "flatdec" / "cli.py").is_file():
        raise SystemExit(f"run.py: no flatdec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from flatdec import cli, symexpr
    return cli, symexpr


def run_all(spec, args):
    """Every workload in its own process; totals over all of them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    ratio = total["failed"] / total["attempted"]
    total["metrics"]["fail_ratio"] = {"value": ratio, "unit": "ratio"}
    print(f"all workloads: {total['failed']} of {total['attempted']} "
          f"operations failed, fail_ratio {ratio:.6g}")
    return total


def main(argv=None) -> int:
    spec = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec["workloads"]),
                    help="workload to run (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed passed to every flatdec command (default 0)")
    ap.add_argument("--seconds", type=float, default=30,
                    help="measure passes while the next one is expected to "
                         "end within this many seconds (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.workload is None:
        result = run_all(spec, args)
    else:
        result = run_workload(args.workload, spec, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
