"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Cold state: two back-to-back in-process runs of `decompose coupled`
   make the same number of zero tests and write identical report bytes.
   This must keep holding once the zero cache moves out of module state
   and `clear_zero_cache` is deleted.
2. Contract: the metrics each mode prints are exactly the ones
   BENCHMARK.json lists (checked on the cheap `blowup` workload).

Exits 1 when a check fails.
"""

import contextlib
import io
import json
import os
import sys

from run import BENCH, ROOT, Runner, load_flatdec, run_workload
from spans import Tracer


def cold_state(spec) -> bool:
    cli, symexpr = load_flatdec()
    runner = Runner(cli, symexpr, spec, "selftest", 0)
    cmd = {"run": "decompose", "system": "coupled", "exit": 0,
           "status": "Triangularized"}
    calls = []
    for _ in range(2):
        tracer = Tracer()
        runner.tracer = tracer
        with tracer.installed():
            runner.run_pass([cmd])
        calls.append(tracer.summary()["symexpr.is_zero"]["calls"])
    # the second run's report is compared byte for byte with the first
    ok = calls[0] == calls[1] and all(runner.ok)
    print(f"cold state: is_zero calls {calls}, reports identical "
          f"{all(runner.ok)}: {'ok' if ok else 'FAIL'}")
    return ok


def contract(spec) -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ok = True
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        with contextlib.redirect_stdout(io.StringIO()):
            result = run_workload("blowup", spec, 0, 0.1, trace)
        want = {(m["name"], m["unit"]) for m in declared[group]}
        got = {(k, v["unit"]) for k, v in result["metrics"].items()}
        good = want == got
        print(f"contract, trace {trace}: {'ok' if good else 'FAIL'}"
              + ("" if good else f" missing {sorted(want - got)}, "
                 f"extra {sorted(got - want)}"))
        ok = ok and good
    return ok


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    results = [cold_state(spec), contract(spec)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
