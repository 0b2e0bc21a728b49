"""In-memory span tracer for the benchmark's traced run.

`Tracer.installed()` wraps the public functions named in TRACED and
rebinds every module attribute that refers to one of them, so calls made
through `from .linalg import nullspace` are caught as well as calls made
through the defining module.  Each call becomes a span (name, start, end,
parent); a layer's self time is its span's duration minus the time its
child spans cover.  Nothing under src/ is modified: the originals are put
back when the context exits.
"""

import contextlib
import functools
import json
import sys
import time

TRACED = {
    "symexpr": ("is_zero", "compile_expr"),
    "linalg": ("row_echelon", "nullspace"),
    "pfaffian": ("derived_system", "vertical_annihilator", "is_involutive"),
    "exterior": ("straighten_flow", "pullback"),
    "decompose": ("reduce_once",),
    "triangular": ("from_sequence", "validate", "recover_trajectory",
                   "verify_flatness_numeric"),
    "cli": ("main",),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _matrix_nodes(out) -> int:
    """Largest expression size in a row_echelon or nullspace result."""
    rows = out[0] if isinstance(out, tuple) else out
    return max((e.nodes for row in rows for e in row), default=0)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None]
        self._stack = []
        self._zero_keys = set()
        self.zero_distinct = 0
        self.out_nodes_max = 0

    def new_command(self) -> None:
        """Distinct zero tests are counted per command, like the cache."""
        self._zero_keys.clear()

    def reset(self) -> None:
        self.spans = []
        self.zero_distinct = 0
        self.out_nodes_max = 0

    def _on_call(self, name, args, kwargs):
        if name == "symexpr.is_zero":
            # Expr compares by structural key, as the zero cache does
            key = (args, tuple(sorted(kwargs.items())))
            if key not in self._zero_keys:
                self._zero_keys.add(key)
                self.zero_distinct += 1

    def _on_return(self, name, out):
        if name in ("linalg.row_echelon", "linalg.nullspace"):
            self.out_nodes_max = max(self.out_nodes_max, _matrix_nodes(out))

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._on_call(name, args, kwargs)
            span = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._on_return(name, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "flatdec"]
        patches = []
        for modname, fns in TRACED.items():
            home = sys.modules[f"flatdec.{modname}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapped = self._wrap(f"{modname}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            patches.append((m, attr, orig, wrapped))
        for m, attr, _, wrapped in patches:
            setattr(m, attr, wrapped)
        try:
            yield self
        finally:
            for m, attr, orig, _ in patches:
                setattr(m, attr, orig)

    def summary(self) -> dict:
        """Per span name: call count and self time in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent]) + "\n")
