"""Module boundaries of the package, the benchmark's traced names and the
CLI flags and branch-log kinds and keys the README documents."""

import argparse
import ast
import collections
import functools
import importlib
import os
import pathlib
import re
import subprocess
import sys

from flatdec.cli import _build_parser
from flatdec.symexpr import Expr, Symbol
from flatdec.sysdsl import parse_system

from conftest import search

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flatdec"


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("flatdec"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}: {alias.name} from "
                                 f"{'.' * node.level}{node.module or ''}")
    assert not found, "private names imported across modules: " + \
        "; ".join(found)


def test_only_symexpr_turns_source_into_code():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "symexpr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("eval", "exec")):
                found.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert not found, "eval or exec outside symexpr: " + "; ".join(found)


def test_expressions_define_no_arithmetic_operators():
    # expressions are built by the normalizing constructors add, mul, pow_,
    # div and neg; operator sugar would hide which one runs
    ops = [f"__{p}{op}__" for op in ("add", "sub", "mul", "truediv", "pow")
           for p in ("", "r")] + ["__neg__", "__pos__"]
    found = [f"{cls.__name__}.{op}" for cls in (Expr, *Expr.__subclasses__())
             for op in ops if hasattr(cls, op)]
    assert not found, "arithmetic operators on Expr: " + ", ".join(found)


def test_expressions_compare_by_identity():
    # nodes are interned, so the inherited identity equality and hash are
    # the structural ones
    found = [f"{cls.__name__}.{op}" for cls in (Expr, *Expr.__subclasses__())
             for op in ("__eq__", "__hash__") if op in vars(cls)]
    # symbols are interned too; they keep the hash of (name, kind)
    found += ["Symbol.__eq__"] if "__eq__" in vars(Symbol) else []
    assert not found, "structural comparison on Expr: " + ", ".join(found)


def test_sources_parse_and_use_dataclass_options_of_the_oldest_python():
    # tests run on one interpreter; this catches what a newer one accepts
    # quietly but the oldest supported one rejects at import
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor and floor.group(1) == "10", "update the 3.10 options below"
    options = {"init", "repr", "eq", "order", "unsafe_hash", "frozen",
               "match_args", "kw_only", "slots"}   # dataclass() in 3.10
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         feature_version=(3, 10))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "dataclass"):
                found += [f"{path.name}:{node.lineno} {k.arg}"
                          for k in node.keywords if k.arg not in options]
    assert not found, "dataclass options newer than 3.10: " + "; ".join(found)


def _uses(node):
    """Names read in node's subtree: bare names and attribute names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_top_level_definition_is_used_in_the_package():
    # a def or class that only its own body or the tests mention is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    uses = collections.Counter(name for tree in trees for name in _uses(tree))
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and uses[node.name] == list(_uses(node)).count(node.name)]
    assert not unused, "defined but never used in src/flatdec: " + \
        ", ".join(unused)


def test_every_module_level_constant_is_used_in_the_package():
    # the same for the names a module binds at its top level, dunders
    # aside: a constant only its own assignment mentions is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    uses = collections.Counter(name for tree in trees for name in _uses(tree))
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                own = list(_uses(node))
                unused += [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)
                           and not n.id.startswith("__")
                           and uses[n.id] == own.count(n.id)]
    assert not unused, "bound but never used in src/flatdec: " + \
        ", ".join(unused)


def test_every_method_is_used_in_the_package():
    # the same for the non-dunder methods of the package's classes
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    uses = collections.Counter(name for tree in trees for name in _uses(tree))
    unused = [f"{cls.name}.{m.name}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) for m in cls.body
              if isinstance(m, ast.FunctionDef)
              and not (m.name.startswith("__") and m.name.endswith("__"))
              and uses[m.name] == list(_uses(m)).count(m.name)]
    assert not unused, "methods never used in src/flatdec: " + \
        ", ".join(unused)


def test_every_import_is_read():
    found = []
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.relative_to(ROOT)}: {name}")
    assert not found, "imported but never read: " + "; ".join(found)


def test_every_parameter_is_read():
    # a parameter its function never reads is an interface that lies; a
    # method's self is the receiver and exempt
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                arg for arg in (a.vararg, a.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {arg.arg}"
                      for arg in params
                      if arg.arg not in read and arg.arg != "self"]
    assert not found, "parameters never read: " + "; ".join(found)


def test_no_zero_context_has_a_default():
    # a defaulted zc, zero-test budget or seed decides with its own values,
    # not the ones the command line asked for
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
            if any(arg.arg in ("zc", "budget", "seed") for arg in defaulted):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, "zc, budget or seed with a default: " + "; ".join(found)


def _traced():
    """TRACED of perfbench/spans.py, read without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for mod, names in traced.items():
        module = importlib.import_module(f"flatdec.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


# Run in a fresh interpreter: the test process itself has numpy loaded.
_NUMPY_PROBE = """
import sys
from flatdec.cli import main
system, report = sys.argv[1:]
loaded = []
for argv in (["analyze", system], ["decompose", system],
             ["decompose", system, "--verify", "--samples", "2"]):
    assert main(argv + ["--report", report]) == 0
    loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_symbolic_commands_do_not_load_numpy(tmp_path):
    system = ROOT / "tests" / "data" / "coupled.fds"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(system),
         str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False, True]"


def _parser_flags(parser):
    """Every --flag of parser and of its subcommands, --help aside."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags - {"--help"}


def test_readme_documents_exactly_the_cli_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named == _parser_flags(_build_parser())


def _branch_log_section():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("`branch_log` lists the search's decisions", 1)[1]
    return section.split("\n## ", 1)[0]


@functools.cache
def _fixture_branch_logs():
    """The branch log of each tests/data search at the CLI's defaults."""
    return [search(parse_system(path.read_text())).branch_log
            for path in sorted((ROOT / "tests" / "data").glob("*.fds"))]


def test_readme_documents_exactly_the_branch_log_kinds():
    named = set(re.findall(r"^- `([a-z-]+)`:", _branch_log_section(),
                           re.MULTILINE))
    written = {e["kind"] for log in _fixture_branch_logs() for e in log}
    assert named == written == {"splitting", "joint", "ansatz"}


def test_readme_documents_exactly_the_branch_log_keys():
    # every name in backticks that is not a kind or an outcome the
    # searches write is an entry key, and every key they write is named
    named = set(re.findall(r"`([^`]+)`", _branch_log_section()))
    keys, values = set(), set()
    for e in (e for log in _fixture_branch_logs() for e in log):
        keys |= e.keys()
        values |= {e["kind"], e["outcome"]}
    assert named - values == keys
