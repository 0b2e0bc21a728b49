"""Splitting search: candidate enumeration, verification, the full reduction."""

import collections
import dataclasses
import itertools
import json
import pathlib
import random
import re

import pytest

from flatdec import decompose, exterior, linalg, pfaffian, symexpr
from flatdec.cli import main
from flatdec.decompose import (
    Splitting, monomial_pool, reduce_once, run_decomposition,
    _ACCEPT, _PREFIX_LETTERS, _REJECT, _SKIP, _Screen,
    _candidate_stream, _coefficient_vectors, _combine, _lift_through,
    _pencil_rows, _prefixes,
)
from flatdec.exterior import Chart, T, VectorField, oneform
from flatdec.linalg import ZeroCtx, nullspace, row_echelon, row_echelon_mod_p
from flatdec.pfaffian import (
    PfaffianSystem, contraction_tables, derived_flag,
    derived_system, from_control_system, is_characteristic,
    is_integrable_with_dt, solves_for, span_from_solutions,
    vertical_annihilator,
)
from flatdec.symexpr import (
    ONE, PRIME, STATE, ZERO, Symbol, add, const, div, func, is_zero, mul,
    neg, pow_, structural_key, value_mod_p, var,
)
from flatdec.sysdsl import parse_system
from flatdec.triangular import from_sequence

from conftest import (
    MAX_DEGREE, DualScreen, along, contains, dual_nullspace_mod_p,
    dual_pencil_at, dual_rref_mod_p, form_add, in_span_mod_p,
    nested_coefficient_vectors, projective_key, same_span, scale, search,
    tuple_stream, wedge_derived_system, wedge_integrable_with_dt,
)

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = DATA.parent.parent / "perfbench" / "systems"


def coord(cs, name):
    for s in cs.states + cs.inputs:
        if s.name == name:
            return s
    raise KeyError(name)


def splitting_holds(sp: Splitting, parent: PfaffianSystem, zc) -> bool:
    """The defining invariants of one reduction level against its parent:
    the dimensions add up, F is vertical for the parent, and F is
    characteristic for S_next carried back to the parent's chart."""
    if parent.dim != sp.S_next.dim + len(sp.F):
        return False
    if len(sp.nondrv) != sp.S_comp.dim:
        return False
    V = vertical_annihilator(parent, zc)
    if not all(contains(V, v, zc) for v in sp.F):
        return False
    lifted = [_lift_through(sp.transform, g) for g in sp.S_next.generators]
    P = PfaffianSystem(parent.chart, lifted, zc)
    return all(is_characteristic(v, P, zc) for v in sp.F)


def reduce_top(S, zc):
    """reduce_once on a level-0 system, with fresh names for its chart:
    the level's branch-log entries and its splittings."""
    naming = _prefixes({s.name for s in S.chart.axes})
    return reduce_once(S, MAX_DEGREE, zc, naming)


def axis(chart, name):
    for s in chart.axes:
        if s.name == name:
            return s
    raise KeyError(name)


# -- the coefficient pool and tuple stream ----------------------------------------

def test_monomial_pool_basics(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    pairs = monomial_pool(S0.chart, MAX_DEGREE)
    pool = [m for m, _ in pairs]
    u1, u2 = coord(sin_sys, "u1"), coord(sin_sys, "u2")
    keys = {structural_key(e) for e in pool}
    assert pool[0] is ONE
    assert structural_key(var(u1)) in keys
    assert structural_key(mul(var(u1), pow_(var(u2), -1))) in keys
    assert structural_key(pow_(var(u1), 2)) in keys
    assert structural_key(pow_(var(u1), -2)) in keys
    # total absolute degree is capped, so u1^2*u2 is absent
    assert structural_key(mul(pow_(var(u1), 2), var(u2))) not in keys
    assert len(keys) == len(pool)
    sizes = [e.nodes for e in pool]
    assert sizes == sorted(sizes)
    # each monomial carries the exponent vector it was built from
    for m, expo in pairs:
        assert m == mul(*(pow_(var(s), e) for s, e in zip(S0.chart.coords, expo)))


def test_monomial_pool_matches_brute_force_filter():
    # the pool enumerates only bounded exponent vectors; it must equal the
    # filter over the whole box [-d, d]^n that it replaced
    for n in range(1, 6):
        chart = Chart(tuple(Symbol(f"z{i}", STATE) for i in range(n)))
        for deg in range(4):
            brute = []
            for expo in itertools.product(range(-deg, deg + 1), repeat=n):
                if sum(abs(e) for e in expo) <= deg:
                    brute.append((mul(*(pow_(var(s), e)
                                        for s, e in zip(chart.coords, expo))),
                                  expo))
            brute.sort(key=lambda m: (m[0].nodes, structural_key(m[0])))
            pool = monomial_pool(chart, deg)
            assert [(m.key, e) for m, e in pool] == \
                [(m.key, e) for m, e in brute]


def test_tuple_stream_is_the_product_by_size_then_key():
    # the nested-generator stream kept in conftest as the scan's oracle
    x = Symbol("x", STATE)
    pool = [ONE, var(x), pow_(var(x), 2)]
    got = list(tuple_stream(pool, 2))
    # indices into [ZERO] + pool: every tuple of the product once, those
    # of one-node entries before any with x^2, ties in structural-key
    # order (x^2's key sorts before x's)
    assert got[:9] == list(itertools.product(range(3), repeat=2))
    assert got[9:] == [(0, 3), (1, 3), (3, 0), (3, 1), (3, 2), (2, 3), (3, 3)]


def test_projective_key_collapses_scale():
    # the oracle's class key: over one coordinate x the exponent codes are
    # the exponents: (x, 1) and (x^2, x) differ by the factor x; None
    # stands for a ZERO entry
    a = (1, 0)
    b = (2, 1)
    assert projective_key(a) == projective_key(b)
    assert projective_key((None, None)) is None
    assert projective_key(a) != projective_key((0, 1))
    assert projective_key((None, 3)) == projective_key((None, 0))
    assert projective_key((None, 3)) != projective_key((0, None))
    # over (x, y) at degree 1 the radix is 5: (x, y) and (1, y/x) differ by
    # the factor x, (y, x) does not
    assert projective_key((1, 5)) == projective_key((0, 5 - 1))
    assert projective_key((1, 5)) != projective_key((5, 1))


def _symbolic_projective_key(c):
    """The class of a coefficient tuple up to a common factor, computed
    symbolically: the reference for the scan's exponent-vector key."""
    lead = next((x for x in c if x is not ZERO), None)
    if lead is None:
        return None
    return tuple(structural_key(div(x, lead)) for x in c)


def _symbolic_coefficient_vectors(chart, k, max_degree,
                                  cap=decompose.MAX_CANDIDATES):
    """The scan's tuple stream built from expressions alone: the pool and
    the product sorted by nodes and structural keys, deduplicated by the
    symbolic projective key.  Reference for _coefficient_vectors; the
    pool's monomials are checked against a brute-force filter above."""
    pool = [m for m, _ in monomial_pool(chart, max_degree)]
    units = [tuple(ONE if j == i else ZERO for j in range(k)) for i in range(k)]
    while (len(pool) + 1) ** k > 200_000:
        pool = pool[: len(pool) // 2]
    skey = {x: structural_key(x) for x in [ZERO] + pool}
    tuples = sorted(itertools.product([ZERO] + pool, repeat=k),
                    key=lambda c: (sum(x.nodes for x in c),
                                   tuple(skey[x] for x in c)))
    seen = set()
    for c in units + tuples:
        if len(seen) >= cap:
            return
        key = _symbolic_projective_key(c)
        if key is None or key in seen:
            continue
        seen.add(key)
        yield c


def _corpus(name):
    return parse_system((CORPUS / f"{name}.fds").read_text())


@pytest.mark.parametrize("name", ["nfd", "nfd4", "coupled", "unicycle",
                                  "chain6"])
def test_coefficient_vectors_match_symbolic_reference(name, zc, monkeypatch):
    chart = from_control_system(_corpus(name), zc).chart
    truncated = False
    for k, deg in itertools.product((1, 2, 3), range(4)):
        want = list(_symbolic_coefficient_vectors(chart, k, deg))
        # a cap of 2 ends the scan inside the unit vectors when k = 3
        for cap in (512, 7, 2):
            monkeypatch.setattr(decompose, "MAX_CANDIDATES", cap)
            got = list(_coefficient_vectors(chart, k, deg))
            # the same expressions in the same order
            assert [[x.key for x in c] for c in got] == \
                [[x.key for x in c] for c in want[:cap]], (k, deg, cap)
        pool = len(monomial_pool(chart, deg))
        truncated |= (pool + 1) ** k > 200_000
    if name == "nfd4":
        assert truncated


@pytest.mark.parametrize("name", ["nfd", "nfd4", "coupled", "unicycle",
                                  "chain6"])
def test_class_stream_matches_the_nested_stream(name, zc, monkeypatch):
    # the flat class stream yields the nested-generator stream's tuples in
    # its order, also well past the default cap, and up to a cap that
    # ends it inside the unit vectors
    chart = from_control_system(_corpus(name), zc).chart
    for k, deg in itertools.product((1, 2, 3), (1, 2, 3)):
        for cap in (2, 512, 3000):
            monkeypatch.setattr(decompose, "MAX_CANDIDATES", cap)
            got = list(_coefficient_vectors(chart, k, deg))
            want = list(nested_coefficient_vectors(chart, k, deg))
            assert [[x.key for x in c] for c in got] == \
                [[x.key for x in c] for c in want], (k, deg, cap)


# -- the necessary condition --------------------------------------------------------

def test_necessary_condition_finds_scaling_family(sin_sys, zc):
    S0, basis, tabs = _level(from_control_system(sin_sys, zc), zc)
    found = [(c, cand) for c, cand, _
             in _candidate_stream(S0, basis, tabs, MAX_DEGREE, zc)
             if cand is not None]
    assert found
    u1, u2 = coord(sin_sys, "u1"), coord(sin_sys, "u2")
    # V's basis spans the input directions; express the scaling field in it
    want = {}
    for i, v in enumerate(basis):
        if not zc.zero(v.comp(u1)):
            want[i] = var(u1)
        elif not zc.zero(v.comp(u2)):
            want[i] = var(u2)
    target = _symbolic_projective_key(
        tuple(want.get(i, ZERO) for i in range(len(basis))))
    keys = [_symbolic_projective_key(c) for c, _ in found]
    assert target in keys
    assert len(set(keys)) == len(keys)
    for c, cand in found:
        assert cand.dim == S0.dim - 1
        for g in cand.generators:
            assert contains(S0, g, zc)


def test_necessary_condition_budget_exhaustion(sin_sys, zc, monkeypatch):
    S0, basis, tabs = _level(from_control_system(sin_sys, zc), zc)
    monkeypatch.setattr(decompose, "MAX_CANDIDATES", 0)
    assert list(_candidate_stream(S0, basis, tabs, MAX_DEGREE, zc)) == []
    events, splits = reduce_top(S0, zc)
    assert splits == []
    # the exhausted scan logs its one entry, with nothing to show as c
    scan, = [e for e in events if e["kind"] == "ansatz"]
    assert scan["count"] == 0 and not {"first", "last"} & set(scan)
    assert scan["note"].startswith("no admissible splitting within 0 ")


def test_necessary_condition_no_directions(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    tabs = contraction_tables(S0, [])
    assert list(_candidate_stream(S0, [], tabs, MAX_DEGREE, zc)) == []


# -- the characteristic and parameterizability checks --------------------------------

def test_refine_accepts_characteristic_field(chain, zc):
    cs = chain(2)
    S0 = from_control_system(cs, zc)
    u = coord(cs, "u")
    x1, x2 = coord(cs, "x1"), coord(cs, "x2")
    cand = PfaffianSystem(S0.chart, [oneform(S0.chart, {x1: ONE, T: neg(var(x2))})], zc)
    du = VectorField(S0.chart, {u: ONE})
    assert is_characteristic(du, cand, zc)


def test_refine_rejects_non_invariant_field(chain, zc):
    cs = chain(2)
    S0 = from_control_system(cs, zc)
    x1, x2 = coord(cs, "x1"), coord(cs, "x2")
    cand = PfaffianSystem(S0.chart, [oneform(S0.chart, {x1: ONE, T: neg(var(x2))})], zc)
    # d_x2 annihilates the generator but fails the invariance condition
    bad = VectorField(S0.chart, {x2: ONE})
    assert not is_characteristic(bad, cand, zc)
    # d_x1 does not even annihilate it
    worse = VectorField(S0.chart, {x1: ONE})
    assert not is_characteristic(worse, cand, zc)


def test_check_parameterizable_cases(zc):
    a = Symbol("a", STATE)
    b = Symbol("b", STATE)
    p = Symbol("p", STATE)
    ch = Chart((a, b, p))
    solves = [oneform(ch, {a: ONE, T: neg(var(p))})]
    assert solves_for(solves, [p], zc)
    # residual da - dt never mentions p: singular Jacobian
    constant = [oneform(ch, {a: ONE, T: neg(ONE)})]
    assert not solves_for(constant, [p], zc)
    # a surviving dp component disqualifies the complement outright
    leaky = [oneform(ch, {a: ONE, p: neg(ONE)})]
    assert not solves_for(leaky, [p], zc)
    # ... even when the Jacobian in p alone is regular
    leaky = [oneform(ch, {a: ONE, p: ONE, T: neg(var(p))})]
    assert not solves_for(leaky, [p], zc)
    # one equation cannot solve for two parameters
    assert not solves_for(solves, [p, b], zc)


# -- one reduction level ----------------------------------------------------------------

def test_reduce_once_chain_straightens_the_input(chain, zc):
    cs = chain(3)
    S0 = from_control_system(cs, zc)
    _, splits = reduce_top(S0, zc)
    assert len(splits) == 1
    sp = splits[0]
    u = coord(cs, "u")
    assert len(sp.F) == 1
    assert contains(sp.F, VectorField(S0.chart, {u: ONE}), zc)
    assert sp.S_next.dim == 2
    assert len(sp.nondrv) == 1
    assert splitting_holds(sp, S0, zc)


def test_reduce_once_sin_level0(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    events, splits = reduce_top(S0, zc)
    assert len(splits) == 1
    sp = splits[0]
    u1, u2 = coord(sin_sys, "u1"), coord(sin_sys, "u2")
    scaling = VectorField(S0.chart, {u1: var(u1), u2: var(u2)})
    assert len(sp.F) == 1 and contains(sp.F, scaling, zc)
    assert sp.S_next.dim == 2
    assert splitting_holds(sp, S0, zc)
    kinds = {e["kind"] for e in events}
    assert "joint" in kinds  # the full-input span is tried and rejected
    assert any(e["kind"] == "joint" and e["outcome"] == "rejected" for e in events)
    assert any(e["kind"] == "ansatz" and e["outcome"] == "rejected" for e in events)


def test_splitting_verify_detects_corruption(chain, zc):
    cs = chain(3)
    S0 = from_control_system(cs, zc)
    sp = reduce_top(S0, zc)[1][0]
    x1 = coord(cs, "x1")
    horizontal = (VectorField(S0.chart, {x1: ONE}),)
    assert not splitting_holds(dataclasses.replace(sp, F=horizontal), S0, zc)
    assert not splitting_holds(dataclasses.replace(sp, nondrv=()), S0, zc)


# -- one set of tables per level --------------------------------------------------------

def _recording_tables(monkeypatch):
    """Patch the search's contraction_tables to record (S, basis, tables)
    per call."""
    calls = []

    def record(S, basis):
        tabs = contraction_tables(S, basis)
        calls.append((S, basis, tabs))
        return tabs

    monkeypatch.setattr(decompose, "contraction_tables", record)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.fds")))
def test_derived_system_is_the_joint_span(name, seed, monkeypatch):
    # for vertical v, (v.dp) ^ Omega = v.(dp ^ Omega), and V with the drift
    # spans the annihilator of S: the forms invariant along every vertical
    # field (the joint candidate) are the derived system dp ^ Omega = 0,
    # and no (v.dg) ^ Omega has a term free of dt exactly when
    # dg ^ Omega ^ dt = 0.  Both are checked against the textbook wedges on
    # every level of the derived flag and every level the search reaches.
    calls = _recording_tables(monkeypatch)
    cs = parse_system((DATA / f"{name}.fds").read_text())
    zc = ZeroCtx(20, seed)
    run_decomposition(cs, zc, MAX_DEGREE)
    assert calls
    flag = [(P, tabs) for P, _, tabs in
            derived_flag(from_control_system(cs, zc), zc)]
    for S, tabs in flag + [(S, tabs) for S, _, tabs in calls]:
        assert same_span(derived_system(S, tabs, zc),
                         wedge_derived_system(S, zc), zc)
        assert is_integrable_with_dt(S, tabs, zc) == \
            wedge_integrable_with_dt(S, zc)


def test_reduce_once_builds_the_tables_once(coupled_sys, zc, monkeypatch):
    S0 = from_control_system(coupled_sys, zc)
    assert len(vertical_annihilator(S0, zc)) == 2
    calls = _recording_tables(monkeypatch)
    _, splits = reduce_top(S0, zc)
    # the joint candidate and the scan both found a splitting
    assert sorted(len(sp.F) for sp in splits) == [1, 2]
    assert len(calls) == 1


# -- the full search ------------------------------------------------------------------

def expr_for(cs, text):
    from flatdec.sysdsl import parse_expr
    return parse_expr(text, list(cs.states) + list(cs.inputs))


def outputs_of(res):
    deep = res.sequence[-1].S_next.chart
    theta = from_sequence(res.sequence, ZeroCtx(20, 0), None).transform
    return [theta.inverse[s] for s in deep.coords]


def match_up_to_sign(outputs, expected):
    """Each expected expression must match exactly one output up to sign."""
    remaining = list(outputs)
    for e in expected:
        hit = None
        for y in remaining:
            if is_zero(add(y, neg(e)), 20, 0) or is_zero(add(y, e), 20, 0):
                hit = y
                break
        if hit is None:
            return False
        remaining.remove(hit)
    return not remaining


def test_run_decomposition_sin(sin_sys):
    res = search(sin_sys)
    assert res.status == "Triangularized"
    assert [sp.S_next.dim for sp in res.sequence] == [2, 1, 0]
    assert all(len(sp.nondrv) == 1 for sp in res.sequence)
    want = [expr_for(sin_sys, "x1 - u1*x2/u2"), expr_for(sin_sys, "x3")]
    assert match_up_to_sign(outputs_of(res), want)


def test_run_decomposition_sin_splittings_verify(sin_sys, zc):
    res = search(sin_sys)
    parent = from_control_system(sin_sys, zc)
    for sp in res.sequence:
        assert splitting_holds(sp, parent, zc)
        parent = sp.S_next


def test_run_decomposition_coupled(coupled_sys, zc):
    res = search(coupled_sys)
    assert res.status == "Triangularized"
    assert [sp.S_next.dim for sp in res.sequence] == [3, 2, 1, 0]
    want = [expr_for(coupled_sys, "x1 - u2*x2"), expr_for(coupled_sys, "x4")]
    assert match_up_to_sign(outputs_of(res), want)
    parent = from_control_system(coupled_sys, zc)
    for sp in res.sequence:
        assert splitting_holds(sp, parent, zc)
        parent = sp.S_next


def test_run_decomposition_coupled_logs_dead_end(coupled_sys):
    res = search(coupled_sys)
    dead = [e for e in res.branch_log
            if e["kind"] == "splitting" and e["outcome"] == "dead_end"]
    assert len(dead) == 1
    e = dead[0]
    assert e["level"] == 0
    # the doomed branch straightened the whole input span at once
    assert sorted(tuple(f.keys()) for f in e["F"]) == [("u1",), ("u2",)]
    assert len(e["S_next"]) == 2
    # its subtree ends in exhaustion, recorded under the dead entry
    children = [x for x in res.branch_log if x.get("parent") == e["id"]]
    assert any(x["outcome"] == "rejected" for x in children)


def test_run_decomposition_chains(chain, zc):
    # only the state count bounds the depth: nine states take nine levels
    for n in (2, 3, 4, 9):
        cs = chain(n)
        res = search(cs)
        assert res.status == "Triangularized"
        dims = [sp.S_next.dim for sp in res.sequence]
        assert dims == list(range(n - 1, -1, -1))
        # single-input chains reduce along the derived flag throughout
        parent = from_control_system(cs, zc)
        for sp in res.sequence:
            assert len(sp.F) == 1
            assert splitting_holds(sp, parent, zc)
            parent = sp.S_next


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("path", sorted(DATA.glob("*.fds")),
                         ids=lambda p: p.stem)
def test_search_status_follows_from_its_log(path, seed):
    # every splitting lowers the dimension, so no branch is deeper than the
    # system has states, and a branch fails only at a level without an
    # admissible splitting, which leaves its entry in the log
    cs = parse_system(path.read_text())
    res = run_decomposition(cs, ZeroCtx(20, seed), MAX_DEGREE)
    assert res.status in ("Triangularized", "Inconclusive")
    n = len(cs.states)
    dims = [n] + [sp.S_next.dim for sp in res.sequence]
    assert all(a > b for a, b in zip(dims, dims[1:]))
    assert (dims[-1] == 0) == (res.status == "Triangularized")
    # dead ends included: each splitting's next system is smaller than
    # the one it splits
    dim = {None: n}
    for e in res.branch_log:
        assert e["level"] < n
        if e["kind"] == "splitting":
            dim[e["id"]] = len(e["S_next"])
            assert dim[e["id"]] < dim[e["parent"]]
    if res.status == "Inconclusive":
        assert any(e["kind"] == "ansatz"
                   and e["note"].startswith("no admissible splitting")
                   for e in res.branch_log)
    # an exhausted scan's note counts every candidate its level's folds hold
    for e in res.branch_log:
        if e["note"].startswith("no admissible splitting"):
            n = int(re.search(r"\((\d+) candidate subsystems", e["note"])[1])
            assert n == sum(f["count"] for f in res.branch_log
                            if f["kind"] == "ansatz"
                            and (f["parent"], f["level"])
                            == (e["parent"], e["level"]))


def test_run_decomposition_deterministic(coupled_sys):
    a = search(coupled_sys)
    b = search(coupled_sys)
    assert a.status == b.status
    assert a.branch_log == b.branch_log
    assert [[p.name for p in sp.nondrv] for sp in a.sequence] == \
           [[p.name for p in sp.nondrv] for sp in b.sequence]


@pytest.mark.parametrize("reserved", [{"x1", "x2", "u1"},
                                      {"w1", "qr", "ph", "ww"}])
def test_prefixes_never_run_out(reserved):
    # the letters, then the pairs (182 names in all) as before, then
    # triples and so on: every name fresh, none starting a reserved name
    letters = list(_PREFIX_LETTERS)
    before = [p for p in letters + [a + b for a in letters for b in letters]
              if not any(name.startswith(p) for name in reserved)]
    got = list(itertools.islice(_prefixes(reserved), 200))
    assert len(set(got)) == 200
    assert got[:len(before)] == before
    assert len(got[len(before):]) >= 200 - 182
    assert all(len(p) == 3 for p in got[len(before):])
    assert not any(name.startswith(p) for p in got for name in reserved)


def test_gb311_triangularizes_past_182_straightenings():
    # gb311 tries more flows than the letters and pairs name, and every
    # straightening attempt, the suspended ones too, takes a fresh prefix
    cs = parse_system((DATA / "slow" / "gb311.fds").read_text())
    res = run_decomposition(cs, ZeroCtx(20, 0), MAX_DEGREE)
    assert res.status == "Triangularized"
    # the 323 suspended candidates fold into three entries by note
    assert len(res.branch_log) == 10
    assert sum(e["count"] for e in res.branch_log
               if e["outcome"] == "suspended") == 323


@pytest.mark.parametrize("seed", [0, 1])
def test_gb310_triangularizes(seed, tmp_path, capsys):
    # gb310 once ran out of coordinate prefixes, an exit 2, at both seeds
    report = tmp_path / "gb310.json"
    assert main(["decompose", str(DATA / "slow" / "gb310.fds"), "--seed",
                 str(seed), "--report", str(report)]) == 0
    capsys.readouterr()
    log = json.loads(report.read_text())["decomposition"]
    assert log["status"] == "Triangularized"
    # its 323 suspended candidates are folded, not written one by one
    assert report.stat().st_size < 60_000
    assert not [e for e in log["branch_log"] if "c" in e]


def test_gch1_folds_its_failed_scan_candidates():
    # gch1 suspends 132 scan candidates on two levels under three notes;
    # each (parent, level, outcome, note) keeps one entry with its count,
    # its first and last c and its first candidate's F
    cs = parse_system((DATA / "gch1.fds").read_text())
    res = run_decomposition(cs, ZeroCtx(20, 0), MAX_DEGREE)
    assert res.status == "Inconclusive"
    assert len(res.branch_log) == 11
    suspended = [e for e in res.branch_log if e["outcome"] == "suspended"]
    assert sorted(e["count"] for e in suspended) == [1, 2, 129]
    for e in suspended:
        assert e["kind"] == "ansatz" and "c" not in e
        assert e["F"] and len(e["first"]) == len(e["last"]) == 2
        assert e["note"].startswith("flow not solvable: ")
    keys = [(e["parent"], e["level"], e["outcome"], e["note"])
            for e in res.branch_log if e["kind"] == "ansatz"]
    assert len(set(keys)) == len(keys)


def test_branch_log_shape(sin_sys):
    res = search(sin_sys)
    ids = [e["id"] for e in res.branch_log]
    assert ids == list(range(len(res.branch_log)))
    for e in res.branch_log:
        assert {"id", "parent", "level", "kind", "outcome"} <= set(e)
        assert e["parent"] is None or e["parent"] < e["id"]


def test_sequence_transforms_chart_bookkeeping(sin_sys, zc):
    res = search(sin_sys)
    S0 = from_control_system(sin_sys, zc)
    td = from_sequence(res.sequence, zc, sin_sys)
    theta = td.transform
    assert theta.target == S0.chart
    assert theta.source == td.chart
    deep = res.sequence[-1].S_next.chart
    params = [p.name for sp in res.sequence for p in sp.nondrv]
    assert set(s.name for s in theta.source.coords) == \
           set(s.name for s in deep.coords) | set(params)
    # each level's transform, extended by the earlier levels' parameters,
    # meets the next exactly, coordinate order included; the final chart
    # lists the kept coordinates, then the parameters newest first
    cur, earlier = S0.chart.coords, ()
    for sp in res.sequence:
        assert sp.transform.target.coords + earlier == cur
        cur = sp.transform.source.coords + earlier
        earlier = sp.nondrv + earlier
    assert theta.source.coords == cur == deep.coords + earlier
    # every original coordinate has an image expression in the final chart
    for s in S0.chart.coords:
        assert theta.forward[s] is not None


# -- the sample-point screen of the ansatz scan ----------------------------------------

def _level(S, zc):
    basis = vertical_annihilator(S, zc)
    return S, basis, contraction_tables(S, basis)


def _first_level(name, zc):
    cs = parse_system((DATA / f"{name}.fds").read_text())
    return _level(from_control_system(cs, zc), zc)


@pytest.mark.parametrize("name", ["nfd", "nfd2", "nfd4", "coupled", "chain4",
                                  "coupled-joint"])
def test_screen_agrees_with_symbolic_path(name, zc):
    if name == "coupled-joint":
        # below coupled's joint splitting (a dead end) the screen mostly skips
        S0 = _first_level("coupled", zc)[0]
        joint = next(sp for sp in reduce_top(S0, zc)[1]
                     if len(sp.F) == 2)
        S, basis, tabs = _level(joint.S_next, zc)
    else:
        S, basis, tabs = _first_level(name, zc)
    _, tables, keys = tabs
    screen = _Screen(S, basis, tabs, zc)
    assert screen.usable
    m, want = len(S.generators), S.dim - 1
    verdicts = []
    for c in _coefficient_vectors(S.chart, len(basis), MAX_DEGREE):
        verdict = screen.decide(c)
        verdicts.append(verdict)
        if verdict is None:
            continue
        sols = nullspace(_pencil_rows(tables, keys, c, m), m, zc)
        if verdict == _SKIP:
            assert len(sols) != want, c
        else:
            assert verdict in (_REJECT, _ACCEPT)
            assert len(sols) == want, c
            cand = span_from_solutions(S, sols, zc)
            assert cand.dim == want
            assert is_characteristic(_combine(c, basis), cand, zc) == \
                (verdict == _ACCEPT), c
    if name.startswith("nfd"):
        # not flat: every candidate fails, and the screen decides all of them
        assert set(verdicts) == {_REJECT}
    if name == "coupled-joint":
        assert verdicts.count(_SKIP) > 300


def test_pencil_rows_pad_missing_keys_to_every_generator():
    # a wedge index one table lacks counts as a zero row, as long as the
    # generator count, also beyond 64 generators
    x = var(Symbol("x", STATE))
    m = 65
    tables = [{(0, 1): [ONE] * m, (0, 2): [x] * m}, {(0, 1): [x] * m}]
    rows = _pencil_rows(tables, [(0, 1), (0, 2)], (x, ONE), m)
    assert [len(r) for r in rows] == [m, m]
    assert all(e == add(x, x) for e in rows[0])
    assert all(e == mul(x, x) for e in rows[1])


def _plain_combination(c, basis):
    """sum_i c_i b_i, summed on every axis: the reference for _combine."""
    chart = basis[0].chart
    comps = {}
    for s in chart.axes:
        e = add(*(mul(ci, b.comp(s)) for ci, b in zip(c, basis)))
        if e is not ZERO:
            comps[s] = e
    return comps


@pytest.mark.parametrize("name", ["unicycle", "coupled", "chained"])
def test_combine_is_the_plain_sum(name, zc):
    cs = _corpus(name)
    res = search(cs)
    levels = [from_control_system(cs, zc)] + [sp.S_next for sp in res.sequence]
    rng = random.Random(3)
    multi = zeros = 0
    for S in levels:
        basis = vertical_annihilator(S, zc)
        if not basis:
            continue
        multi += sum(len(b.components) > 1 for b in basis)
        k = len(basis)
        stream = list(itertools.islice(
            _coefficient_vectors(S.chart, k, MAX_DEGREE), 60))
        x = var(S.chart.coords[0])
        extra = [ONE, neg(x), mul(const(3), x), add(x, ONE), pow_(x, -2)]
        stream += [tuple(rng.choice(extra + [ZERO]) for _ in range(k))
                   for _ in range(20)]
        # fields that share axes: b_i + x*b_(i+1)
        mixed = [VectorField(S.chart, _plain_combination(
            [ONE if j == i else x if j == (i + 1) % k else ZERO
             for j in range(k)], basis)) for i in range(k)]
        for fields in (basis, mixed):
            for c in stream:
                zeros += ZERO in c
                got = _combine(c, fields)
                assert got.chart == S.chart
                assert [(s.name, e.key) for s, e in got.components.items()] == \
                    [(s.name, e.key)
                     for s, e in _plain_combination(c, fields).items()]
    assert multi and zeros


def _residue_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of residues, of the given rank with
    overwhelming probability: a product of random rows x rank and
    rank x cols factors."""
    A = [[rng.randrange(PRIME) for _ in range(rank)] for _ in range(rows)]
    B = [[rng.randrange(PRIME) for _ in range(cols)] for _ in range(rank)]
    return [[sum(A[i][t] * B[t][j] for t in range(rank)) % PRIME
             for j in range(cols)] for i in range(rows)]


def _rank(M):
    """The rank of a matrix of residues, by the dual oracle's elimination
    with divided pivots."""
    return len(dual_rref_mod_p(M)[2])


def test_rank_mod_p_matches_the_dual_elimination():
    rng = random.Random(11)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(rows, cols))
        deficient += r < min(rows, cols)
        M = _residue_matrix(rng, rows, cols, r)
        ders = [[rng.randrange(PRIME) for _ in range(cols)] for _ in range(rows)]
        vals, dvals, pivots = dual_rref_mod_p(M, ders)
        assert len(row_echelon_mod_p(M)[1]) == len(pivots) == r
        assert len(dual_nullspace_mod_p(M, ders, cols)) == cols - r
        # the inverse-free rows, each divided by its pivot, are the value
        # part of the dual elimination
        red, plain_pivots = row_echelon_mod_p(M)
        assert plain_pivots == pivots
        assert [[x * pow(row[c], -1, PRIME) % PRIME for x in row]
                for row, c in zip(red, plain_pivots)] == vals
        assert dual_rref_mod_p(M)[1] is None and len(dvals) == r
    assert deficient > 50


def test_span_test_agrees_with_rank():
    # the oracle's span test: a row of W leaves a remainder against P's
    # undivided rows exactly when it raises the rank; with rank P = want,
    # some row does exactly when rank [P; W] > want
    rng = random.Random(13)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        want = rng.randint(1, n)
        P = _residue_matrix(rng, want, n, rng.choice([want, want - 1]))
        W = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                coeffs = [rng.randrange(PRIME) for _ in P]
                W.append([sum(c * row[s] for c, row in zip(coeffs, P)) % PRIME
                          for s in range(n)])
            else:
                W.append([rng.randrange(PRIME) for _ in range(n)])
        red, pivots = row_echelon_mod_p(P)
        for w in W:
            inside = in_span_mod_p(red, pivots, w)
            assert inside == (_rank(P + [w]) == _rank(P))
        if len(pivots) < want:
            outcomes.add("deficient")
            continue
        outside = any(not in_span_mod_p(red, pivots, w) for w in W)
        assert outside == (_rank(P + W) > want)
        outcomes.add(outside)
    assert outcomes == {True, False, "deficient"}


def test_dual_nullspace_is_value_and_derivative():
    x, y, w = (Symbol(n, STATE) for n in ("x", "y", "w"))
    X, Y, W = var(x), var(y), var(w)
    rows = [[X, Y, mul(X, Y), ONE],
            [pow_(Y, 2), add(X, W), ONE, mul(W, X)]]
    v = VectorField(Chart((x, y, w)), {x: Y, y: ONE, w: mul(X, W)})
    red, pivots = row_echelon(rows, ZeroCtx(20, 0))
    pivot_cols = [c for _, c in pivots]
    basis = []
    for f in range(4):
        if f in pivot_cols:
            continue
        a = [ZERO] * 4
        a[f] = ONE
        for r, c in pivots:
            a[c] = neg(red[r][f])
        basis.append(a)
    for k in range(3):
        vals = [[value_mod_p(e, k, 0) for e in row] for row in rows]
        ders = [[value_mod_p(along(v, e), k, 0) for e in row] for row in rows]
        got = dual_nullspace_mod_p(vals, ders, 4)
        assert len(got) == len(basis) == 2
        for (a, da), sym in zip(got, basis):
            assert a == [value_mod_p(e, k, 0) for e in sym]
            assert da == [value_mod_p(along(v, e), k, 0) for e in sym]
            # and the pair really solves (M + eps M')(a + eps a') = 0
            for rv, rd in zip(vals, ders):
                assert sum(p * q for p, q in zip(rv, a)) % PRIME == 0
                assert sum(p * q + pd * q0 for p, q, pd, q0
                           in zip(rv, da, rd, a)) % PRIME == 0


@pytest.mark.parametrize("name", ["nfd", "nfd2", "coupled-joint"])
def test_screen_pencil_is_value_and_derivative(name, zc):
    # M(c)(z) and its derivative along v = sum_i c_i b_i, against the
    # symbolic pencil evaluated at the same point
    if name == "coupled-joint":
        S0 = _first_level("coupled", zc)[0]
        joint = next(sp for sp in reduce_top(S0, zc)[1]
                     if len(sp.F) == 2)
        S, basis, tabs = _level(joint.S_next, zc)
    else:
        S, basis, tabs = _first_level(name, zc)
    _, tables, keys = tabs
    screen = _Screen(S, basis, tabs, zc)
    oracle = DualScreen(screen)
    m = len(S.generators)
    checked = 0
    for c in itertools.islice(
            _coefficient_vectors(S.chart, len(basis), MAX_DEGREE), 80):
        level = oracle.level
        cv = [value_mod_p(x, 0, zc.seed) for x in c]
        dcv = [[value_mod_p(along(b, x), 0, zc.seed) for b in basis]
               for x in c]
        if level is None or None in cv or any(None in row for row in dcv):
            continue
        v = _combine(c, basis)
        rows = _pencil_rows(tables, keys, c, m)
        M, dM = dual_pencil_at(level, cv, dcv)
        assert M == [[value_mod_p(e, 0, zc.seed) for e in row] for row in rows]
        assert dM == [[value_mod_p(along(v, e), 0, zc.seed) for e in row]
                      for row in rows]
        checked += 1
    assert checked > 40


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.fds")))
def test_screen_matches_the_dual_number_oracle(name, seed, monkeypatch):
    # rowspace Q(z) in rowspace M(z) decides every candidate of every level
    # the search reaches as the elimination of (M + eps v(M))(z) over the
    # dual numbers does
    calls = _recording_tables(monkeypatch)
    cs = parse_system((DATA / f"{name}.fds").read_text())
    zc = ZeroCtx(20, seed)
    run_decomposition(cs, zc, MAX_DEGREE)
    screened = 0
    for S, basis, tabs in calls:
        screen = _Screen(S, basis, tabs, zc)
        if not screen.usable:
            continue
        oracle = DualScreen(screen)
        for c in _coefficient_vectors(S.chart, len(basis), MAX_DEGREE):
            assert screen.decide(c) == oracle.decide(c), (name, c)
            screened += 1
    # sin, cos and tan of independent arguments take the residue branch,
    # so every fixture has screened levels
    assert screened


@pytest.mark.parametrize("name", ["nfd", "nfd2", "coupled"])
def test_screen_matches_the_oracle_on_mixed_generators(name, zc):
    # g'_j = g_j + w g_(j+1) with w a coordinate the vertical fields move
    # spans the same system, but b.dg'_j gains b(w) g_(j+1), a part in the
    # span of the generators that the row-space test reads through Y
    S0, basis0, _ = _first_level(name, zc)
    w = var(next(s for s in basis0[0].components if s in S0.chart.coords))
    g = S0.generators
    S = PfaffianSystem(S0.chart, [form_add(g[j], scale(g[j + 1], w))
                                  if j + 1 < len(g) else g[j]
                                  for j in range(len(g))], zc)
    S, basis, tabs = _level(S, zc)
    screen = _Screen(S, basis, tabs, zc)
    oracle = DualScreen(screen)
    verdicts = [screen.decide(c) for c in
                _coefficient_vectors(S.chart, len(basis), MAX_DEGREE)]
    assert verdicts == [oracle.decide(c) for c in
                        _coefficient_vectors(S.chart, len(basis), MAX_DEGREE)]
    assert same_span(S, S0, zc) and _REJECT in verdicts


def test_deficient_generators_pass_the_candidate_on(zc):
    # with G(z) rank-deficient the contractions cannot be split against it,
    # so a candidate whose nullity is want goes to the symbolic path
    S, basis, tabs = _first_level("nfd", zc)
    cands = list(itertools.islice(
        _coefficient_vectors(S.chart, len(basis), MAX_DEGREE), 40))
    assert {_Screen(S, basis, tabs, zc).decide(c) for c in cands} == {_REJECT}
    screen = _Screen(S, basis, tabs, zc)
    assert len(screen.g) >= 2
    screen.g = [screen.g[0]] * len(screen.g)
    assert {screen.decide(c) for c in cands} == {None}


def test_a_pole_at_the_screen_point_passes_the_candidate_on(zc, monkeypatch):
    # the screen reads point 0 alone: a coefficient with a pole there
    # leaves its candidate to the symbolic path, which decides it as the
    # screen decides the same field without the pole
    S, basis, tabs = _first_level("nfd", zc)
    x = var(S.chart.coords[0])
    pole = div(ONE, add(x, const(-value_mod_p(x, 0, zc.seed))))
    assert value_mod_p(pole, 0, zc.seed) is None
    unit = tuple(ONE if i == 0 else ZERO for i in range(len(basis)))
    scaled = tuple(pole if i == 0 else ZERO for i in range(len(basis)))
    screen = _Screen(S, basis, tabs, zc)
    assert screen.decide(unit) == _REJECT
    assert screen.decide(scaled) is None
    monkeypatch.setattr(decompose, "_coefficient_vectors",
                        lambda *args: iter([unit, scaled]))
    first, second = _candidate_stream(S, basis, tabs, MAX_DEGREE, zc)
    assert first == (unit, None, False)
    c, cand, accepted = second
    assert c == scaled and cand.dim == S.dim - 1 and not accepted
    assert not is_characteristic(_combine(scaled, basis), cand, zc)


def test_screen_makes_no_elimination_per_candidate(zc, monkeypatch):
    # the level's matrices at z are built once, and the rank-one test
    # eliminates nothing: scanning nfd's first level runs one GF(p)
    # elimination, of G(z), for its one level and point
    S, basis, tabs = _first_level("nfd", zc)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return row_echelon_mod_p(rows)

    monkeypatch.setattr(decompose, "row_echelon_mod_p", counted)
    cands = list(_coefficient_vectors(S.chart, len(basis), MAX_DEGREE))
    assert list(_candidate_stream(S, basis, tabs, MAX_DEGREE, zc)) == \
        [(c, None, False) for c in cands]
    assert len(cands) == decompose.MAX_CANDIDATES
    assert calls == [len(S.generators)]


def _rank_one_level(rng, k, m, rows, shape):
    """A screen level of random residue tables over k coefficients and m
    generators, with M(z) = sum_i c_i T_i(z) of the given shape: "zero",
    "one" (rows on one line, the first rows zero), "any" (rank 2 or more
    with overwhelming probability for m >= 2), or "deficient" (rank one
    and G(z) rank-deficient: no Q rows).  Q's rows are on M's line or
    random, at random.  Returns (screen, c) for a _Screen whose one point
    holds these tables and c's residues."""
    line = [rng.randrange(1, PRIME) for _ in range(m)]
    lead = rng.randrange(rows)

    def table_row(r):
        if shape == "zero" or (shape != "any" and r < lead):
            return [0] * m
        if shape == "any":
            return [rng.randrange(PRIME) for _ in range(m)]
        a = rng.randrange(1, PRIME)
        return [a * x % PRIME for x in line]

    T = [[table_row(r) for r in range(rows)] for _ in range(k)]
    Tcols = [list(zip(*(Ti[r] for Ti in T))) for r in range(rows)]
    Qcols = None
    if shape != "deficient":
        on_line = rng.random() < 0.5
        H = [[[rng.randrange(1, PRIME) * x % PRIME for x in line] if on_line
              else [rng.randrange(PRIME) for _ in range(m)]
              for _ in range(rows)] for _ in range(k * k + k)]
        Qcols = [list(zip(*(Ht[r] for Ht in H))) for r in range(rows)]
    known = {i: (rng.randrange(1, PRIME), [rng.randrange(PRIME)
                                           for _ in range(k)])
             for i in range(k)}
    screen = _Screen.__new__(_Screen)
    screen.zc = ZeroCtx(1, 0)
    screen.level = (None, None, known, Tcols, Qcols)
    return screen, tuple(range(k))


def _eliminated_verdict(screen, c):
    """The verdict of a plain elimination of M(z), with a span test of each
    Q(z) row against its rows."""
    _, _, known, Tcols, Qcols = screen.level
    cv = [known[x][0] for x in c]
    M = [[sum(a * b for a, b in zip(cv, col)) % PRIME for col in row]
         for row in Tcols]
    m = len(M[0])
    red, pivots = row_echelon_mod_p(M)
    nullity = m - len(pivots)
    if nullity < m - 1:
        return _SKIP
    if nullity > m - 1 or Qcols is None:
        return None
    coeffs = [a * b for a in cv for b in cv]
    coeffs += [-sum(a * b for a, b in zip(cv, known[x][1])) for x in c]
    Q = [[sum(a * b for a, b in zip(coeffs, col)) % PRIME for col in row]
         for row in Qcols]
    if all(in_span_mod_p(red, pivots, q) for q in Q):
        return _ACCEPT
    return _REJECT


def test_rank_one_test_matches_a_plain_elimination():
    rng = random.Random(17)
    seen = collections.Counter()
    for _ in range(400):
        shape = rng.choice(["zero", "one", "any", "deficient"])
        screen, c = _rank_one_level(rng, rng.randint(1, 3), rng.randint(1, 4),
                                    rng.randint(1, 5), shape)
        verdict = screen.decide(c)
        assert verdict == _eliminated_verdict(screen, c), shape
        seen[shape, verdict] += 1
    assert {("zero", None), ("one", _ACCEPT), ("one", _REJECT),
            ("any", _SKIP), ("deficient", None)} <= set(seen)


@pytest.mark.parametrize("name", ["chain4", "coupled", "sinex"])
def test_accepted_scan_candidates_skip_the_symbolic_check(name, zc,
                                                          monkeypatch):
    # consider runs is_characteristic on no scan candidate the screen has
    # accepted; with the screen off it runs on every scan candidate, and
    # the search logs the same decisions
    cs = parse_system((DATA / f"{name}.fds").read_text())
    streamed, checked = [], []
    stream = decompose._candidate_stream

    def recorded(*args):
        for item in stream(*args):
            streamed.append(item)
            yield item

    def counted(v, P, zc):
        checked.append(P)
        return is_characteristic(v, P, zc)

    monkeypatch.setattr(decompose, "_candidate_stream", recorded)
    monkeypatch.setattr(decompose, "is_characteristic", counted)
    screened = run_decomposition(cs, zc, MAX_DEGREE)
    accepted = [cand for _, cand, ok in streamed if ok]
    assert accepted
    assert not [P for P in checked if any(P is cand for cand in accepted)]
    streamed.clear()
    checked.clear()
    monkeypatch.setattr(decompose, "evaluable_mod_p", lambda *args: False)
    symbolic = run_decomposition(cs, zc, MAX_DEGREE)
    cands = [cand for _, cand, ok in streamed if not ok]
    assert len(cands) == len(streamed) and None not in cands
    assert all(any(P is cand for P in checked) for cand in cands)
    assert symbolic.branch_log == screened.branch_log


def test_screen_takes_no_modular_inverse_per_candidate(zc, monkeypatch):
    # the eliminations are inverse-free: scanning nfd's first level divides
    # only G(z)'s pivot rows, once per level and point
    S, basis, tabs = _first_level("nfd", zc)
    inverses, pivot_rows = [], []
    original = decompose._Screen._tables_at

    def counted_pow(*args):
        if args[1:] == (-1, PRIME):
            inverses.append(args[0])
        return pow(*args)

    def tables_at(g, C, T, dT):
        pivot_rows.append(len(g))
        return original(g, C, T, dT)

    for module in (decompose, linalg):
        monkeypatch.setattr(module, "pow", counted_pow, raising=False)
    monkeypatch.setattr(decompose._Screen, "_tables_at",
                        staticmethod(tables_at))
    cands = list(_candidate_stream(S, basis, tabs, MAX_DEGREE, zc))
    assert len(cands) == decompose.MAX_CANDIDATES
    assert inverses and len(inverses) <= sum(pivot_rows)
    assert sum(pivot_rows) < len(cands)


def test_function_levels_bypass_screen(zc, monkeypatch):
    # sinex's levels take the residue branch; ln, sqrt, a function of a
    # constant and dependent arguments keep every level the search reaches
    # on the symbolic path
    calls = _recording_tables(monkeypatch)
    for rhs, usable in (("sin(u1/u2)", True), ("ln(u1/u2)", False),
                        ("sqrt(u1/u2)", False), ("sin(1)*u1 + u2*x1", False),
                        ("sin(u1/u2) + sin(2*u1/u2)", False)):
        calls.clear()
        cs = parse_system("system v { states: x1, x2, x3; inputs: u1, u2; "
                          f"dot(x1) = u1; dot(x2) = u2; dot(x3) = {rhs}; }}")
        assert run_decomposition(cs, zc, MAX_DEGREE).status == \
            "Triangularized"
        assert calls
        assert all(_Screen(*call, zc).usable == usable for call in calls), rhs
    S, basis, tabs = _first_level("nfd", zc)
    assert _Screen(S, basis, tabs, zc).usable
    # so does a function in a basis field: the screen reads the fields'
    # components mod p for the derivatives it takes
    def times(b, fn, arg):
        return VectorField(b.chart, {s: mul(func(fn, arg), e)
                                     for s, e in b.components.items()})

    w = var(next(iter(basis[0].components)))
    assert not _Screen(S, [times(basis[0], "ln", w), basis[1]], tabs,
                       zc).usable
    # one set of residues serves the whole level: sin w and sin 2w each
    # take it alone, but not together
    sin_w, sin_2w = (times(b, "sin", a) for b, a in
                     zip(basis, (w, mul(const(2), w))))
    assert _Screen(S, [sin_w, basis[1]], tabs, zc).usable
    assert _Screen(S, [basis[0], sin_2w], tabs, zc).usable
    assert not _Screen(S, [sin_w, sin_2w], tabs, zc).usable


@pytest.mark.parametrize("name, pools", [("chain4", 0), ("coupled", 1)])
def test_scan_builds_the_pool_only_past_the_unit_vectors(name, pools, zc,
                                                         monkeypatch):
    # chain4's levels have one vertical field each and accept its unit
    # vector; only coupled's second level reads past the unit vectors
    calls = []
    pool = decompose.monomial_pool
    monkeypatch.setattr(decompose, "monomial_pool",
                        lambda *args: calls.append(args) or pool(*args))
    cs = parse_system((DATA / f"{name}.fds").read_text())
    assert run_decomposition(cs, zc, MAX_DEGREE).status == \
        "Triangularized"
    assert len(calls) == pools


@pytest.mark.parametrize("name", ["coupled", "nfd"])
def test_screen_builds_no_symbolic_derivative(name, zc, monkeypatch):
    # every derivative the screen reads is taken forward-mode at the point
    calls = _recording_tables(monkeypatch)
    cs = parse_system((DATA / f"{name}.fds").read_text())
    run_decomposition(cs, zc, MAX_DEGREE)

    def no_diff(*args):
        raise AssertionError("symbolic derivative inside the screen")

    for mod in (symexpr, decompose, exterior, pfaffian):
        monkeypatch.setattr(mod, "diff", no_diff, raising=False)
    decided = 0
    for S, basis, tabs in calls:
        screen = _Screen(S, basis, tabs, zc)
        assert screen.usable
        for c in _coefficient_vectors(S.chart, len(basis), MAX_DEGREE):
            screen.decide(c)
            decided += 1
    assert decided >= (decompose.MAX_CANDIDATES if name == "nfd" else 300)
