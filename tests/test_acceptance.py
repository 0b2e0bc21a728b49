"""End-to-end acceptance suite.

One test per shipped claim, each printing a single verdict line.  These run
the public entry points on the bundled fixture systems and hold results to
the stated tolerances; nothing here reaches into private solver state
except the transform lift needed to compare reduction levels across charts.
"""

import dataclasses
import itertools
import json
import random
import time

import pytest

from flatdec import symexpr
from flatdec.cli import main
from flatdec.decompose import _lift_through
from flatdec.exterior import (
    Chart, T, VectorField, contract, d, oneform, wedge, wedge_all,
)
from flatdec.linalg import ZeroCtx
from flatdec.pfaffian import (
    PfaffianSystem, derived_flag, derived_system, from_control_system,
    is_involutive,
)
from flatdec.symexpr import AUX, Symbol, ZERO, add, const, func, mul, neg, var
from flatdec.sysdsl import parse_expr, parse_system
from flatdec.triangular import (
    extract_flat_output, from_sequence, verify_flatness_numeric,
)

from conftest import SIN_SYS, chain_text, contains, same_span, search, tables


@pytest.fixture(scope="module")
def zc():
    return ZeroCtx(0)


def _decompose_timed(cs):
    t0 = time.perf_counter()
    res = search(cs)
    cert = None
    if res.status == "Triangularized":
        td = from_sequence(res.sequence, ZeroCtx(0), cs)
        cert = extract_flat_output(td)
    return res, cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sin_run(sin_sys_m):
    res, cert, secs = _decompose_timed(sin_sys_m)
    return {"cs": sin_sys_m, "res": res, "cert": cert, "seconds": secs}


@pytest.fixture(scope="module")
def coupled_run(coupled_sys_m):
    res, cert, secs = _decompose_timed(coupled_sys_m)
    return {"cs": coupled_sys_m, "res": res, "cert": cert, "seconds": secs}


@pytest.fixture(scope="module")
def all_fixtures(sin_sys_m, coupled_sys_m):
    systems = [("sinex", sin_sys_m), ("coupled", coupled_sys_m)]
    systems += [(f"chain{n}", parse_system(chain_text(n))) for n in (2, 3, 4)]
    return systems


def _rescale_pool(coords):
    """Candidate nonzero scale functions: signed monomials and ratios."""
    names = [s.name for s in coords]
    texts = ["1"] + names
    texts += [f"{a}*{b}" for a in names for b in names]
    texts += [f"{a}/{b}" for a in names for b in names if a != b]
    pool = []
    for t in texts:
        e = parse_expr(t, coords)
        pool.append(e)
        pool.append(neg(e))
    return pool


def _outputs_match(got, want, coords, zc):
    """True iff `got` equals `want` up to order and nonzero rescaling."""
    pool = _rescale_pool(coords)

    def pair_ok(a, p):
        return any(zc.zero(add(a, neg(mul(lam, p)))) for lam in pool)

    for perm in itertools.permutations(range(len(want))):
        if all(pair_ok(a, want[j]) for a, j in zip(got, perm)):
            return True
    return False


def test_criterion_1_motivating_flat_outputs(sin_run, zc):
    res, cert = sin_run["res"], sin_run["cert"]
    assert res.status == "Triangularized"
    coords = tuple(sin_run["cs"].states) + tuple(sin_run["cs"].inputs)
    want = [parse_expr("x3", coords), parse_expr("x2 - x1*u2/u1", coords)]
    assert _outputs_match(list(cert.outputs), want, coords, zc)
    assert sin_run["seconds"] < 10.0
    print(f"[criterion 1] PASS: outputs match in {sin_run['seconds']:.2f}s")


def test_criterion_2_motivating_derived_generator(sin_sys_m, zc):
    S0 = from_control_system(sin_sys_m, zc)
    S1 = derived_system(S0, tables(S0, zc), zc)
    assert S1.dim == 1
    coords = tuple(sin_sys_m.states) + tuple(sin_sys_m.inputs)
    by = {s.name: s for s in coords}

    def e(text):
        return parse_expr(text, coords)

    phi = oneform(S0.chart, {
        by["x1"]: e("-cos(u1/u2)"),
        by["x2"]: e("(u1/u2)*cos(u1/u2)"),
        by["x3"]: e("u2"),
        T: e("-u2*sin(u1/u2)"),
    })
    residual = wedge(S1.generators[0], phi)
    assert all(zc.zero(c) for c in residual.coeffs.values())
    print("[criterion 2] PASS: derived system is spanned by the "
          "reference form")


def test_criterion_3_coupled_outputs_and_dead_end(coupled_run, zc):
    res, cert = coupled_run["res"], coupled_run["cert"]
    assert res.status == "Triangularized"
    cs = coupled_run["cs"]
    coords = tuple(cs.states) + tuple(cs.inputs)
    want = [parse_expr("x1 - u2*x2", coords), parse_expr("x4", coords)]
    assert _outputs_match(list(cert.outputs), want, coords, zc)

    S0 = from_control_system(cs, zc)
    S1d = derived_system(S0, tables(S0, zc), zc)
    by = {s.name: s for s in coords}
    target_F = {frozenset({("u1", "1")}), frozenset({("u2", "1")})}
    hit = False
    for entry in res.branch_log:
        if (entry.get("kind") != "splitting" or entry.get("level") != 0
                or entry.get("outcome") != "dead_end"):
            continue
        if {frozenset(f.items()) for f in entry["F"]} != target_F:
            continue
        gens = []
        for form in entry["S_kept"]:
            cf = {(T if k == "t" else by[k]): parse_expr(v, coords)
                  for k, v in form.items()}
            gens.append(oneform(S0.chart, cf))
        lifted = PfaffianSystem(S0.chart, gens, zc)
        if lifted.dim == S1d.dim and same_span(lifted, S1d, zc):
            hit = True
            break
    assert hit, "no dead-end branch reducing via the full input annihilator"
    assert coupled_run["seconds"] < 30.0
    print(f"[criterion 3] PASS: outputs and dead-end branch found in "
          f"{coupled_run['seconds']:.2f}s")


def test_criterion_4_integrator_chain_flag_consistency(all_fixtures, zc):
    checked = []
    for name, cs in all_fixtures:
        S0 = from_control_system(cs, zc)
        levels = derived_flag(S0, zc)
        if not all(is_involutive(P, tabs, zc)
                   for P, _, tabs in levels[1:]):
            continue
        flag = [P for P, _, _ in levels]
        res = search(cs)
        assert res.status == "Triangularized", name
        assert len(flag) == len(res.sequence) + 1, name
        for k in range(1, len(flag)):
            gens = list(res.sequence[k - 1].S_next.generators)
            for sp in reversed(res.sequence[:k]):
                gens = [_lift_through(sp.transform, g) for g in gens]
            S_k = PfaffianSystem(S0.chart, gens, zc)
            assert S_k.dim == flag[k].dim, (name, k)
            assert all(contains(flag[k], g, zc) for g in S_k.generators)
            assert all(contains(S_k, g, zc) for g in flag[k].generators)
        checked.append(name)
    assert {"chain2", "chain3", "chain4"} <= set(checked)
    print(f"[criterion 4] PASS: sequence matches derived flag on "
          f"{', '.join(checked)}")


def test_criterion_5_derived_condition_vanishing(all_fixtures, zc):
    total = 0
    for name, cs in all_fixtures:
        S0 = from_control_system(cs, zc)
        flag = derived_flag(S0, zc)
        for (P, V, _), (P1, _, _) in zip(flag, flag[1:]):
            if P.dim == 0:
                break
            top = wedge_all(P.generators, P.chart)
            for v in V:
                for w in P1.generators:
                    residual = wedge(contract(v, d(w)), top)
                    bad = [c for c in residual.coeffs.values()
                           if not zc.zero(c)]
                    assert not bad, (name, P.dim)
                    total += 1
    assert total > 0
    print(f"[criterion 5] PASS: {total} contraction residuals vanish")


SYMS = tuple(Symbol(n, AUX) for n in "abc")
CH = Chart(SYMS)


def _rand_expr(rng, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.30:
        if r < 0.08:
            return const(rng.randint(1, 3))
        return var(rng.choice(SYMS))
    if r < 0.50:
        return func(rng.choice(("sin", "cos")), var(rng.choice(SYMS)))
    if r < 0.80:
        return mul(_rand_expr(rng, depth + 1), _rand_expr(rng, depth + 1))
    return add(_rand_expr(rng, depth + 1), _rand_expr(rng, depth + 1))


def _rand_oneform(rng):
    axes = list(SYMS) + [T]
    picked = rng.sample(axes, rng.randint(1, 2))
    return oneform(CH, {s: _rand_expr(rng) for s in picked})


def _rand_form(rng, degree):
    if degree == 1:
        return _rand_oneform(rng)
    return wedge(_rand_oneform(rng), _rand_oneform(rng))


def _rand_field(rng):
    picked = rng.sample(list(SYMS), rng.randint(1, 2))
    return VectorField(CH, {s: _rand_expr(rng) for s in picked})


def _combo_zero(parts, zc):
    """All coefficients of a signed sum of same-degree forms vanish."""
    keys = set()
    for _, p in parts:
        keys |= set(p.coeffs)
    for k in keys:
        term = add(*[p.coeffs.get(k, ZERO) if s > 0
                     else neg(p.coeffs.get(k, ZERO)) for s, p in parts])
        if not zc.zero(term):
            return False
    return True


def test_criterion_6_exterior_identity_suite(monkeypatch):
    # four points per zero test keep the 2,000 identities quick
    monkeypatch.setattr(symexpr, "ZERO_POINTS", 4)
    zc = ZeroCtx(1)
    n = 500
    rng = random.Random(601)
    for _ in range(n):
        w = _rand_form(rng, rng.choice((1, 2)))
        assert _combo_zero([(1, d(d(w)))], zc)

    rng = random.Random(602)
    for _ in range(n):
        p, q = rng.choice((1, 2)), rng.choice((1, 2))
        a, b = _rand_form(rng, p), _rand_form(rng, q)
        sign = -1 if (p * q) % 2 == 0 else 1
        assert _combo_zero([(1, wedge(a, b)), (sign, wedge(b, a))], zc)

    rng = random.Random(603)
    for _ in range(n):
        p = rng.choice((1, 2))
        a, b = _rand_form(rng, p), _rand_oneform(rng)
        v = _rand_field(rng)
        parts = [(1, contract(v, wedge(a, b))),
                 (-1, wedge(contract(v, a), b)),
                 (-(-1) ** p, wedge(a, contract(v, b)))]
        assert _combo_zero(parts, zc)

    rng = random.Random(604)
    for _ in range(n):
        a = _rand_form(rng, 2)
        v, w = _rand_field(rng), _rand_field(rng)
        assert _combo_zero([(1, contract(v, contract(w, a))),
                            (1, contract(w, contract(v, a)))], zc)
    print(f"[criterion 6] PASS: 4 identities x {n} random instances")


def test_criterion_7_numeric_flatness_verdicts(sin_run, coupled_run):
    for name, run in (("sinex", sin_run), ("coupled", coupled_run)):
        verdict = verify_flatness_numeric(run["cert"], trials=20, seed=0)
        assert verdict.ok, (name, verdict)
        assert (verdict.passed, verdict.failed, verdict.singular) == \
            (20, 0, 0), (name, verdict)
        assert verdict.passed * 5 >= verdict.trials * 4
        assert verdict.worst_deviation < 1e-6

    cs = sin_run["cs"]
    coords = tuple(cs.states) + tuple(cs.inputs)
    corrupted = dataclasses.replace(
        sin_run["cert"],
        outputs=(parse_expr("x3", coords), parse_expr("x2", coords)))
    verdict = verify_flatness_numeric(corrupted, trials=20, seed=0)
    assert not verdict.ok
    assert verdict.failed > 0
    assert (verdict.passed, verdict.failed, verdict.singular) == (0, 17, 3)
    print("[criterion 7] PASS: genuine certificates verify, corrupted "
          "certificate is rejected")


def test_criterion_8_report_determinism(tmp_path):
    src = tmp_path / "sinex.fds"
    src.write_text(SIN_SYS)
    outs = []
    for tag in ("r1", "r2"):
        report = tmp_path / f"{tag}.json"
        code = main(["decompose", str(src), "--seed", "3", "--samples", "5",
                     "--verify", "--report", str(report)])
        assert code == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]
    obj = json.loads(outs[0].decode("utf-8"))
    assert obj["schema"] == "flatdec/1"
    print("[criterion 8] PASS: identical flags and seed give byte-identical "
          "reports")
