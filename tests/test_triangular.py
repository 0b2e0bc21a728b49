"""Block-triangular assembly, structure checks, and numeric recovery."""

import dataclasses
import json
import math
import pathlib
import random

import numpy as np
import pytest

from flatdec import triangular
from flatdec.cli import _certificate_load
from flatdec.exterior import T, one_coeffs, oneform
from flatdec.linalg import ZeroCtx
from flatdec.pfaffian import jet
from flatdec.symexpr import (
    INPUT, ONE, ZERO, add, compile_expr, const, func, mul, neg, var,
)
from flatdec.sysdsl import parse_expr, parse_system, render
from flatdec.triangular import (
    Block, OutputCountMismatch, PolyCurve, RecoveryEngine, StructureViolation,
    _dynamics_residual, extract_flat_output, from_sequence,
    recover_trajectory, validate, verify_flatness_numeric,
)

from conftest import reference_recover_trajectory, search, tree_compile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def build(cs, zc):
    res = search(cs)
    assert res.status == "Triangularized"
    return from_sequence(res.sequence, zc, cs), res


@pytest.fixture(scope="module")
def zc():
    return ZeroCtx(0)


@pytest.fixture(scope="module")
def sin_td(sin_sys_m, zc):
    td, _ = build(sin_sys_m, zc)
    return td


@pytest.fixture(scope="module")
def sin_cert(sin_td):
    return extract_flat_output(sin_td)


@pytest.fixture(scope="module")
def coupled_td(coupled_sys_m, zc):
    td, _ = build(coupled_sys_m, zc)
    return td


def base_expr(cs, text):
    return parse_expr(text, cs.states + cs.inputs)


# -- assembly ------------------------------------------------------------------------


def test_block_shape_three_state(sin_td):
    assert sin_td.m == 4 and sin_td.n_b == 3
    dims = [len(b.coords) for b in sin_td.blocks]
    assert dims == [1, 2, 1, 1]
    assert [len(b.nondrv) for b in sin_td.blocks] == [0, 1, 1, 1]


def test_first_block_output_is_the_slow_state(sin_td):
    (y1,) = sin_td.blocks[0].y
    e = sin_td.transform.inverse[y1]
    assert render(e) == "x3"


def test_equation_counts_match_solved_variables(sin_td, coupled_td):
    for td in (sin_td, coupled_td):
        for i in range(1, td.n_b + 1):
            assert len(td.equations[i - 1]) == len(td.blocks[i].nondrv)


def test_blocks_partition_the_chart(sin_td, coupled_td):
    for td in (sin_td, coupled_td):
        seen = [c for b in td.blocks for c in b.coords]
        assert sorted(s.name for s in seen) == \
            sorted(s.name for s in td.chart.coords)
        assert len(seen) == len(set(seen))


def test_coefficient_accessors(sin_td, zc):
    # Xi^1 = dy - b dt: unit coefficient on block 1, b = sin(block-2 variable)
    (g,) = sin_td.equations[0]
    coeffs = one_coeffs(g)
    assert render(coeffs[sin_td.blocks[0].coords[0]]) == "1"
    p = sin_td.blocks[1].nondrv[0]
    assert render(neg(coeffs[T])) == f"sin({p.name})"
    # the first equation block carries nothing from deeper blocks
    for blk in sin_td.blocks[1:]:
        assert all(zc.zero(coeffs.get(c, ZERO)) for c in blk.coords)


def test_empty_sequence_rejected(sin_sys_m, zc):
    with pytest.raises(StructureViolation):
        from_sequence([], zc, sin_sys_m)


def test_unfinished_sequence_rejected(sin_sys_m, zc):
    res = search(sin_sys_m)
    with pytest.raises(StructureViolation):
        from_sequence(res.sequence[:-1], zc, sin_sys_m)


@pytest.mark.parametrize("corrupt, item", [
    pytest.param(lambda c, sym: {**c, sym["qh"]: ONE},
                 "Xi^1 involves no later coordinate", id="later-differential"),
    pytest.param(lambda c, sym: {k: mul(v, add(ONE, var(sym["qh"])))
                                 for k, v in c.items()},
                 "Xi^1 involves no later coordinate", id="later-dependence"),
    pytest.param(lambda c, sym: {**c, T: const(-1)},
                 "Xi^1 parameterizable in zhat^2", id="singular-jacobian"),
])
def test_structure_check_names_the_violation(sin_td, zc, corrupt, item):
    # Xi^1 is dr2 - sin(rh) dt; each corruption breaks one defining
    # property of the triangular form, and of Xi^1's own items validate
    # fails that one alone (a dqh also breaks the fields' items)
    sym = {c.name: c for c in sin_td.chart.coords}
    (g,) = sin_td.equations[0]
    bad = oneform(sin_td.chart, corrupt(dict(one_coeffs(g)), sym))
    td = dataclasses.replace(
        sin_td, equations=((bad,),) + sin_td.equations[1:])
    assert [label for label, ok in validate(td, zc)
            if label.startswith("Xi^1 ") and not ok] == [item]
    assert all(ok for _, ok in validate(sin_td, zc))


# -- validate ------------------------------------------------------------------------


def test_validate_all_pass(sin_td, coupled_td, chain_m, zc):
    td3, _ = build(chain_m, zc)
    for td in (sin_td, coupled_td, td3):
        rep = validate(td, zc)
        assert rep and all(ok for _, ok in rep), rep


def test_validate_catches_deep_coefficient(sin_td, zc):
    # inject the deepest variable into the first equation's drift term:
    # the characteristic property of that variable's field must break
    wh = sin_td.blocks[3].nondrv[0]
    (g,) = sin_td.equations[0]
    coeffs = dict(one_coeffs(g))
    from flatdec.exterior import T
    coeffs[T] = mul(coeffs[T], func("exp", var(wh)))
    bad = oneform(sin_td.chart, coeffs)
    td2 = dataclasses.replace(sin_td, equations=((bad,),) + sin_td.equations[1:])
    rep = dict(validate(td2, zc))
    assert rep["zhat^4 Cauchy for S_d1"] is False
    assert rep["Xi^2 parameterizable in zhat^3"] is True


def test_validate_catches_unsolvable_block(sin_td, zc):
    # constant drift: the first equation no longer pins down its variable
    (g,) = sin_td.equations[0]
    coeffs = dict(one_coeffs(g))
    from flatdec.exterior import T
    from flatdec.symexpr import ONE
    coeffs[T] = ONE
    bad = oneform(sin_td.chart, coeffs)
    td2 = dataclasses.replace(sin_td, equations=((bad,),) + sin_td.equations[1:])
    rep = dict(validate(td2, zc))
    assert rep["Xi^1 parameterizable in zhat^2"] is False


# -- flat output extraction ----------------------------------------------------------


def test_extract_outputs(sin_cert, sin_sys_m):
    assert [render(y) for y in sin_cert.outputs] == ["x3", "x1 - u1*x2/u2"]
    assert sin_cert.order == "1-flat"
    assert len(sin_cert.outputs) == len(sin_sys_m.inputs)


def test_chain_is_state_flat(chain_m, zc):
    td, _ = build(chain_m, zc)
    cert = extract_flat_output(td)
    assert cert.order == "0-flat"
    assert all(s.kind != INPUT for y in cert.outputs for s in y.free)
    assert [render(y) for y in cert.outputs] == ["x1"]


def test_output_count_mismatch(sin_td):
    blocks = list(sin_td.blocks)
    b2 = blocks[1]
    blocks[1] = Block(b2.index, b2.y + b2.nondrv, ())
    td2 = dataclasses.replace(sin_td, blocks=tuple(blocks))
    with pytest.raises(OutputCountMismatch):
        extract_flat_output(td2)


# -- trajectory recovery -------------------------------------------------------------


def recover(cert, curves, ts, guess):
    """recover_trajectory on a fresh engine, with the samples as an array."""
    engine = RecoveryEngine(cert)
    ts = np.asarray(ts, dtype=float)
    return engine, ts, recover_trajectory(engine, curves, ts, guess)


def test_recovery_closed_form_point(sin_cert):
    # block-1 output t^2/2, block-2 output 1 + t, sampled at t = 1/2
    curves = [PolyCurve((0.0, 0.0, 0.5)), PolyCurve((1.0, 1.0))]
    engine, ts, (vals, x, u, failures) = recover(sin_cert, curves, [0.5], {})
    assert failures == {}
    assert vals.shape == (len(engine.args), 1)
    assert abs(x["x3"][0] - 0.125) < 1e-12
    assert abs(u["u1"][0] / u["u2"][0] - math.asin(0.5)) < 1e-9
    assert abs(x["x1"][0] - u["u1"][0] * x["x2"][0] / u["u2"][0] - 1.5) < 1e-9
    # a single sample has no neighbour to take a divided difference with
    assert math.isnan(_dynamics_residual(engine, ts, x, u))


def test_recovery_integrator_chain_exact(chain_m, zc):
    td, _ = build(chain_m, zc)
    cert = extract_flat_output(td)
    engine, ts, (_, x, u, failures) = recover(
        cert, [PolyCurve((0.0, 0.0, 0.0, 1.0))], [0.0, 0.25, 0.5, 1.0], {})
    assert failures == {}
    assert np.abs(u["u"] - 6 * ts).max() < 1e-9
    assert np.abs(x["x1"] - ts ** 3).max() < 1e-12
    assert np.abs(x["x2"] - 3 * ts ** 2).max() < 1e-9
    # midpoint defect of the cubic on the coarse grid: (dt)^2 / 2
    defect = _dynamics_residual(engine, ts, x, u)
    assert abs(defect - 0.125) < 1e-9


def test_recovery_constant_output_degenerates(sin_cert):
    curves = [PolyCurve((1.0,)), PolyCurve((1.0, 1.0))]
    _, _, (_, _, _, failures) = recover(sin_cert, curves, [0.3, 0.6], {})
    assert sorted(failures) == [0, 1]
    assert failures[0].detail == "singular Jacobian in block 2 at t=0.3"
    assert failures[1].detail == "singular Jacobian in block 2 at t=0.6"


def test_recovery_curve_count_checked(sin_cert):
    with pytest.raises(ValueError):
        recover(sin_cert, [PolyCurve((1.0,))], [0.0], {})


def test_recovery_skips_and_reports_bad_samples(sin_cert):
    # derivative of the first output exceeds the drift's range at large t
    curves = [PolyCurve((0.0, 0.0, 1.0)), PolyCurve((1.0, 1.0))]
    _, _, (_, x, _, failures) = recover(sin_cert, curves, [0.1, 0.9], {})
    assert list(failures) == [1]
    assert "block 1" in failures[1].detail
    assert abs(x["x3"][0] - 0.01) < 1e-12


def test_initial_guess_selects_branch(zc):
    # two recovery branches u = +-sqrt(ydot); the cold start sits on the fold
    cs = parse_system(
        "system sq {\n  states: x;\n  inputs: u;\n  dot(x) = u*u;\n}")
    td, _ = build(cs, zc)
    cert = extract_flat_output(td)
    curves = [PolyCurve((1.0, 1.0))]
    p = td.blocks[1].nondrv[0].name
    _, _, (_, _, up, up_failures) = recover(cert, curves, [0.0], {p: 0.9})
    _, _, (_, _, dn, dn_failures) = recover(cert, curves, [0.0], {p: -0.9})
    assert up_failures == dn_failures == {}
    assert abs(up["u"][0] - 1.0) < 1e-9
    assert abs(dn["u"][0] + 1.0) < 1e-9
    _, _, (_, _, _, cold) = recover(cert, curves, [0.0], {})
    assert cold[0].detail == "singular Jacobian in block 1 at t=0.0"


UNICYCLE = """system unicycle {
  states: x, y, th;
  inputs: v, w;
  dot(x) = v*cos(th);
  dot(y) = v*sin(th);
  dot(th) = w;
}"""


def test_batched_recovery_matches_single_samples(sin_cert, coupled_td, zc):
    coupled_cert = extract_flat_output(coupled_td)
    # unicycle's last block solves for two unknowns at once
    uni_td, _ = build(parse_system(UNICYCLE), zc)
    assert [len(b.nondrv) for b in uni_td.blocks] == [0, 1, 2]
    cases = [
        (sin_cert, [PolyCurve((0.0, 0.0, 0.5)), PolyCurve((1.0, 1.0))],
         np.linspace(0.1, 0.9, 17)),
        (coupled_cert, [PolyCurve((1.0, 0.75, 0.05, 0.01, 0.002)),
                        PolyCurve((0.5, 0.3, -0.2, 0.1, 0.05))],
         np.linspace(0.0, 1.0, 21)),
        (extract_flat_output(uni_td), [PolyCurve((0.2, 0.3, 0.1, 0.02)),
                                       PolyCurve((1.0, 0.5, -0.1))],
         np.linspace(0.0, 1.0, 21)),
    ]
    for cert, curves, ts in cases:
        engine = RecoveryEngine(cert)
        names = [p.name for blk in cert.decomposition.blocks
                 for p in blk.nondrv]
        # a different Newton start at every sample
        seeds = {name: 0.05 * np.sin(np.arange(len(ts)) + i)
                 for i, name in enumerate(names)}
        vals, x, u, failures = recover_trajectory(engine, curves, ts, seeds)
        assert failures == {}
        for k, t in enumerate(ts):
            guess = {name: float(s[k]) for name, s in seeds.items()}
            one = recover_trajectory(engine, curves, ts[k:k + 1], guess)
            assert one[3] == {}
            assert np.abs(one[0][:, 0] - vals[:, k]).max() <= 1e-12
            for a, b in ((x, one[1]), (u, one[2])):
                assert a.keys() == b.keys()
                assert all(abs(a[n][k] - b[n][0]) <= 1e-12 for n in a), t


@pytest.mark.parametrize("den, singular", [("10000000000000", True),
                                             ("100000000000", False)])
def test_one_unknown_block_singular_below_1e_12(den, singular, zc):
    # the block's Jacobian is 1/den: 1e-13 is singular, 1e-11 is not
    cs = parse_system("system tiny {\n  states: x;\n  inputs: u;\n"
                      f"  dot(x) = u/{den};\n}}")
    td, _ = build(cs, zc)
    curves = [PolyCurve((0.0, 0.001))]
    _, _, (_, _, u, failures) = recover(extract_flat_output(td), curves,
                                        [0.5], {})
    if singular:
        assert failures[0].detail == "singular Jacobian in block 1 at t=0.5"
    else:
        assert failures == {}
        assert abs(u["u"][0] - 1e8) < 1e-3


def test_domain_violation_mid_batch_spares_neighbours(zc):
    cs = parse_system(
        "system lg {\n  states: x;\n  inputs: u;\n  dot(x) = ln(u);\n}")
    td, _ = build(cs, zc)
    cert = extract_flat_output(td)
    p = td.blocks[1].nondrv[0].name
    curves = [PolyCurve((0.0, 0.1, 0.2))]  # ln(u) = x' = 0.1 + 0.4 t
    # the middle sample starts where ln is undefined
    seeds = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    _, ts, (_, _, u, failures) = recover(
        cert, curves, [0.1, 0.2, 0.3, 0.4, 0.5], {p: seeds})
    assert list(failures) == [2]
    assert failures[2].detail.startswith("domain violation")
    assert "block 1 at t=0.3" in failures[2].detail
    good = np.array([0, 1, 3, 4])
    assert np.abs(np.log(u["u"][good]) - (0.1 + 0.4 * ts[good])).max() < 1e-12


# -- the compacted Newton working set against the reference recovery ----------------


def assert_same_recovery(got, want):
    """Bit-identical jets, states and inputs at every sample, failed ones
    too, and the same failures in the same order."""
    assert np.array_equal(got[0], want[0], equal_nan=True)
    for a, b in zip(got[1:3], want[1:3]):
        assert list(a) == list(b)
        assert all(np.array_equal(a[k], b[k], equal_nan=True) for k in a)
    assert list(got[3].items()) == list(want[3].items())
    assert [type(f) for f in got[3].values()] == \
        [type(f) for f in want[3].values()]


@pytest.fixture
def recovery_oracle(monkeypatch):
    """Check every recover_trajectory call against the reference; the list
    of failure maps seen grows with each call."""
    seen = []
    compacted = triangular.recover_trajectory

    def both(engine, curves, ts, guess):
        got = compacted(engine, curves, ts, guess)
        assert_same_recovery(
            got, reference_recover_trajectory(engine, curves, ts, guess))
        seen.append(got[3])
        return got

    monkeypatch.setattr(triangular, "recover_trajectory", both)
    return seen


def test_compacted_recovery_matches_the_reference(
        sin_cert, coupled_td, sin_sys_m, zc, recovery_oracle):
    uni_td, _ = build(parse_system(UNICYCLE), zc)
    wrong = (base_expr(sin_sys_m, "x3"), base_expr(sin_sys_m, "x2"))
    certs = [sin_cert, extract_flat_output(coupled_td),
             extract_flat_output(uni_td),
             dataclasses.replace(sin_cert, outputs=wrong)]
    verdicts = [verify_flatness_numeric(c, trials=6, seed=0) for c in certs]
    assert len(recovery_oracle) == 6 * 4
    # the wrong claim fails trials and loses some to failed samples
    assert verdicts[-1].failed and verdicts[-1].singular
    assert any(recovery_oracle)


def recovery_case(text, zc):
    """The recovery engine of a one-input system's certificate and the name
    of its one solved variable."""
    td, _ = build(parse_system(text), zc)
    return RecoveryEngine(extract_flat_output(td)), td.blocks[1].nondrv[0].name


def test_newton_failures_match_the_reference(zc):
    # dot(x) = u^3 - 2u along x = -2t: u^3 - 2u + 2 = 0 has one real root,
    # u = -1.7693.  From 0 Newton cycles 0 -> 1 -> 0, and from 0.1 it is
    # drawn into that cycle; from just above sqrt(2/3), where the derivative
    # 3u^2 - 2 nearly vanishes, it leaps past 1e9; from 3 it reaches the root
    engine, p = recovery_case("system cub {\n  states: x;\n  inputs: u;\n"
                              "  dot(x) = u^3 - 2*u;\n}", zc)
    curves = [PolyCurve((0.0, -2.0))]
    ts = np.array([0.0, 0.25, 0.5, 0.75])
    guess = {p: np.array([0.0, math.sqrt((2 + 1e-11) / 3), 3.0, 0.1])}
    got = recover_trajectory(engine, curves, ts, guess)
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, guess))
    u, failures = got[2]["u"], got[3]
    assert list(failures) == [1, 0, 3]
    assert {type(f) for f in failures.values()} == {triangular._SampleDiverged}
    assert failures[0].detail == "no convergence in block 1 at t=0.0"
    assert failures[1].detail == "Newton blow-up in block 1 at t=0.25"
    assert failures[3].detail == "no convergence in block 1 at t=0.75"
    assert abs(u[2] + 1.76929235) < 1e-8
    # the failed samples keep where Newton left them
    assert abs(u[1]) > 1e9
    assert abs(u[3]) < 0.01


def test_jacobian_failures_match_the_reference(zc):
    # dot(x) = sqrt(u) along x = t: the Jacobian 1/(2 sqrt(u)) is below
    # 1e-12 at u = 1e30 and infinite at u = 0, which Newton reaches from 4
    engine, p = recovery_case("system sq {\n  states: x;\n  inputs: u;\n"
                              "  dot(x) = sqrt(u);\n}", zc)
    curves = [PolyCurve((0.0, 1.0))]
    ts = np.array([0.0, 0.5, 1.0])
    guess = {p: np.array([1e30, 0.0, 4.0])}
    got = recover_trajectory(engine, curves, ts, guess)
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, guess))
    # within one Newton iteration non-finite Jacobians fail before singular
    # ones
    assert {k: f.detail for k, f in got[3].items()} == {
        1: "domain violation (non-finite Jacobian) in block 1 at t=0.5",
        0: "singular Jacobian in block 1 at t=0.0",
        2: "domain violation (non-finite Jacobian) in block 1 at t=1.0"}
    assert list(got[3]) == [1, 0, 2]


def test_derivative_chain_failure_writes_back_nothing(sin_cert):
    # block 1 solves sin(rh) = r2' for rh and its derivatives: at t = 0 Newton
    # converges, the first step of the chain gives rh' = r2''/cos(rh), about
    # 2.3e155, and the second squares it past the float range; at t = 0.1
    # r2' is about 2e154 and Newton blows up
    engine = RecoveryEngine(sin_cert)
    curves = [PolyCurve((0.0, 0.5, 1e155)), PolyCurve((1.0, 1.0))]
    ts = np.array([0.0, 0.1])
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, {}))
    vals, _, _, failures = got
    assert {k: f.detail for k, f in failures.items()} == {
        1: "Newton blow-up in block 1 at t=0.1",
        0: "domain violation (non-finite derivative) in block 1 at t=0.0"}
    (rh,) = sin_cert.decomposition.blocks[1].nondrv
    rows = {s: vals[engine.slot[s], 0] for s in (rh, jet(rh, 1), jet(rh, 2))}
    assert abs(rows[rh] - math.pi / 6) < 1e-12
    assert rows[jet(rh, 1)] == rows[jet(rh, 2)] == 0.0


def test_chain_failure_in_place_restores_the_rows(sin_cert):
    # both samples pass block 1's Newton, so its chain starts on the block
    # itself; rh' = r2''/cos(rh) is about 1.2e154 at rh = pi/6 and 7.1e154
    # at rh = asin(0.99), and rh'' = sin(rh) rh'^2/cos(rh) overflows only at
    # the second: that sample keeps its chain rows from before the chain
    engine = RecoveryEngine(sin_cert)
    curves = [PolyCurve((0.0, 0.5, 0.5e154)), PolyCurve((1.0, 1.0))]
    ts = np.array([0.0, 0.49e-154])
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, {}))
    vals, _, _, failures = got
    assert {k: f.detail for k, f in failures.items()} == {
        1: "domain violation (non-finite derivative) in block 1 at "
           f"t={ts[1]}"}
    (rh,) = sin_cert.decomposition.blocks[1].nondrv
    assert abs(vals[engine.slot[rh], 1] - math.asin(0.99)) < 1e-9
    assert vals[engine.slot[jet(rh, 1)], 1] == 0.0
    assert vals[engine.slot[jet(rh, 1)], 0] > 1e154


def recording(engine):
    """engine with each block's compiled functions wrapped to record their
    calls as (block, function, argument): function 0 is the residuals,
    1 the Jacobian, 2 and on the steps of the derivative chain."""
    calls = []

    def wrap(f, bi, kind):
        def call(a):
            calls.append((bi, kind, a))
            return f(a)
        return call

    engine.blocks = [(unknowns, need, rows,
                      *(wrap(f, bi, kind) for kind, f in enumerate(fns)))
                     for bi, (unknowns, need, rows, *fns)
                     in enumerate(engine.blocks, start=1)]
    return calls


def test_all_live_blocks_are_worked_in_place(chain_m, zc):
    # the integrator chain's blocks are linear, so every sample converges
    # at the same Newton step: Newton and the chain of each block read one
    # array, the block itself, and never a gathered copy of it
    td, _ = build(chain_m, zc)
    engine = RecoveryEngine(extract_flat_output(td))
    curves = [PolyCurve((0.1, 0.2, 0.3, 0.4, 0.5))]
    ts = np.linspace(0.0, 1.0, 11)
    want = reference_recover_trajectory(engine, curves, ts, {})
    calls = recording(engine)
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(got, want)
    assert got[3] == {}
    for bi in range(1, len(engine.blocks) + 1):
        arrays = [a for b, _, a in calls if b == bi]
        assert len(arrays) >= 3
        assert all(a is arrays[0] for a in arrays), bi
        assert arrays[0].shape[1] == len(ts)
    # block 1 has a derivative chain, and it ran on the block too
    assert any(b == 1 and kind >= 2 for b, kind, _ in calls)


def test_newton_compacts_when_the_first_samples_leave(zc):
    # dot(x) = u^3 - 2u along x = -2t: the samples started at -1.77 reach
    # the root -1.7693 in two steps, those started at 3 take many more
    engine, p = recovery_case("system cub {\n  states: x;\n  inputs: u;\n"
                              "  dot(x) = u^3 - 2*u;\n}", zc)
    curves = [PolyCurve((0.0, -2.0))]
    ts = np.linspace(0.0, 1.0, 9)
    start = np.full(9, 3.0)
    start[[2, 6]] = -1.77
    guess = {p: start}
    want = reference_recover_trajectory(engine, curves, ts, guess)
    calls = recording(engine)
    got = recover_trajectory(engine, curves, ts, guess)
    assert_same_recovery(got, want)
    assert got[3] == {}
    assert np.abs(got[2]["u"] + 1.76929235).max() < 1e-8
    arrays = [a for _, kind, a in calls if kind == 0]
    # in place for the first iterations, compact once the two leave
    assert arrays[1] is arrays[0] and arrays[2] is arrays[0]
    assert arrays[0].shape[1] == 9
    assert {a.shape[1] for a in arrays[3:]} == {7}
    # every sample converged, so the chain's Jacobian reads the block again
    assert calls[-1][1] == 1 and calls[-1][2] is arrays[0]


def test_block_after_a_failure_starts_compacted(sin_cert):
    # sin(rh) = r2' = 2t has no root past t = 1/2: those samples fail in
    # block 1, and the later blocks start on the others alone
    engine = RecoveryEngine(sin_cert)
    curves = [PolyCurve((0.0, 0.0, 1.0)), PolyCurve((1.0, 1.0))]
    ts = np.linspace(0.05, 0.95, 10)
    want = reference_recover_trajectory(engine, curves, ts, {})
    calls = recording(engine)
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(got, want)
    assert list(got[3]) == [5, 6, 7, 8, 9]
    assert {f.block for f in got[3].values()} == {1}
    assert np.isfinite(got[1]["x1"][:5]).all()
    later = [a.shape[1] for bi, _, a in calls if bi > 1]
    assert later and max(later) == 5


@pytest.mark.parametrize("gap, singular", [(0.9e-12, True),
                                           (1.1e-12, False)])
def test_two_unknown_determinant_threshold(gap, singular, zc):
    # unicycle's last block solves for v and w with |det J| = |cos(th)|;
    # th(0) = pi/2 - gap puts it just below or just above 1e-12
    uni_td, _ = build(parse_system(UNICYCLE), zc)
    engine = RecoveryEngine(extract_flat_output(uni_td))
    assert len(engine.blocks[-1][0]) == 2
    curves = [PolyCurve((0.2, 0.3, 0.1)),
              PolyCurve((math.pi / 2 - gap, -0.5))]
    ts = np.array([0.0, 0.25, 0.5])
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, {}))
    if singular:
        assert {k: f.detail for k, f in got[3].items()} == {
            0: "singular Jacobian in block 2 at t=0.0"}
    else:
        assert got[3] == {}


@pytest.mark.parametrize("phase", ["newton", "chain"])
def test_two_unknown_jacobian_lapack_cannot_factor_fails_one_sample(
        phase, zc):
    # |det J| = 3.6e-12 in closed form, but np.linalg.solve meets an exactly
    # zero LU pivot: sample 0 fails as singular, the others are solved
    uni_td, _ = build(parse_system(UNICYCLE), zc)
    engine = RecoveryEngine(extract_flat_output(uni_td))
    J = np.array([[19.65813714096815, 7217.0209958906435],
                  [3.2865069716518276, 1206.5634524505142]])
    assert abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]) >= 1e-12
    assert np.linalg.det(J) == 0
    unknowns, need, rows, rf, jf, *chains = engine.blocks[1]
    g2 = list(need).index(engine.slot[jet(engine.flat[1], 0)])
    if phase == "chain":
        # block 2, the last, has no derivative chain: give it a stand-in
        # step into the unknowns' first jets, and hand J over only once
        # Newton has converged, so that the chain meets it
        need = list(need) + [engine.slot[jet(p, 1)] for p in unknowns]
        rows = [rows[0], [len(need) - 2, len(need) - 1]]
        chains = [rf]

    def jf_at_zero(a):
        raw = jf(a)
        at = a[g2] == 0.5   # g2(0) = 0.5
        if phase == "chain":
            at &= np.abs(rf(a)).max(axis=0) < 1e-12
        raw[:, at] = J.reshape(4, 1)
        return raw

    engine.blocks[1] = (unknowns, need, rows, rf, jf_at_zero, *chains)
    curves = [PolyCurve((0.2, 0.3, 0.1)), PolyCurve((0.5, -0.5))]
    ts = np.array([0.0, 0.25, 0.5])
    got = recover_trajectory(engine, curves, ts, {})
    assert_same_recovery(
        got, reference_recover_trajectory(engine, curves, ts, {}))
    assert {k: f.detail for k, f in got[3].items()} == {
        0: "singular Jacobian in block 2 at t=0.0"}


# -- numeric verification ------------------------------------------------------------


def test_verify_accepts_genuine_certificate(sin_cert):
    v = verify_flatness_numeric(sin_cert, trials=5, seed=0)
    assert v.ok, v
    assert v.failed == 0
    assert v.trials == 5
    assert v.passed + v.failed + v.singular == 5
    assert v.worst_deviation < 1e-6


def test_one_unknown_blocks_never_reach_lapack(sin_cert, monkeypatch):
    # every block of sinex has one unknown: Newton and the derivative
    # chain divide by the Jacobian instead of calling det or solve
    want = verify_flatness_numeric(sin_cert, trials=3, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called for a one-unknown block")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    assert verify_flatness_numeric(sin_cert, trials=3, seed=0) == want


def test_reference_run_steps_once_per_fit_sample(sin_cert, monkeypatch):
    # the reference run only feeds the test curves and Newton's starting
    # points, so it steps once per fit sample; the re-integration is the
    # pass bar and keeps h = 1e-3 on [0, 1]
    calls = []
    compile_rk4 = triangular.compile_rk4

    def recording(dynamics, states, inputs):
        run = compile_rk4(dynamics, states, inputs)

        def record(x0, ua, ub, uc, n, step):
            calls.append((n, step))
            return run(x0, ua, ub, uc, n, step)
        return record

    monkeypatch.setattr(triangular, "compile_rk4", recording)
    v = verify_flatness_numeric(sin_cert, trials=2, seed=0)
    assert (v.passed, v.failed, v.singular) == (2, 0, 0)
    assert calls == [(100, 0.01), (1000, 0.001)] * 2


def test_verify_accepts_coupled_certificate(coupled_td):
    cert = extract_flat_output(coupled_td)
    v = verify_flatness_numeric(cert, trials=5, seed=0)
    assert v.ok, v
    assert v.failed == 0


def test_verify_rejects_corrupted_outputs(sin_cert, sin_sys_m):
    bad = (base_expr(sin_sys_m, "x3"), base_expr(sin_sys_m, "x2"))
    v = verify_flatness_numeric(dataclasses.replace(sin_cert, outputs=bad),
                                trials=5, seed=0)
    assert not v.ok
    assert v.failed > 0


def test_verify_deterministic(sin_cert):
    a = verify_flatness_numeric(sin_cert, trials=3, seed=7)
    b = verify_flatness_numeric(sin_cert, trials=3, seed=7)
    assert a == b


# -- polynomial curves ---------------------------------------------------------------


def test_polycurve_derivatives():
    c = PolyCurve((1.0, -2.0, 0.0, 4.0))  # 1 - 2t + 4t^3
    assert c.eval(0.5) == 1 - 1 + 0.5
    assert c.eval(0.5, 1) == -2 + 12 * 0.25
    assert c.eval(0.5, 2) == 24 * 0.5
    assert c.eval(0.5, 3) == 24.0
    assert c.eval(0.5, 4) == 0.0


def test_polycurve_fit_roundtrip():
    src = PolyCurve((0.3, -1.0, 2.0))
    ts = [k / 10 for k in range(11)]
    fit = PolyCurve.fit(ts, [src.eval(t) for t in ts], 2)
    assert all(abs(a - b) < 1e-9 for a, b in zip(src.coeffs, fit.coeffs))


# -- compiled programs against the tree-walk oracle ----------------------------------

FLAT_CORPUS = ("chain2", "chain3", "chain4", "chain5", "chain6", "chained",
               "coupled", "nlchain", "sinex", "unicycle")
# the tree-walk oracle spends about 11 s and over 1 GB compiling the one
# larger expression, pvtol's 1,358,702-node recovery residual
ORACLE_NODES = 200_000


def _certificate(name):
    if name == "pvtol":
        data = ROOT / "tests" / "data" / "slow"
        cs = parse_system((data / "pvtol.fds").read_text(encoding="utf-8"))
        obj = json.loads((data / "pvtol.cert.json").read_text(encoding="utf-8"))
        return _certificate_load(obj, cs)
    path = ROOT / "perfbench" / "systems" / f"{name}.fds"
    cs = parse_system(path.read_text(encoding="utf-8"))
    td, _ = build(cs, ZeroCtx(0))
    return extract_flat_output(td)


@pytest.mark.parametrize("name", FLAT_CORPUS + ("pvtol",))
def test_verifier_programs_match_the_tree_oracle(name, monkeypatch):
    # every list the verifier compiles, at points inside and outside the
    # domain: random ones, all zeros (poles) and 1e300 (overflow)
    lists = []

    def record(exprs, args):
        lists.append((list(exprs), list(args)))
        return compile_expr(exprs, args)

    monkeypatch.setattr(triangular, "compile_expr", record)
    verify_flatness_numeric(_certificate(name), trials=0, seed=0)
    assert lists
    rng = random.Random(name)
    checked = 0
    for exprs, args in lists:
        pts = np.array([[rng.uniform(-2.0, 2.0) for _ in range(30)]
                        + [0.0, 1e300] for _ in args])
        with np.errstate(all="ignore"):
            got = compile_expr(exprs, args)(pts)
            for row, e in zip(got, exprs):
                if e.nodes > ORACLE_NODES:
                    continue
                want = np.broadcast_to(tree_compile(e, args, np)(pts),
                                       row.shape)
                assert np.array_equal(row, want, equal_nan=True), e
                checked += 1
    assert checked >= len(lists)
