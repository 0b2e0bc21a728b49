"""Block-triangular assembly, structure checks, and numeric recovery."""

import dataclasses
import math

import numpy as np
import pytest

from flatdec.decompose import run_decomposition
from flatdec.exterior import one_coeffs, oneform
from flatdec.linalg import ZeroCtx
from flatdec.symexpr import INPUT, func, mul, var
from flatdec.sysdsl import parse_expr, parse_system, render
from flatdec.triangular import (
    Block, FlatnessCertificate, NewtonDivergence, OutputCountMismatch,
    PolyCurve, SingularJacobian, StructureViolation, extract_flat_output,
    from_sequence, recover_trajectory, validate, verify_flatness_numeric,
)


def build(cs, zc):
    res = run_decomposition(cs)
    assert res.status == "Triangularized"
    return from_sequence(res.sequence, zc, system=cs), res


@pytest.fixture(scope="module")
def zc():
    return ZeroCtx(budget=20, seed=0)


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
    a11 = sin_td.a_matrix(1, 1)
    assert len(a11) == 1 and render(a11[0][0]) == "1"
    (b1,) = sin_td.b_vector(1)
    p = sin_td.blocks[1].nondrv[0]
    assert render(b1) == f"sin({p.name})"
    # the first equation block carries nothing from deeper blocks
    for k in range(2, sin_td.m + 1):
        for row in sin_td.a_matrix(1, k):
            assert all(zc.zero(e) for e in row)


def test_empty_sequence_rejected(zc):
    with pytest.raises(StructureViolation):
        from_sequence([], zc)


def test_unfinished_sequence_rejected(sin_sys_m, zc):
    res = run_decomposition(sin_sys_m)
    with pytest.raises(StructureViolation):
        from_sequence(res.sequence[:-1], zc)


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


def test_recovery_closed_form_point(sin_cert):
    # block-1 output t^2/2, block-2 output 1 + t, sampled at t = 1/2
    curves = [PolyCurve((0.0, 0.0, 0.5)), PolyCurve((1.0, 1.0))]
    rec = recover_trajectory(sin_cert, curves, [0.5])
    assert rec.converged == 1 and rec.skipped == 0
    s = rec.samples[0]
    assert abs(s.x["x3"] - 0.125) < 1e-12
    assert abs(s.u["u1"] / s.u["u2"] - math.asin(0.5)) < 1e-9
    assert abs(s.x["x1"] - s.u["u1"] * s.x["x2"] / s.u["u2"] - 1.5) < 1e-9
    assert s.residual < 1e-10
    assert math.isnan(rec.dynamics_residual)


def test_recovery_integrator_chain_exact(chain_m, zc):
    td, _ = build(chain_m, zc)
    cert = extract_flat_output(td)
    ts = [0.0, 0.25, 0.5, 1.0]
    rec = recover_trajectory(cert, [PolyCurve((0.0, 0.0, 0.0, 1.0))], ts)
    for s in rec.samples:
        assert abs(s.u["u"] - 6 * s.t) < 1e-9
        assert abs(s.x["x1"] - s.t ** 3) < 1e-12
        assert abs(s.x["x2"] - 3 * s.t ** 2) < 1e-9
    # midpoint defect of the cubic on the coarse grid: (dt)^2 / 2
    assert abs(rec.dynamics_residual - 0.125) < 1e-9


def test_recovery_constant_output_degenerates(sin_cert):
    curves = [PolyCurve((1.0,)), PolyCurve((1.0, 1.0))]
    with pytest.raises(SingularJacobian):
        recover_trajectory(sin_cert, curves, [0.3, 0.6])


def test_recovery_curve_count_checked(sin_cert):
    with pytest.raises(ValueError):
        recover_trajectory(sin_cert, [PolyCurve((1.0,))], [0.0])


def test_recovery_skips_and_reports_bad_samples(sin_cert):
    # derivative of the first output exceeds the drift's range at large t
    curves = [PolyCurve((0.0, 0.0, 1.0)), PolyCurve((1.0, 1.0))]
    rec = recover_trajectory(sin_cert, curves, [0.1, 0.9])
    assert rec.converged == 1 and rec.skipped == 1
    assert not rec.samples[1].converged
    assert "block 1" in rec.samples[1].note


def test_initial_guess_selects_branch(zc):
    # two recovery branches u = +-sqrt(ydot); the cold start sits on the fold
    cs = parse_system(
        "system sq {\n  states: x;\n  inputs: u;\n  dot(x) = u*u;\n}")
    td, _ = build(cs, zc)
    cert = extract_flat_output(td)
    curves = [PolyCurve((1.0, 1.0))]
    p = td.blocks[1].nondrv[0].name
    up = recover_trajectory(cert, curves, [0.0], initial_guess={p: 0.9})
    dn = recover_trajectory(cert, curves, [0.0], initial_guess={p: -0.9})
    assert abs(up.samples[0].u["u"] - 1.0) < 1e-9
    assert abs(dn.samples[0].u["u"] + 1.0) < 1e-9
    with pytest.raises(SingularJacobian):
        recover_trajectory(cert, curves, [0.0])


def test_batched_recovery_matches_single_samples(sin_cert, coupled_td):
    coupled_cert = extract_flat_output(coupled_td)
    cases = [
        (sin_cert, [PolyCurve((0.0, 0.0, 0.5)), PolyCurve((1.0, 1.0))],
         np.linspace(0.1, 0.9, 17)),
        (coupled_cert, [PolyCurve((1.0, 0.75, 0.05, 0.01, 0.002)),
                        PolyCurve((0.5, 0.3, -0.2, 0.1, 0.05))],
         np.linspace(0.0, 1.0, 21)),
    ]
    for cert, curves, ts in cases:
        names = [p.name for blk in cert.decomposition.blocks
                 for p in blk.nondrv]
        # a different Newton start at every sample
        seeds = {name: 0.05 * np.sin(np.arange(len(ts)) + i)
                 for i, name in enumerate(names)}
        batch = recover_trajectory(cert, curves, ts, initial_guess=seeds)
        assert batch.converged == len(ts)
        for k, t in enumerate(ts):
            guess = {name: float(s[k]) for name, s in seeds.items()}
            (one,) = recover_trajectory(cert, curves, [t],
                                        initial_guess=guess).samples
            got = batch.samples[k]
            assert one.converged and got.t == one.t
            for a, b in ((got.x, one.x), (got.u, one.u)):
                assert a.keys() == b.keys()
                assert all(abs(a[n] - b[n]) <= 1e-12 for n in a), (a, b)


def test_domain_violation_mid_batch_spares_neighbours(zc):
    cs = parse_system(
        "system lg {\n  states: x;\n  inputs: u;\n  dot(x) = ln(u);\n}")
    td, _ = build(cs, zc)
    cert = extract_flat_output(td)
    p = td.blocks[1].nondrv[0].name
    curves = [PolyCurve((0.0, 0.1, 0.2))]  # ln(u) = x' = 0.1 + 0.4 t
    ts = [0.1, 0.2, 0.3, 0.4, 0.5]
    # the middle sample starts where ln is undefined
    seeds = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    rec = recover_trajectory(cert, curves, ts, initial_guess={p: seeds})
    assert rec.converged == 4 and rec.skipped == 1
    bad = rec.samples[2]
    assert not bad.converged and bad.residual == math.inf
    assert bad.note.startswith("domain violation")
    assert "block 1 at t=0.3" in bad.note
    for s in rec.samples[:2] + rec.samples[3:]:
        assert s.converged
        assert abs(math.log(s.u["u"]) - (0.1 + 0.4 * s.t)) < 1e-12


# -- numeric verification ------------------------------------------------------------


def test_verify_accepts_genuine_certificate(sin_cert):
    v = verify_flatness_numeric(sin_cert, trials=5, seed=0)
    assert v.ok, v
    assert v.failed == 0
    assert v.trials == 5
    assert v.passed + v.failed + v.singular == 5
    assert v.worst_deviation < 1e-6


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


def test_verify_requires_source_system(sin_cert):
    orphan = dataclasses.replace(sin_cert, system=None)
    with pytest.raises(ValueError):
        verify_flatness_numeric(orphan)


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
