"""Pfaffian systems: spans, derived flags, annihilators, Cauchy reduction."""

import pathlib

import pytest

from flatdec import decompose, pfaffian
from flatdec.cli import main
from flatdec.exterior import (
    Chart, T, VectorField, contract, d, identity_transform, lie_bracket,
    one_coeffs, oneform, straighten_flow, wedge,
)
from flatdec.linalg import ZeroCtx, nullspace, rank
from flatdec.pfaffian import (
    NotReducible, PfaffianSystem, derived_flag, derived_system,
    from_control_system, is_characteristic, is_integrable_with_dt,
    is_involutive, is_vertical, restrict_to_subchart, vertical_annihilator,
)
from flatdec.symexpr import (
    AUX, ONE, ZERO, Symbol, add, div, func, mul, neg, var,
)

from conftest import contains, same_span, tables

DATA = pathlib.Path(__file__).parent / "data"


def coord(cs, name):
    for s in cs.states + cs.inputs:
        if s.name == name:
            return s
    raise KeyError(name)


def sin_phi(chart, x1, x2, x3, u1, u2):
    """cos(u1/u2)((u1/u2)dx2 - dx1) + u2(dx3 - sin(u1/u2)dt)."""
    rho = div(var(u1), var(u2))
    return oneform(chart, {
        x1: neg(func("cos", rho)),
        x2: mul(rho, func("cos", rho)),
        x3: var(u2),
        T: neg(mul(var(u2), func("sin", rho))),
    })


# -- construction --------------------------------------------------------------

def test_from_control_system_sin(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    assert S0.dim == 3
    assert S0.chart.coords == sin_sys.states + sin_sys.inputs
    x1, u1, u2 = (coord(sin_sys, n) for n in ("x1", "u1", "u2"))
    g = one_coeffs(S0.generators[0])
    assert g[x1] is ONE
    assert zc.zero(add(g[T], var(u1)))
    g3 = one_coeffs(S0.generators[2])
    assert zc.zero(add(g3[T], func("sin", div(var(u1), var(u2)))))


def test_from_control_system_coupled(coupled_sys, zc):
    S0 = from_control_system(coupled_sys, zc)
    assert S0.dim == 4
    x2, x3, x1, u2 = (coord(coupled_sys, n) for n in ("x2", "x3", "x1", "u2"))
    g2 = one_coeffs(S0.generators[1])
    assert g2[x2] is ONE
    assert zc.zero(add(g2[T], var(x3), mul(var(x1), var(u2))))


# -- annihilators --------------------------------------------------------------

def annihilator(P, zc):
    """All fields contracting to zero with every generator of P."""
    axes = P.chart.axes
    basis = nullspace(P.rows(), len(axes), zc)
    return tuple(VectorField(P.chart, {
        s: c for s, c in zip(axes, row) if c is not ZERO}) for row in basis)


def test_annihilator_single_form(zc):
    x = Symbol("x", AUX)
    u = Symbol("u", AUX)
    chart = Chart((x, u))
    P = PfaffianSystem(chart, [oneform(chart, {x: ONE, T: neg(var(u))})], zc)
    A = annihilator(P, zc)
    assert len(A) == 2
    assert contains(A, VectorField(chart, {u: ONE}), zc)
    assert contains(A, VectorField(chart, {x: var(u), T: ONE}), zc)
    assert not contains(A, VectorField(chart, {x: ONE}), zc)


def test_vertical_annihilator_is_input_directions(sin_sys, coupled_sys, zc):
    for cs in (sin_sys, coupled_sys):
        S0 = from_control_system(cs, zc)
        V = vertical_annihilator(S0, zc)
        assert len(V) == len(cs.inputs)
        for u in cs.inputs:
            assert contains(V, VectorField(S0.chart, {u: ONE}), zc)
        assert not contains(V, VectorField(S0.chart, {cs.states[0]: ONE}), zc)
        # and the full annihilator has one extra direction (time flow)
        assert len(annihilator(S0, zc)) == len(cs.inputs) + 1


def test_vertical_annihilator_inside_annihilator(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    A = annihilator(S0, zc)
    for v in vertical_annihilator(S0, zc):
        assert contains(A, v, zc)


def test_vertical_annihilator_eq22(zc):
    w = [Symbol(f"w{i}", AUX) for i in range(1, 5)]
    chart = Chart(tuple(w))
    S1 = PfaffianSystem(chart, [
        oneform(chart, {w[2]: ONE, T: neg(func("sin", var(w[3])))}),
        oneform(chart, {w[0]: ONE, w[1]: neg(var(w[3]))}),
    ], zc)
    V = vertical_annihilator(S1, zc)
    assert len(V) == 2
    assert contains(V, VectorField(chart, {w[0]: var(w[3]), w[1]: ONE}), zc)
    assert contains(V, VectorField(chart, {w[3]: ONE}), zc)


def test_is_vertical_is_membership_in_the_vertical_annihilator(
        sin_sys, coupled_sys, zc):
    # for a field with no t component both say v.g = 0 for every g in P
    for cs in (sin_sys, coupled_sys):
        for P, V, _ in derived_flag(from_control_system(cs, zc), zc):
            fields = [VectorField(P.chart, {s: ONE}) for s in P.chart.coords]
            fields += V
            for v in fields:
                assert is_vertical(v, P, zc) == contains(V, v, zc)
            assert any(not is_vertical(v, P, zc) for v in fields) == (P.dim > 0)


# -- derived systems ------------------------------------------------------------

def test_derived_sin_is_phi(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    D = derived_system(S0, tables(S0, zc), zc)
    assert D.dim == 1
    names = ("x1", "x2", "x3", "u1", "u2")
    phi = sin_phi(S0.chart, *(coord(sin_sys, n) for n in names))
    expected = PfaffianSystem(S0.chart, [phi], zc)
    assert same_span(D, expected, zc)
    # elimination residual: the wedge of the generators vanishes
    w = wedge(D.generators[0], phi)
    assert all(zc.zero(c) for c in w.coeffs.values())


def test_derived_double_integrator(chain, zc):
    cs = chain(2)
    S0 = from_control_system(cs, zc)
    D = derived_system(S0, tables(S0, zc), zc)
    x1, x2 = cs.states
    expected = PfaffianSystem(
        S0.chart, [oneform(S0.chart, {x1: ONE, T: neg(var(x2))})], zc)
    assert D.dim == 1
    assert same_span(D, expected, zc)


def test_derived_eq22_vanishes(zc):
    w = [Symbol(f"w{i}", AUX) for i in range(1, 5)]
    chart = Chart(tuple(w))
    S1 = PfaffianSystem(chart, [
        oneform(chart, {w[2]: ONE, T: neg(func("sin", var(w[3])))}),
        oneform(chart, {w[0]: ONE, w[1]: neg(var(w[3]))}),
    ], zc)
    assert derived_system(S1, tables(S1, zc), zc).dim == 0


def test_derived_coupled(coupled_sys, zc):
    S0 = from_control_system(coupled_sys, zc)
    D = derived_system(S0, tables(S0, zc), zc)
    x1, x2, x3, x4 = coupled_sys.states
    expected = PfaffianSystem(S0.chart, [
        oneform(S0.chart, {x1: ONE, x4: neg(var(x3)), T: neg(var(x2))}),
        oneform(S0.chart, {x2: ONE, x4: neg(var(x1)), T: neg(var(x3))}),
    ], zc)
    assert D.dim == 2
    assert same_span(D, expected, zc)


def test_derived_flag_chain(chain, zc):
    cs = chain(4)
    S0 = from_control_system(cs, zc)
    flag = [P for P, _, _ in derived_flag(S0, zc)]
    assert [P.dim for P in flag] == [4, 3, 2, 1, 0]
    for k, P in enumerate(flag[1:]):
        expected = PfaffianSystem(S0.chart, [
            oneform(S0.chart, {s: ONE, T: neg(var(nxt))})
            for s, nxt in zip(cs.states, cs.states[1:])][: 3 - k], zc)
        assert same_span(P, expected, zc)


def test_derived_flag_levels_carry_their_annihilator_and_tables(coupled_sys,
                                                                zc):
    flag = derived_flag(from_control_system(coupled_sys, zc), zc)
    assert [P.dim for P, _, _ in flag] == [4, 2, 0]
    for (P, V, tabs), nxt in zip(flag, flag[1:] + [None]):
        assert same_span(V, vertical_annihilator(P, zc), zc)
        C, tabs_by_field, _ = tabs
        assert len(C) == len(tabs_by_field) == len(V)
        if nxt is not None:
            assert same_span(nxt[0], derived_system(P, tabs, zc), zc)


def test_derived_contained_in_parent(sin_sys, coupled_sys, zc):
    for cs in (sin_sys, coupled_sys):
        S0 = from_control_system(cs, zc)
        for g in derived_system(S0, tables(S0, zc), zc).generators:
            assert contains(S0, g, zc)


# -- Cauchy characteristics ------------------------------------------------------

def test_cauchy_closed_form(zc):
    x1 = Symbol("x1", AUX)
    x2 = Symbol("x2", AUX)
    chart = Chart((x1, x2))
    P = PfaffianSystem(chart, [oneform(chart, {x1: ONE})], zc)
    assert is_characteristic(VectorField(chart, {x2: ONE}), P, zc)
    assert is_characteristic(VectorField(chart, {T: ONE}), P, zc)
    assert not is_characteristic(VectorField(chart, {x1: ONE}), P, zc)


def test_cauchy_eq24(zc):
    # S2 = {dw3 - sin(w4)dt}: characteristics are spanned by dw1, dw2 duals
    w = [Symbol(f"w{i}", AUX) for i in range(1, 5)]
    chart = Chart(tuple(w))
    S2 = PfaffianSystem(chart, [
        oneform(chart, {w[2]: ONE, T: neg(func("sin", var(w[3])))})], zc)
    assert is_characteristic(
        VectorField(chart, {w[0]: var(w[3]), w[1]: ONE}), S2, zc)
    assert is_characteristic(VectorField(chart, {w[0]: ONE}), S2, zc)
    assert not is_characteristic(VectorField(chart, {w[3]: ONE}), S2, zc)


def test_cauchy_of_control_system_is_trivial(sin_sys, zc):
    # explicit dynamics leave no characteristic directions: no coordinate
    # field, and no field of the annihilator, the time flow included
    S0 = from_control_system(sin_sys, zc)
    fields = [VectorField(S0.chart, {s: ONE}) for s in S0.chart.axes]
    fields += annihilator(S0, zc)
    assert not any(is_characteristic(v, S0, zc) for v in fields)


# -- involutivity and integrability ----------------------------------------------

def test_involutive_coordinate_fields(sin_sys, zc):
    S0 = from_control_system(sin_sys, zc)
    V = vertical_annihilator(S0, zc)
    assert is_involutive(V, zc)


def test_not_involutive(zc):
    x1 = Symbol("x1", AUX)
    x2 = Symbol("x2", AUX)
    x3 = Symbol("x3", AUX)
    chart = Chart((x1, x2, x3))
    D = (VectorField(chart, {x1: ONE}),
         VectorField(chart, {x2: ONE, x3: var(x1)}))
    assert not is_involutive(D, zc)


def test_single_field_involutive(zc):
    x1 = Symbol("x1", AUX)
    x2 = Symbol("x2", AUX)
    chart = Chart((x1, x2))
    D = (VectorField(chart, {x1: var(x2), x2: ONE}),)
    assert is_involutive(D, zc)


def test_integrable_with_dt(zc, sin_sys):
    x1 = Symbol("y1", AUX)
    x2 = Symbol("y2", AUX)
    chart = Chart((x1, x2))
    P = PfaffianSystem(chart, [oneform(chart, {x1: ONE, T: neg(var(x2))})], zc)
    assert is_integrable_with_dt(P, tables(P, zc), zc)
    empty = PfaffianSystem(chart, [], zc)
    assert is_integrable_with_dt(empty, tables(empty, zc), zc)
    S0 = from_control_system(sin_sys, zc)
    names = ("x1", "x2", "x3", "u1", "u2")
    phi = sin_phi(S0.chart, *(coord(sin_sys, n) for n in names))
    P = PfaffianSystem(S0.chart, [phi], zc)
    assert not is_integrable_with_dt(P, tables(P, zc), zc)


def test_coupled_derived_not_integrable(coupled_sys, zc):
    # the joint dead-end branch exists despite failing the derived shortcut
    S0 = from_control_system(coupled_sys, zc)
    D = derived_system(S0, tables(S0, zc), zc)
    assert not is_integrable_with_dt(D, tables(D, zc), zc)


def test_chain_flag_all_integrable(chain, zc):
    S0 = from_control_system(chain(3), zc)
    for P, _, tabs in derived_flag(S0, zc)[1:]:
        assert is_integrable_with_dt(P, tabs, zc)


# -- restriction -----------------------------------------------------------------

def test_restrict_scaling_flow_reproduces_reduced_basis(sin_sys, zc):
    # S1 of the worked example restricts to {dw3 - sin(w4)dt, dw1 - w4 dw2}
    S0 = from_control_system(sin_sys, zc)
    chart = S0.chart
    x1, x2, x3, u1, u2 = (coord(sin_sys, n)
                          for n in ("x1", "x2", "x3", "u1", "u2"))
    S1 = PfaffianSystem(chart, [
        S0.generators[2],
        oneform(chart, {x1: var(u2), x2: neg(var(u1))}),
    ], zc)
    v0 = VectorField(chart, {u1: var(u1), u2: var(u2)})
    phi = straighten_flow(v0, zc, prefix="w")
    param = phi.source.coords[-1]
    reduced = restrict_to_subchart(S1, phi, [param], zc)
    w1, w2, w3, w4 = reduced.chart.coords
    expected = PfaffianSystem(reduced.chart, [
        oneform(reduced.chart, {w3: ONE, T: neg(func("sin", var(w4)))}),
        oneform(reduced.chart, {w1: ONE, w2: neg(var(w4))}),
    ], zc)
    assert reduced.dim == 2
    assert same_span(reduced, expected, zc)


def test_restrict_relabel_noop(zc):
    x1 = Symbol("a1", AUX)
    x2 = Symbol("a2", AUX)
    chart = Chart((x1, x2))
    P = PfaffianSystem(chart, [oneform(chart, {x1: ONE, T: neg(var(x2))})], zc)
    reduced = restrict_to_subchart(P, identity_transform(chart), [], zc)
    assert reduced.chart == chart
    assert same_span(reduced, P, zc)


def test_restrict_rejects_lingering_dependence(zc):
    x1 = Symbol("b1", AUX)
    x2 = Symbol("b2", AUX)
    chart = Chart((x1, x2))
    P = PfaffianSystem(chart, [oneform(chart, {x1: ONE, T: neg(var(x2))})], zc)
    with pytest.raises(NotReducible):
        restrict_to_subchart(P, identity_transform(chart), [x2], zc)
    with pytest.raises(NotReducible):
        restrict_to_subchart(P, identity_transform(chart), [x1], zc)


def test_restrict_coupled_level0(coupled_sys, zc):
    S0 = from_control_system(coupled_sys, zc)
    chart = S0.chart
    u1 = coord(coupled_sys, "u1")
    S1 = PfaffianSystem(
        chart, [S0.generators[0], S0.generators[1], S0.generators[3]], zc)
    phi = straighten_flow(VectorField(chart, {u1: ONE}), zc, prefix="w")
    param = phi.source.coords[-1]
    reduced = restrict_to_subchart(S1, phi, [param], zc)
    assert reduced.dim == 3
    assert len(reduced.chart.coords) == 5
    w1, w2, w3, w4, w5 = reduced.chart.coords
    expected = PfaffianSystem(reduced.chart, [
        oneform(reduced.chart,
                {w1: ONE, T: neg(add(var(w2), mul(var(w3), var(w5))))}),
        oneform(reduced.chart,
                {w2: ONE, T: neg(add(var(w3), mul(var(w1), var(w5))))}),
        oneform(reduced.chart, {w4: ONE, T: neg(var(w5))}),
    ], zc)
    assert same_span(reduced, expected, zc)


# -- structural properties --------------------------------------------------------

def test_derived_condition_vanishes_on_vertical_fields(sin_sys, coupled_sys,
                                                       chain, zc):
    # for v in V(S)^perp and omega in S^(1): (v . d omega) ^ top == 0
    systems = [from_control_system(cs, zc)
               for cs in (sin_sys, coupled_sys, chain(2), chain(3))]
    for S in systems:
        top = S.top_form()
        V = vertical_annihilator(S, zc)
        D = derived_system(S, tables(S, zc), zc)
        for v in V:
            for g in D.generators:
                w = wedge(contract(v, d(g)), top)
                assert all(zc.zero(c) for c in w.coeffs.values())


def test_flag_dims_strictly_descend(sin_sys, coupled_sys, zc):
    for cs in (sin_sys, coupled_sys):
        flag = derived_flag(from_control_system(cs, zc), zc)
        dims = [P.dim for P, _, _ in flag]
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_cauchy_result_involutive(coupled_sys, zc):
    # the inputs are the characteristic directions of coupled's derived
    # system; function multiples and brackets of them stay characteristic
    S0 = from_control_system(coupled_sys, zc)
    D = derived_system(S0, tables(S0, zc), zc)
    u1, u2, x3 = (coord(coupled_sys, n) for n in ("u1", "u2", "x3"))
    v = VectorField(S0.chart, {u1: var(u2)})
    w = VectorField(S0.chart, {u1: ONE, u2: mul(var(u1), var(u2))})
    for f in (v, w, lie_bracket(v, w)):
        assert is_characteristic(f, D, zc)
    assert is_involutive((v, w), zc)
    assert not is_characteristic(VectorField(S0.chart, {x3: ONE}), D, zc)


def test_builders_hand_the_containers_independent_generators(
        monkeypatch, tmp_path, capsys):
    # PfaffianSystem keeps what it is given and a span of fields is a plain
    # tuple, so every builder must hand over generically independent
    # generators: the systems' as built, the field spans as the vertical
    # annihilator returns them and as a splitting straightens them;
    # watched over every command of analyze and decompose --verify on the
    # fixtures
    handed = {"forms": [], "fields": []}
    init = PfaffianSystem.__init__
    annihilate = pfaffian.vertical_annihilator
    straighten = decompose._straighten_level

    def fields(span):
        handed["fields"].append([[v.comp(s) for s in v.chart.axes]
                                 for v in span])
        return span

    def spy(self, chart, generators, *rest):
        generators = list(generators)
        handed["forms"].append([[one_coeffs(g).get(s, ZERO)
                                 for s in chart.axes] for g in generators])
        init(self, chart, generators, *rest)

    def annihilator_spy(P, zc):
        return fields(annihilate(P, zc))

    monkeypatch.setattr(PfaffianSystem, "__init__", spy)
    monkeypatch.setattr(pfaffian, "vertical_annihilator", annihilator_spy)
    monkeypatch.setattr(decompose, "vertical_annihilator", annihilator_spy)
    monkeypatch.setattr(decompose, "_straighten_level",
                        lambda F, zc, naming: straighten(fields(F), zc,
                                                         naming))
    report = str(tmp_path / "r.json")
    for path in sorted(DATA.glob("*.fds")):
        for cmd in (["analyze"], ["decompose", "--verify", "--samples", "3"]):
            main([*cmd, str(path), "--seed", "0", "--report", report])
    capsys.readouterr()
    zc = ZeroCtx(0)
    for lists in handed.values():
        assert lists
        assert all(rank(rows, zc) == len(rows) for rows in lists)
