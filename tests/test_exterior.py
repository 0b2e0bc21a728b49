import random

import pytest
from hypothesis import given, settings, strategies as st

from flatdec import symexpr as sx
from flatdec.exterior import (
    Chart, ChartMismatch, ChartTransform, KForm, NotSolvable, T, VectorField,
    compose, contract, d, extend_transform, identity_transform, lie_bracket,
    one_coeffs, oneform, pullback, pushforward, straighten_flow, wedge,
)
from flatdec.linalg import ZeroCtx
from flatdec.symexpr import (
    Symbol, add, const, diff, div, func, mul, neg, pow_, substitute, var,
)

from conftest import dt, dx, form_add, form_sub

X1, X2, X3 = Symbol("x1", sx.STATE), Symbol("x2", sx.STATE), Symbol("x3", sx.STATE)
U1, U2 = Symbol("u1", sx.INPUT), Symbol("u2", sx.INPUT)
CH = Chart((X1, X2, X3, U1, U2))
x1, x2, x3, u1, u2 = (var(s) for s in (X1, X2, X3, U1, U2))
ZC = ZeroCtx(20, 0)


def form_zero(a: KForm, zc=ZC) -> bool:
    return all(zc.zero(c) for c in a.coeffs.values())


def field_zero(v: VectorField, zc=ZC) -> bool:
    return all(zc.zero(c) for c in v.components.values())


# -- wedge -----------------------------------------------------------------------

def test_wedge_same_is_zero():
    assert wedge(dx(CH, X1), dx(CH, X1)).is_structurally_zero()


def test_wedge_antisymmetry():
    a = wedge(dx(CH, X1), dx(CH, X2))
    b = wedge(dx(CH, X2), dx(CH, X1))
    assert form_zero(form_add(a, b))


def test_wedge_with_dt():
    # (u2 dx1 - u1 dx2) ^ dt
    w = oneform(CH, {X1: u2, X2: neg(u1)})
    out = wedge(w, dt(CH))
    i = CH.axis_index
    assert out.coeffs[(i(X1), i(T))] == u2
    assert out.coeffs[(i(X2), i(T))] == neg(u1)
    assert (i(X3), i(T)) not in out.coeffs


def test_wedge_chart_mismatch():
    other = Chart((X1, X2))
    with pytest.raises(ChartMismatch):
        wedge(dx(CH, X1), dx(other, X2))


# -- charts ------------------------------------------------------------------------

def test_axis_index_numbers_the_axes_with_t_last():
    assert [CH.axis_index(s) for s in CH.axes] == list(range(6))
    assert CH.axes[-1] is T and CH.axis_index(T) == 5
    # a symbol rebuilt from its name and kind is the same axis
    assert CH.axis_index(Symbol("x2", sx.STATE)) == 1
    for foreign in (Symbol("x2", sx.INPUT), Symbol("y", sx.STATE)):
        with pytest.raises(ChartMismatch):
            CH.axis_index(foreign)


def test_chart_axes_are_computed_once_and_equality_reads_coords():
    assert CH.axes is CH.axes
    same = Chart((X1, X2, X3, U1, U2))
    assert same == CH and hash(same) == hash(CH)
    assert Chart((X2, X1, X3, U1, U2)) != CH


# -- exterior derivative -----------------------------------------------------------

def test_d_of_coordinate_differential():
    assert d(dx(CH, X1)).is_structurally_zero()


def test_d_leibniz_on_monomials():
    # d(u2 dx1 - u1 dx2) = du2 ^ dx1 - du1 ^ dx2
    w = oneform(CH, {X1: u2, X2: neg(u1)})
    got = d(w)
    want = form_sub(wedge(dx(CH, U2), dx(CH, X1)), wedge(dx(CH, U1), dx(CH, X2)))
    assert form_zero(form_sub(got, want))


def test_d_of_x3_dt():
    got = d(oneform(CH, {T: x3}))
    want = wedge(dx(CH, X3), dt(CH))
    assert form_zero(form_sub(got, want))


def test_dd_zero_on_function():
    f = KForm(CH, 0, {(): mul(x1, func("sin", mul(x2, u1)))})
    assert form_zero(d(d(f)))


# -- contraction --------------------------------------------------------------------

def test_contract_basis():
    v = VectorField(CH, {X1: sx.ONE})
    out = contract(v, dx(CH, X1))
    assert out.coeffs.get(()) is sx.ONE


def test_contract_scaling_field_into_two_form():
    # (u1 d/du1 + u2 d/du2) into (du2^dx1 - du1^dx2) = u2 dx1 - u1 dx2
    v = VectorField(CH, {U1: u1, U2: u2})
    a = form_sub(wedge(dx(CH, U2), dx(CH, X1)), wedge(dx(CH, U1), dx(CH, X2)))
    got = contract(v, a)
    want = oneform(CH, {X1: u2, X2: neg(u1)})
    assert form_zero(form_sub(got, want))


def test_contract_annihilated():
    v = VectorField(CH, {U1: sx.ONE})
    w = oneform(CH, {X1: sx.ONE, T: neg(u1)})
    assert contract(v, w).is_structurally_zero()


def test_contract_antiderivation_fixed():
    v = VectorField(CH, {X1: x2, X2: sx.ONE, U1: u2})
    a = oneform(CH, {X1: u1, X2: x3})
    b = wedge(oneform(CH, {X2: x1, U1: sx.ONE}), dx(CH, X3))
    lhs = contract(v, wedge(a, b))
    rhs = form_sub(wedge(contract(v, a), b), wedge(a, contract(v, b)))
    assert form_zero(form_sub(lhs, rhs))


# -- Lie bracket ---------------------------------------------------------------------

def test_bracket_coordinate_fields():
    v = VectorField(CH, {X1: sx.ONE})
    w = VectorField(CH, {X2: sx.ONE})
    assert not lie_bracket(v, w).components


def test_bracket_scaling_field():
    v = VectorField(CH, {U1: u1})
    w = VectorField(CH, {U1: sx.ONE})
    out = lie_bracket(v, w)
    assert out.comp(U1) == const(-1)
    assert len(out.components) == 1


def test_bracket_componentwise_oracle():
    # [w4 d/dw1 + d/dw2, d/dw4] = -d/dw1, computed on a w-chart
    W1, W2, W3, W4 = (Symbol(f"w{i}", sx.AUX) for i in (1, 2, 3, 4))
    ch = Chart((W1, W2, W3, W4))
    v = VectorField(ch, {W1: var(W4), W2: sx.ONE})
    w = VectorField(ch, {W4: sx.ONE})
    out = lie_bracket(v, w)
    assert out.comp(W1) == const(-1)
    assert all(out.comp(s) is sx.ZERO for s in (W2, W3, W4))


def test_jacobi_identity_fixed():
    u = VectorField(CH, {X1: x2, X2: mul(x1, x3)})
    v = VectorField(CH, {X2: x1, X3: sx.ONE})
    w = VectorField(CH, {X1: x3, X3: x2})
    total = None
    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
        term = lie_bracket(a, lie_bracket(b, c))
        total = term if total is None else _field_add(total, term)
    assert field_zero(total)


def _field_add(a, b):
    out = dict(a.components)
    for s, c in b.components.items():
        out[s] = add(out.get(s, sx.ZERO), c)
    return VectorField(a.chart, out)


# -- pullback / pushforward ------------------------------------------------------------

def _two_chart_transform():
    # x1 = z2*z3, x2 = z2, x3 = z3 on a 3-coordinate pair of charts is not
    # invertible; use x1 = z2*z3, x2 = z2, x3 = z3 with inverse needing z2 != 0
    Z2, Z3, Z4 = Symbol("z2", sx.AUX), Symbol("z3", sx.AUX), Symbol("z4", sx.AUX)
    src = Chart((Z2, Z3, Z4))
    tgt = Chart((X1, X2, X3))
    fwd = {X1: mul(var(Z2), var(Z3)), X2: var(Z2), X3: var(Z4)}
    inv = {Z2: x2, Z3: div(x1, x2), Z4: x3}
    return ChartTransform(src, tgt, fwd, inv), (Z2, Z3, Z4)


def test_pullback_product_coordinate():
    phi, (Z2, Z3, Z4) = _two_chart_transform()
    got = pullback(phi, dx(phi.target, X1))
    want = oneform(phi.source, {Z2: var(Z3), Z3: var(Z2)})
    assert form_zero(form_sub(got, want))


def test_pullback_fixes_dt():
    phi, _ = _two_chart_transform()
    got = pullback(phi, dt(phi.target))
    assert form_zero(form_sub(got, dt(phi.source)))


def test_pullback_of_a_differential_is_the_differential_of_the_composite():
    # phi^* df = d(f o phi), with f depending on t as well
    phi, _ = _two_chart_transform()
    f = mul(func("sin", x2), add(x1, mul(x3, var(T))))
    got = pullback(phi, d(KForm(phi.target, 0, {(): f})))
    want = d(KForm(phi.source, 0, {(): substitute(f, phi.forward)}))
    assert form_zero(form_sub(got, want))


def test_pullback_along_a_composite_pulls_back_twice():
    # (a o b)^* w = b^*(a^* w) for a: x <- z and b: z <- w
    a, (Z2, Z3, Z4) = _two_chart_transform()
    W1, W2, W3 = (Symbol(f"w{i}", sx.AUX) for i in (1, 2, 3))
    w1, w2, w3 = var(W1), var(W2), var(W3)
    b = ChartTransform(
        Chart((W1, W2, W3)), a.source,
        {Z2: w1, Z3: add(w2, mul(w1, w3)), Z4: w3},
        {W1: var(Z2), W2: add(var(Z3), neg(mul(var(Z2), var(Z4)))), W3: var(Z4)})
    b.verify(ZC)
    w = oneform(a.target, {X1: func("sin", x2), X3: mul(x1, x2), T: x3})
    got = pullback(compose(a, b), w)
    want = pullback(b, pullback(a, w))
    assert form_zero(form_sub(got, want))


@st.composite
def _triangular_transforms(draw):
    """x_i = z_i + p_i(z_1..z_{i-1}) with small random polynomials p_i; the
    inverse solves for z one coordinate at a time."""
    n = draw(st.integers(1, 3))
    zs = tuple(Symbol(f"z{i}", sx.AUX) for i in range(n))
    xs = tuple(Symbol(f"x{i}", sx.STATE) for i in range(n))
    fwd, inv = {}, {}
    for i in range(n):
        p = add(*(mul(const(draw(st.integers(-2, 2))),
                      *(pow_(var(z), draw(st.integers(0, 2))) for z in zs[:i]))
                  for _ in range(draw(st.integers(0, 2)))))
        fwd[xs[i]] = add(var(zs[i]), p)
        inv[zs[i]] = add(var(xs[i]), neg(substitute(p, inv)))
    coeffs = {s: add(const(draw(st.integers(-2, 2))),
                     *(mul(const(draw(st.integers(-2, 2))), var(x), var(y))
                       for x, y in draw(st.lists(st.tuples(
                           st.sampled_from(xs), st.sampled_from(xs)),
                           max_size=2))))
              for s in xs + (T,) if draw(st.booleans())}
    return ChartTransform(Chart(zs), Chart(xs), fwd, inv), coeffs


@given(_triangular_transforms())
@settings(max_examples=60, deadline=None)
def test_pullback_matches_the_chain_rule(case):
    # phi^* w has the coefficient sum_s (w_s o phi) d(phi_s)/dr on dr
    phi, coeffs = case
    phi.verify(ZC)
    got = one_coeffs(pullback(phi, oneform(phi.target, coeffs)))
    pulled = {s: substitute(c, phi.forward) for s, c in coeffs.items()}
    for r in phi.source.coords:
        want = add(*(mul(pulled.get(s, sx.ZERO), diff(phi.forward[s], r))
                     for s in phi.target.coords))
        assert ZC.zero(add(got.get(r, sx.ZERO), neg(want)))
    assert ZC.zero(add(got.get(T, sx.ZERO), neg(pulled.get(T, sx.ZERO))))


def test_transform_verify_and_compose():
    phi, (Z2, Z3, Z4) = _two_chart_transform()
    phi.verify(ZC)
    ident = identity_transform(phi.source)
    comp = compose(phi, ident)
    comp.verify(ZC)
    assert comp.forward[X1] == phi.forward[X1]


def test_pushforward_inverts_pullback_on_fields():
    phi, (Z2, Z3, Z4) = _two_chart_transform()
    v = VectorField(phi.source, {Z2: var(Z2)})
    w = pushforward(phi, v)
    # d/dz2 scaled: x1 = z2 z3, x2 = z2 -> w = z2 z3 d/dx1 + z2 d/dx2 = x1 d/dx1 + x2 d/dx2
    assert ZC.zero(add(w.comp(X1), neg(x1)))
    assert ZC.zero(add(w.comp(X2), neg(x2)))


def test_extend_transform_identity_on_extras():
    phi, _ = _two_chart_transform()
    extra = Symbol("p9", sx.AUX)
    ext = extend_transform(phi, [extra])
    assert ext.forward[extra] == var(extra)
    assert ext.source.coords[-1] == extra
    ext.verify(ZC)


# -- straighten_flow ---------------------------------------------------------------------

def test_straighten_scaling_flow():
    # u1 d/du1 + u2 d/du2 on the system chart
    v = VectorField(CH, {U1: u1, U2: u2})
    phi = straighten_flow(v, ZC, prefix="w")
    w = {s.name: s for s in phi.source.coords}
    assert sorted(w) == ["w1", "w2", "w3", "w4", "wh"]
    f = phi.forward
    assert f[X1] == var(w["w1"])
    assert f[X2] == var(w["w2"])
    assert f[X3] == var(w["w3"])
    assert f[U1] == mul(var(w["w4"]), func("exp", var(w["wh"])))
    assert f[U2] == func("exp", var(w["wh"]))
    inv = phi.inverse
    assert inv[w["wh"]] == func("ln", u2)
    assert inv[w["w4"]] == div(u1, u2)


def test_straighten_affine_flow():
    W1, W2, W3, W4 = (Symbol(f"w{i}", sx.AUX) for i in (1, 2, 3, 4))
    ch = Chart((W1, W2, W3, W4))
    v = VectorField(ch, {W1: var(W4), W2: sx.ONE})
    phi = straighten_flow(v, ZC, prefix="q")
    q = {s.name: s for s in phi.source.coords}
    assert sorted(q) == ["q1", "q2", "q3", "qh"]
    f = phi.forward
    # pivot is the last straightenable coordinate w2; w1 keeps its initial
    # value as q1 and w4's initial value q3 drives w1 linearly
    assert f[W2] == var(q["qh"])
    assert f[W1] == add(var(q["q1"]), mul(var(q["q3"]), var(q["qh"])))
    assert f[W3] == var(q["q2"])
    assert f[W4] == var(q["q3"])
    # defining property: the pushforward of d/dqh is v
    pushed = pushforward(phi, VectorField(phi.source, {q["qh"]: sx.ONE}))
    for s in ch.axes:
        assert ZC.zero(add(pushed.comp(s), neg(v.comp(s))))


def test_straighten_identity_relabel():
    v = VectorField(CH, {X1: sx.ONE})
    phi = straighten_flow(v, ZC, prefix="w")
    names = [s.name for s in phi.source.coords]
    assert names == ["w1", "w2", "w3", "w4", "wh"]
    assert phi.forward[X1] == var(phi.source.coords[-1])   # x1 = wh
    assert phi.forward[X2] == var(phi.source.coords[0])


def test_straighten_rejects_time_component():
    v = VectorField(CH, {T: sx.ONE})
    with pytest.raises(ValueError):
        straighten_flow(v, ZC, prefix="w")


def test_straighten_rejects_zero_field():
    v = VectorField(CH, {})
    with pytest.raises(ValueError):
        straighten_flow(v, ZC, prefix="w")


def test_straighten_not_solvable_nonlinear():
    # dx1/ds = x1^2 is nonlinear in its own coordinate
    v = VectorField(CH, {X1: pow_(x1, 2)})
    with pytest.raises(NotSolvable):
        straighten_flow(v, ZC, prefix="w")


def test_straighten_reads_dependence_off_the_derivative():
    # s2's component s2 + 2 - (s2 + s3 + 2) mentions s2 but is -s3, so the
    # flow is solvable, and s2, pinned to 0, is the pivot: s1 = w1 + wh,
    # s2 = -w2 wh, s3 = w2
    S1, S2, S3 = (Symbol(f"s{i}", sx.AUX) for i in (1, 2, 3))
    ch = Chart((S1, S2, S3))
    comp = add(var(S2), const(2), neg(add(var(S2), var(S3), const(2))))
    phi = straighten_flow(VectorField(ch, {S1: sx.ONE, S2: comp}), ZC,
                          prefix="w")
    w = {s.name: var(s) for s in phi.source.coords}
    assert sorted(w) == ["w1", "w2", "wh"]
    assert phi.forward[S1] == add(w["w1"], w["wh"])
    assert ZC.zero(add(phi.forward[S2], mul(w["w2"], w["wh"])))
    assert phi.forward[S3] == w["w2"]


def test_straighten_integrates_polynomial_forcing():
    # x3' = x1^2 with x1 = wh along the flow: forcing of degree 2 in s
    ch = Chart((X1, X2, X3))
    phi = straighten_flow(VectorField(ch, {X1: sx.ONE, X3: pow_(x1, 2)}),
                          ZC, prefix="w")
    w = {s.name: var(s) for s in phi.source.coords}
    assert ZC.zero(add(phi.forward[X3],
                       neg(add(w["w2"], div(pow_(w["wh"], 3), 3)))))
    assert ZC.zero(add(phi.inverse[phi.source.coords[1]],
                       neg(add(x3, neg(div(pow_(x1, 3), 3))))))


@pytest.mark.parametrize("forcing", [pow_(x1, -1), func("sin", x1)],
                         ids=["reciprocal", "sin"])
def test_straighten_rejects_non_polynomial_forcing(forcing):
    ch = Chart((X1, X2, X3))
    v = VectorField(ch, {X1: sx.ONE, X3: forcing})
    with pytest.raises(NotSolvable, match="not polynomial"):
        straighten_flow(v, ZC, prefix="w")


def test_straighten_pushforward_property_random():
    rng = random.Random(11)
    coords = (X1, X2, X3)
    ch = Chart(coords)
    for _ in range(5):
        # random affine-in-own-coordinate triangular flows stay solvable
        comps = {}
        comps[X1] = const(rng.randint(1, 3))
        comps[X2] = add(mul(const(rng.randint(1, 2)), var(X2)),
                        const(rng.randint(0, 2)))
        if rng.random() < 0.5:
            comps[X3] = var(X1)
        phi = straighten_flow(VectorField(ch, comps), ZC, prefix="m")
        param = phi.source.coords[-1]
        pushed = pushforward(phi, VectorField(phi.source, {param: sx.ONE}))
        for s in ch.axes:
            assert ZC.zero(add(pushed.comp(s), neg(comps.get(s, sx.ZERO))))


# -- randomized exterior identities (small scale; the acceptance suite scales up)

def _rand_expr(rng, syms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.4:
            return const(rng.randint(-3, 3))
        return var(rng.choice(syms))
    op = rng.choice(["add", "mul", "func", "pow"])
    if op == "add":
        return add(_rand_expr(rng, syms, depth - 1), _rand_expr(rng, syms, depth - 1))
    if op == "mul":
        return mul(_rand_expr(rng, syms, depth - 1), _rand_expr(rng, syms, depth - 1))
    if op == "pow":
        return pow_(var(rng.choice(syms)), rng.randint(1, 2))
    return func(rng.choice(["sin", "cos", "exp"]), _rand_expr(rng, syms, depth - 1))


def _rand_oneform(rng, ch):
    return oneform(ch, {s: _rand_expr(rng, ch.coords)
                        for s in ch.axes if rng.random() < 0.7})


def _rand_field(rng, ch):
    return VectorField(ch, {s: _rand_expr(rng, ch.coords)
                            for s in ch.coords if rng.random() < 0.7})


def test_dd_zero_random():
    rng = random.Random(5)
    ch = Chart((X1, X2, U1))
    for _ in range(25):
        assert form_zero(d(d(_rand_oneform(rng, ch))))


def test_antiderivation_random():
    rng = random.Random(6)
    ch = Chart((X1, X2, U1))
    for _ in range(15):
        v = _rand_field(rng, ch)
        a = _rand_oneform(rng, ch)
        b = _rand_oneform(rng, ch)
        lhs = contract(v, wedge(a, b))
        rhs = form_sub(wedge(contract(v, a), b), wedge(a, contract(v, b)))
        assert form_zero(form_sub(lhs, rhs))


def test_jacobi_random():
    rng = random.Random(7)
    ch = Chart((X1, X2, X3))
    for _ in range(10):
        u, v, w = (_rand_field(rng, ch) for _ in range(3))
        total = lie_bracket(u, lie_bracket(v, w))
        total = _field_add(total, lie_bracket(v, lie_bracket(w, u)))
        total = _field_add(total, lie_bracket(w, lie_bracket(u, v)))
        assert field_zero(total)
