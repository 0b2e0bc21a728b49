import collections
import copy
import fractions
import math
import pathlib
import pickle
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flatdec import symexpr as sx
from flatdec.symexpr import (
    DomainError, EvaluationFailed, Symbol, add, compile_expr, compile_rk4,
    const, diff, div, func, is_zero, mul, neg, pow_, substitute,
    value_mod_p, var,
)
from flatdec.sysdsl import parse_system

from conftest import fraction_add, fraction_mul, tree_compile

X = Symbol("x", sx.STATE)
Y = Symbol("y", sx.STATE)
Z = Symbol("z", sx.STATE)
x, y, z = var(X), var(Y), var(Z)


def normalize(e):
    """Rebuild e through the normalizing constructors."""
    if isinstance(e, (sx.Const, sx.Var)):
        return e
    if isinstance(e, sx.Add):
        return add(*(normalize(t) for t in e.terms))
    if isinstance(e, sx.Mul):
        return mul(*(normalize(f) for f in e.factors))
    if isinstance(e, sx.Pow):
        return pow_(normalize(e.base), e.exp)
    return func(e.fn, normalize(e.arg))


# -- strategy for random canonical expressions --------------------------------

def exprs(max_leaves=6, funcs=True, args=()):
    """Random canonical expressions; sin, cos, tan and exp of each of args
    are leaves too."""
    leaves = st.one_of(
        st.sampled_from([x, y, z] + [func(f, a) for a in args
                                     for f in ("sin", "cos", "tan", "exp")]),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(const),
    )

    def extend(children):
        ops = [
            st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
            st.tuples(children, st.integers(-2, 3)).map(lambda p: _safe_pow(*p)),
        ]
        if funcs:
            ops.append(st.tuples(st.sampled_from(["sin", "cos", "exp", "arctan"]),
                                 children).map(lambda p: func(p[0], p[1])))
        return st.one_of(*ops)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _safe_pow(b, e):
    try:
        return pow_(b, e)
    except DomainError:
        return b


def rand_point(rng):
    return {s: Fraction(rng.randint(5, 20), rng.randint(5, 20))
            for s in (X, Y, Z)}


def close(a, b, tol=Fraction(1, 10**30)):
    return abs(a - b) < mpmath.mpf(tol.numerator) / tol.denominator


# -- canonical form ------------------------------------------------------------

def test_like_terms_combine():
    e = add(x, x, mul(const(2), x))
    assert e == mul(const(4), x)


def test_add_is_commutative_structurally():
    assert add(x, y) == add(y, x)
    assert mul(x, y, z) == mul(z, x, y)


def test_mul_collects_powers():
    assert mul(x, x, x) == pow_(x, 3)
    assert mul(pow_(x, 2), pow_(x, -2)) == const(1)


def test_div_normalizes_to_negative_power():
    e = div(x, y)
    assert isinstance(e, sx.Mul)
    assert any(isinstance(f, sx.Pow) and f.exp == -1 for f in e.factors)


def test_constant_denominator_absorbed():
    # x/2 becomes (1/2)*x, not x * 2^-1
    e = div(x, const(2))
    assert e == mul(const(Fraction(1, 2)), x)


def test_zero_annihilates_product():
    assert mul(x, const(0), y) is sx.ZERO


def test_pow_of_pow_folds():
    assert pow_(pow_(x, 2), 3) == pow_(x, 6)


def test_pow_distributes_over_mul():
    assert pow_(mul(x, y), 2) == mul(pow_(x, 2), pow_(y, 2))


def test_integer_exponents_only():
    for exp in (Fraction(1, 2), Fraction(2, 1), const(2)):
        with pytest.raises(TypeError):
            pow_(x, exp)


def test_float_constants_rejected():
    # only ints and Rationals are exact; nothing else is coerced
    for value in (0.5, "1/2"):
        with pytest.raises(TypeError):
            const(value)


def test_function_constant_folds():
    assert func("sin", const(0)) is sx.ZERO
    assert func("cos", const(0)) is sx.ONE
    assert func("exp", const(0)) is sx.ONE
    assert func("ln", const(1)) is sx.ZERO
    assert func("sqrt", const(Fraction(9, 4))) == const(Fraction(3, 2))
    # non-perfect squares stay symbolic
    assert isinstance(func("sqrt", const(2)), sx.Func)


def test_no_product_expansion():
    e = mul(add(x, y), add(x, neg(y)))
    assert isinstance(e, sx.Mul)   # (x+y)(x-y) is NOT rewritten to x^2-y^2


# -- int-pair coefficients against the Fraction oracle -------------------------

BIG = 10 ** 30
_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.sampled_from([-BIG, BIG, BIG + 1]),
              st.integers(1, 12)),
)
_cores = st.lists(st.sampled_from([x, y, pow_(x, -1), pow_(z, 2),
                                   func("sin", y), add(x, const(1))]),
                  max_size=3)


@st.composite
def _operands(draw):
    """Canonical terms with rational coefficients, built by the oracle, plus
    rescaled copies of some of them, so that like terms meet and cancel,
    and sometimes a nested sum of two of them."""
    terms = [fraction_mul(const(c), *core) for c, core in draw(
        st.lists(st.tuples(_coeffs, _cores), min_size=1, max_size=5))]
    scales = draw(st.lists(st.one_of(
        st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(1, 3)]),
        _coeffs), max_size=5))
    terms += [fraction_mul(const(r), t) for t, r in zip(terms, scales)]
    if draw(st.booleans()):
        terms.append(fraction_add(*terms[:2]))
    return draw(st.permutations(terms))


@given(_operands())
@settings(max_examples=300, deadline=None)
def test_int_pair_constructors_match_the_fraction_oracle(ts):
    assert add(*ts) is fraction_add(*ts)
    assert mul(*ts) is fraction_mul(*ts)


def test_coefficients_cancel_like_the_fraction_oracle():
    half, c = const(Fraction(1, 2)), const(Fraction(-7, BIG + 1))
    cases = [
        (add, fraction_add, (mul(half, x), mul(half, x)), x),
        (mul, fraction_mul, (const(Fraction(2, 3)), const(Fraction(3, 2))),
         sx.ONE),
        (add, fraction_add, (mul(c, x), neg(mul(c, x))), sx.ZERO),
        (add, fraction_add, (mul(c, x, y), const(Fraction(1, 3)),
                             mul(const(-1), c, y, x), const(Fraction(-1, 3))),
         sx.ZERO),
        (mul, fraction_mul, (mul(c, x), pow_(c, -1), pow_(x, -1)), sx.ONE),
    ]
    for fast, oracle, args, want in cases:
        assert fast(*args) is oracle(*args) is want


def test_rebuilt_expressions_construct_no_fraction(monkeypatch):
    # coefficients fold as integer pairs, and constants are interned, so
    # rebuilding an expression while its first copy lives makes no Fraction,
    # neither in symexpr nor through Fraction arithmetic
    q = {k: Fraction(*k) for k in [(2, 3), (-5, 4), (1, 2), (7, 2), (3, BIG)]}

    def build():
        e = add(mul(const(q[2, 3]), pow_(x, 3), y), div(y, const(6)),
                const(q[-5, 4]),
                func("sqrt", add(x, mul(const(q[1, 2]), z))),
                mul(const(q[7, 2]), func("sin", mul(const(q[3, BIG]), z))))
        return e, diff(e, X), diff(e, Z)

    first = build()
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(fractions, "Fraction", Counting)
    second = build()
    assert made == []
    assert all(a is b for a, b in zip(first, second, strict=True))


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_normalize_is_identity_on_constructor_output(e):
    assert normalize(e) == e


@given(exprs(), exprs())
@settings(max_examples=100, deadline=None)
def test_sum_structural_commutativity(a, b):
    assert add(a, b) == add(b, a)


# -- differentiation -----------------------------------------------------------

def test_diff_basics():
    assert diff(x, X) is sx.ONE
    assert diff(x, Y) is sx.ZERO
    assert diff(pow_(x, 3), X) == mul(const(3), pow_(x, 2))
    assert diff(func("sin", x), X) == func("cos", x)
    assert diff(func("exp", mul(const(2), x)), X) == mul(const(2), func("exp", mul(const(2), x)))
    assert diff(func("ln", x), X) == pow_(x, -1)


def test_diff_arctan():
    d = diff(func("arctan", x), X)
    assert is_zero(add(d, neg(pow_(add(sx.ONE, pow_(x, 2)), -1))), 0)


@given(exprs(max_leaves=5), exprs(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    lhs = diff(mul(a, b), X)
    rhs = add(mul(diff(a, X), b), mul(a, diff(b, X)))
    try:
        assert is_zero(add(lhs, neg(rhs)), 0)
    except EvaluationFailed:
        pass   # expressions whose domain excludes the sample box


@given(exprs(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_chain_rule_through_substitution(e):
    # d/dy e[x := y^2] == (de/dx)[x := y^2] * 2y, valid when e has no direct y
    assume(Y not in e.free)
    inner = pow_(y, 2)
    lhs = diff(substitute(e, {X: inner}), Y)
    rhs = mul(substitute(diff(e, X), {X: inner}), mul(const(2), y))
    try:
        assert is_zero(add(lhs, neg(rhs)), 0)
    except EvaluationFailed:
        pass


# -- substitution ---------------------------------------------------------------

def test_substitute_simultaneous():
    e = add(x, y)
    out = substitute(e, {X: y, Y: x})
    assert out == add(x, y)   # swap is simultaneous, not sequential


def test_substitute_normalizes():
    e = add(x, neg(y))
    assert substitute(e, {Y: x}) is sx.ZERO


# -- evaluation ------------------------------------------------------------------

def mp_value(e, k, seed=0):
    """The 50-digit value of e at point k of the zero test's sample stream."""
    with mpmath.workdps(sx.ZERO_DPS):
        return sx._at(e, k, seed, False)[0]


def test_eval_expr_matches_mpmath():
    e = add(func("sin", x), mul(const(2), func("exp", y)))
    with mpmath.workdps(50):
        for k in range(5):
            a, b = (sx._coordinate(s, 0, k, False) for s in (X, Y))
            assert close(mp_value(e, k), mpmath.sin(a) + 2 * mpmath.exp(b))


def test_eval_expr_50_digit_oracle():
    # arcsin(1/2) to 50 digits, frozen from an independent computation
    # (pi/6 = 0.52359877559829887307710723054658381403286156656252...)
    got = mp_value(func("arcsin", const(Fraction(1, 2))), 0)
    with mpmath.workdps(50):
        want = mpmath.mpf(
            "0.52359877559829887307710723054658381403286156656252")
        assert abs(got - want) < mpmath.mpf(10) ** -48


def test_eval_domain_errors():
    for e, arg in ((func("ln", x), -1), (func("sqrt", x), -4),
                   (func("arcsin", x), 2), (pow_(x, -1), 0)):
        with pytest.raises(DomainError):
            sx._mp_node(e, [mpmath.mpf(arg)])
    # undefined at every sample point: the zero test has no decision
    for e in (func("ln", const(-1)), func("sqrt", const(-4)),
              func("arcsin", const(2))):
        with pytest.raises(EvaluationFailed):
            is_zero(e, 0)


def test_exact_rational_evaluation_path():
    # func-free expressions evaluate exactly; a tiny-but-nonzero rational
    # difference must be detected as nonzero despite being < 1e-40
    tiny = const(Fraction(1, 10**60))
    assert not is_zero(tiny, 0)
    e = add(div(x, const(3)), neg(mul(const(Fraction(1, 3)), x)), tiny)
    assert not is_zero(e, 0)


# -- zero test --------------------------------------------------------------------

def test_is_zero_pythagorean():
    e = add(pow_(func("sin", x), 2), pow_(func("cos", x), 2), neg(sx.ONE))
    assert is_zero(e, 0)


def test_is_zero_tan_identity():
    e = add(func("tan", x), neg(div(func("sin", x), func("cos", x))))
    assert is_zero(e, 0)


def _sin(a):
    return func("sin", a)


def _cos(a):
    return func("cos", a)


def test_trig_and_exp_identities_take_the_residue_branch():
    # sin, cos and tan of one argument read one residue tau, exp another
    ex = func("exp", x)
    for e in (add(pow_(_sin(x), 2), pow_(_cos(x), 2), neg(sx.ONE)),
              add(func("tan", x), neg(div(_sin(x), _cos(x)))),
              add(pow_(add(ex, sx.ONE), 2), neg(pow_(ex, 2)),
                  mul(const(-2), ex), neg(sx.ONE))):
        assert sx.evaluable_mod_p([e], 0)
        assert all(value_mod_p(e, k, 0) is not None for k in range(5))
        assert is_zero(e, 0)
    # the residues of sin x, tan x and exp x are not those of y or x + y
    assert not is_zero(add(_sin(x), neg(_sin(y))), 0)
    assert not is_zero(add(_sin(add(x, y)), neg(_sin(x))), 0)
    assert not is_zero(add(ex, neg(_sin(x))), 0)


def test_dependent_or_constant_arguments_fall_back_to_50_digits():
    # zero, but only through relations between the arguments: with a
    # residue per argument these would be called nonzero
    two_x = mul(const(2), x)
    one = add(pow_(add(x, sx.ONE), 2), neg(pow_(x, 2)), mul(const(-2), x))
    for e in (add(mul(const(2), _sin(x), _cos(x)), neg(_sin(two_x))),
              add(_sin(add(x, sx.ONE)), neg(mul(_sin(x), _cos(sx.ONE))),
                  neg(mul(_cos(x), _sin(sx.ONE)))),
              add(mul(func("exp", x), func("exp", neg(x))), neg(sx.ONE)),
              _sin(add(one, neg(sx.ONE))),
              add(_sin(one), neg(_sin(sx.ONE)))):
        assert not sx.evaluable_mod_p([e], 0)
        assert is_zero(e, 0)
        with pytest.raises(ValueError):
            value_mod_p(e, 0, 0)
    # each argument set alone is independent; together they are not
    a, b = add(_sin(x), y), _cos(two_x)
    assert sx.evaluable_mod_p([a], 0) and sx.evaluable_mod_p([b], 0)
    assert not sx.evaluable_mod_p([a, b], 0)
    assert sx.evaluable_mod_p([a, func("tan", y), func("exp", two_x)], 0)


def test_is_zero_rejects_nonzero():
    assert not is_zero(add(x, y), 0)
    assert not is_zero(func("sin", x), 0)


def test_is_zero_deterministic_across_call_order():
    def fresh():
        # new nodes each time, so neither order sees the other's memo
        u, v = var(Symbol("u", sx.STATE)), var(Symbol("v", sx.STATE))
        a = add(pow_(func("sin", u), 2), pow_(func("cos", u), 2), neg(sx.ONE))
        b = mul(u, add(v, neg(v)))
        return a, b

    a, b = fresh()
    r1 = (is_zero(a, 7), is_zero(b, 7))
    a, b = fresh()
    r2 = (is_zero(b, 7), is_zero(a, 7))
    assert r1 == (r2[1], r2[0])


def test_sample_points_are_shared_and_memoized(monkeypatch):
    u, v = var(Symbol("u", sx.STATE)), var(Symbol("v", sx.STATE))
    a, b = mul(u, v), add(u, pow_(v, 2))
    calls = []
    coordinate = sx._coordinate
    monkeypatch.setattr(sx, "_coordinate",
                        lambda *args: calls.append(args) or coordinate(*args))
    assert not is_zero(add(a, b), 3)
    assert [(c[0].name, c[2]) for c in calls] == [("u", 0), ("v", 0)]
    # p*a - e*b style entries reuse a's and b's values: no new coordinates
    assert not is_zero(add(mul(const(2), a), neg(mul(u, b))), 3)
    assert len(calls) == 2
    # a symbol's value at a point does not depend on the node holding it
    w = var(Symbol("u", sx.STATE))
    assert is_zero(add(mul(w, v), neg(a)), 3)
    assert sx._at(w, 0, 3, True) == sx._at(u, 0, 3, True)


def _symbolic_derivatives(e, k, seed, fields):
    """sum_s f_l^s(z) * value_mod_p(diff(e, s)) per field, None where one
    of the partial derivatives has a pole."""
    out = []
    for f in fields:
        parts = [value_mod_p(diff(e, s), k, seed) for s in f]
        if None in parts:
            return None
        out.append(sum(f[s] * p for s, p in zip(f, parts)) % sx.PRIME)
    return out


# sin, cos, tan and exp of none, one or two arguments independent over Q
# modulo constants
RESIDUE_ARGS = ((), (mul(x, y),), (mul(x, y), add(y, pow_(z, 2))))


@given(st.sampled_from(RESIDUE_ARGS).flatmap(
    lambda args: exprs(max_leaves=8, funcs=False, args=args)),
    st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_derivatives_mod_p_match_the_symbolic_derivative(e, fseed):
    assert sx.evaluable_mod_p([e], 0)
    rng = random.Random(fseed)
    fields = [{s: rng.randrange(sx.PRIME) for s in rng.sample([X, Y, Z], r)}
              for r in (rng.randint(0, 3) for _ in range(rng.randint(1, 3)))]
    for k in range(3):
        memo = {}
        got = sx.derivatives_mod_p(e, k, 0, fields, memo)
        if value_mod_p(e, k, 0) is None:
            assert got is None
            continue
        want = _symbolic_derivatives(e, k, 0, fields)
        if want is not None:
            assert got == want
        # the memo serves every expression at the point
        assert sx.derivatives_mod_p(mul(e, x), k, 0, fields, memo) == \
            _symbolic_derivatives(mul(e, x), k, 0, fields)


def test_derivatives_mod_p_through_vanishing_factors_and_poles():
    fields = [{X: 3, Y: 5, Z: 7}, {Z: 1}]
    for k in range(4):
        # a vanishes at point k, so the product rule may not divide by it
        a = add(x, neg(const(sx._coordinate(X, 0, k, True))))
        assert value_mod_p(a, k, 0) == 0
        for e in (mul(a, y, pow_(z, -2)), mul(pow_(a, 2), pow_(add(y, z), -1)),
                  mul(a, add(a, y), pow_(x, -3), z), add(pow_(a, 3), mul(a, z))):
            got = sx.derivatives_mod_p(e, k, 0, fields, {})
            assert got == _symbolic_derivatives(e, k, 0, fields)
        # a pole of e is a pole of its derivatives
        for e in (pow_(a, -1), mul(y, pow_(a, -2)), add(z, pow_(mul(a, y), -1))):
            assert value_mod_p(e, k, 0) is None
            assert sx.derivatives_mod_p(e, k, 0, fields, {}) is None
    assert sx.derivatives_mod_p(sx.ONE, 0, 0, fields, {}) == [0, 0]
    assert sx.derivatives_mod_p(x, 0, 0, [{}, {X: 4}], {}) == [0, 4]


def test_derivatives_mod_p_rejects_the_50_digit_branch():
    for e in (func("ln", x), func("sqrt", x), mul(_sin(sx.ONE), x),
              add(_sin(x), _cos(mul(const(2), x))), mul(const(sx.PRIME), x)):
        assert not sx.evaluable_mod_p([e], 0)
        with pytest.raises(ValueError):
            sx.derivatives_mod_p(e, 0, 0, [{X: 1}], {})


def _square_identity(c, t):
    """(c*t + y)^2 - c^2*t^2 - 2*c*t*y - y^2: zero, but not structurally."""
    sq = add(pow_(add(mul(const(c), t), y), 2), neg(mul(const(c * c), pow_(t, 2))),
             neg(mul(const(2 * c), t, y)), neg(pow_(y, 2)))
    assert sq is not sx.ZERO
    return sq


def test_constant_that_prime_divides_takes_the_mpmath_branch():
    p = sx.PRIME
    # in GF(p) the last two would vanish at every point
    for c in (Fraction(1, p), Fraction(5, 3 * p), Fraction(p), Fraction(2 * p, 7)):
        e = add(mul(const(c), x), y)
        assert e.needs_mp
        assert not is_zero(e, 0)
        assert not is_zero(mul(const(c), x), 0)
        # zero with terms near c^2: the threshold scales with them
        sq = _square_identity(c, x)
        assert sq.needs_mp and is_zero(sq, 0)
        assert not is_zero(add(sq, x), 0)
    assert not add(mul(const(Fraction(p + 1, 2)), x), y).needs_mp


def test_zero_with_large_terms_and_a_function():
    # 50-digit cancellation leaves about 1e-50 * 1e60 here; an absolute
    # 1e-40 threshold called this zero nonzero
    sq = _square_identity(Fraction(10**30), func("arctan", x))
    assert sq.needs_mp and is_zero(sq, 0)
    assert not is_zero(add(sq, mul(const(10**25), x)), 0)
    # small terms keep the absolute floor
    tiny = mul(const(Fraction(1, 10**30)), func("arctan", x))
    assert not is_zero(tiny, 0)


def test_schwartz_zippel_bound_at_a_small_prime(monkeypatch):
    # at p = 101 a nonzero numerator of degree d vanishes at a point with
    # probability at most d/(p - 1); count the false zeros over many seeds
    monkeypatch.setattr(sx, "PRIME", 101)
    t, s = var(Symbol("t", sx.STATE)), var(Symbol("s", sx.STATE))
    roots3 = mul(add(t, const(-1)), add(t, const(-2)), add(t, const(-3)))
    hyper = add(mul(t, s), const(-1))      # t*s = 1 at 100 of 100^2 points
    n = 3000
    for e, d, rate in ((roots3, 3, 3 / 100), (hyper, 2, 1 / 100)):
        for points in (1, 2):
            monkeypatch.setattr(sx, "ZERO_POINTS", points)
            bound = (d / 100) ** points
            got = sum(is_zero(e, k) for k in range(n))
            assert got <= bound * n + 4 * math.sqrt(bound * n)
            # the points are uniform: the rate matches the known roots
            want = rate ** points * n
            assert abs(got - want) <= 4 * math.sqrt(want) + 1


def test_is_zero_evaluation_failed():
    # ln(-x^2 - 1) has empty real domain; every sample fails
    e = func("ln", add(neg(pow_(x, 2)), neg(sx.ONE)))
    with pytest.raises(EvaluationFailed):
        is_zero(e, 0)


def test_is_zero_resamples_past_poles():
    # 1/(x - 1) is undefined at x=1 but samples rarely hit it; and the
    # expression is nonzero wherever defined
    assert not is_zero(pow_(add(x, neg(sx.ONE)), -1), 0)


# -- sympy as an independent oracle -------------------------------------------------

_SYMPY_NAMES = {"ln": "log", "arcsin": "asin", "arctan": "atan"}


def _to_sympy(sp, e):
    if isinstance(e, sx.Const):
        return sp.Rational(e.n, e.d)
    if isinstance(e, sx.Var):
        return sp.Symbol(e.sym.name)
    if isinstance(e, sx.Add):
        return sp.Add(*(_to_sympy(sp, t) for t in e.terms))
    if isinstance(e, sx.Mul):
        return sp.Mul(*(_to_sympy(sp, f) for f in e.factors))
    if isinstance(e, sx.Pow):
        return sp.Pow(_to_sympy(sp, e.base), e.exp)
    return getattr(sp, _SYMPY_NAMES.get(e.fn, e.fn))(_to_sympy(sp, e.arg))


def _from_sympy(sp, t):
    if t.is_Symbol:
        return var(Symbol(t.name, sx.STATE))
    if t.is_Rational:
        return const(Fraction(int(t.p), int(t.q)))
    if t.is_Add:
        return add(*(_from_sympy(sp, a) for a in t.args))
    if t.is_Mul:
        return mul(*(_from_sympy(sp, a) for a in t.args))
    if t.is_Pow:
        return pow_(_from_sympy(sp, t.base), int(t.exp))
    if t == sp.E:       # expand() splits exp(1 + x) into E*exp(x)
        return func("exp", sx.ONE)
    names = {v: k for k, v in _SYMPY_NAMES.items()}
    name = type(t).__name__
    return func(names.get(name, name), _from_sympy(sp, t.args[0]))


def _random_expr(rng, depth, funcs):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return rng.choice([x, y, z])
        return const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    op = rng.choice(["add", "mul", "pow"] + (["func"] if funcs else []))
    if op == "func":
        # no constant arguments: sympy would turn exp(1) into E, arctan(1)
        # into pi/4
        arg = _random_expr(rng, depth - 1, funcs)
        if isinstance(arg, sx.Const):
            arg = add(arg, x)
        return func(rng.choice(["sin", "cos", "exp", "arctan"]), arg)
    if op == "pow":
        return _safe_pow(_random_expr(rng, depth - 1, funcs),
                         rng.choice([-2, -1, 2, 3]))
    parts = [_random_expr(rng, depth - 1, funcs) for _ in range(2)]
    return add(*parts) if op == "add" else mul(*parts)


def test_is_zero_and_diff_agree_with_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(2024)
    seen = collections.Counter()
    for i in range(120):
        a = _random_expr(rng, 4, funcs=i % 2 == 1)
        # a rewritten by sympy is the same function in another tree; on
        # about half the draws a random monomial makes the difference nonzero
        other = sp.expand(_to_sympy(sp, a))
        if rng.random() < 0.5:
            other += sp.Rational(rng.randint(1, 9), rng.randint(1, 9)) \
                * sp.Symbol(rng.choice("xyz")) ** rng.randint(0, 2)
        e = add(a, neg(_from_sympy(sp, other)))
        want = sp.cancel(_to_sympy(sp, e)) == 0
        assert is_zero(e, 0) == want, (a, other)
        if not isinstance(e, sx.Const):
            seen[sx.evaluable_mod_p([e], 0), want] += 1
        for sym in (X, Y):
            d = sp.diff(_to_sympy(sp, a), sp.Symbol(sym.name))
            assert sp.cancel(_to_sympy(sp, diff(a, sym)) - d) == 0, (a, sym)
    # both branches saw zero and nonzero differences that are not constants
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


# -- compile -----------------------------------------------------------------------

def test_compile_expr_matches_eval():
    e = add(func("sin", x), mul(y, pow_(x, -1)), func("arctan", y))
    f = compile_expr([e], [X, Y])
    rng = random.Random(3)
    for _ in range(10):
        ax = rng.uniform(0.5, 2.0)
        ay = rng.uniform(0.5, 2.0)
        want = math.sin(ax) + ay / ax + math.atan(ay)
        assert abs(f(np.array([[ax], [ay]]))[0, 0] - want) < 1e-12


def test_compile_expr_numpy_matches_math():
    # every function of FUNCTIONS in each expression, at points both inside
    # and outside their domains
    rng = random.Random(11)
    pts = np.array([[rng.uniform(-1.0, 1.0) for _ in range(40)]
                    for _ in range(3)])

    def coeff(lo=-2):
        return const(Fraction(rng.randint(lo, 3), rng.randint(2, 5)))

    checked = 0
    for _ in range(25):
        terms = []
        for fn in sx.FUNCTIONS:
            arg = add(mul(coeff(1), x), mul(coeff(), y, z),
                      mul(coeff(), pow_(z, rng.choice((1, 2, -1)))), coeff())
            terms.append(mul(coeff(1), func(fn, arg)))
        e = add(*terms)
        f_math = tree_compile(e, [X, Y, Z], math)
        f_np = compile_expr([e], [X, Y, Z])
        with np.errstate(all="ignore"):
            got = f_np(pts)[0]
        for k in range(pts.shape[1]):
            try:
                want = f_math(pts[:, k].tolist())
            except (ValueError, ArithmeticError):
                assert not math.isfinite(got[k])
                continue
            assert abs(got[k] - want) <= 1e-12 * max(1.0, abs(want))
            checked += 1
    assert checked > 100


def _rk4_loop(dynamics, states, inputs):
    """The verifier's RK4 written as a plain loop over compiled callables:
    the reference the generated sweep must match float for float."""
    fs = [tree_compile(f, list(states) + list(inputs), math) for f in dynamics]

    def f_eval(x, u):
        return [f(x + u) for f in fs]

    def rk4(x, u0, u1, u2, step):
        k1 = f_eval(x, u0)
        k2 = f_eval([a + step / 2 * b for a, b in zip(x, k1)], u1)
        k3 = f_eval([a + step / 2 * b for a, b in zip(x, k2)], u1)
        k4 = f_eval([a + step * b for a, b in zip(x, k3)], u2)
        return [a + step / 6 * (b + 2 * c + 2 * d + e)
                for a, b, c, d, e in zip(x, k1, k2, k3, k4)]

    def run(x0, ua, ub, uc, n, step):
        xs = [x0]
        for k in range(n):
            xs.append(rk4(xs[-1], ua[k], ub[k], uc[k], step))
        return xs

    return run


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _both(cs, x0, ua, ub, uc, n, step):
    """Results of the sweep and the loop, or the classes they raised.  The
    loop takes the inputs and returns the states per step, the sweep per
    variable; both are compared per step."""
    out = []
    for make, per_step in ((compile_rk4, _columns), (_rk4_loop, list)):
        run = make(cs.dynamics, cs.states, cs.inputs)
        try:
            us = [per_step(u) for u in (ua, ub, uc)]
            out.append(per_step(run(x0, *us, n, step)))
        except (ArithmeticError, ValueError) as ex:
            out.append(type(ex))
    return out


SYSTEMS = (pathlib.Path(__file__).resolve().parent.parent
           / "perfbench" / "systems")
CORPUS = sorted(SYSTEMS.glob("*.fds"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_compile_rk4_matches_the_loop_exactly(path):
    cs = parse_system(path.read_text(encoding="utf-8"))
    rng = random.Random(path.stem)
    n = 200
    for _ in range(3):
        x0 = [rng.uniform(0.8, 1.2) for _ in cs.states]
        ua, ub, uc = ([[rng.uniform(0.5, 1.0) for _ in cs.inputs]
                       for _ in range(n)] for _ in range(3))
        got, want = _both(cs, x0, ua, ub, uc, n, 1e-3)
        assert isinstance(want, list) and len(want) == n + 1
        assert got == want


@pytest.mark.parametrize("text, x0, u, n, step, error", [
    # finite-time blow-up: x1 reaches the float range within t = 1
    ((SYSTEMS / "nlchain.fds").read_text(encoding="utf-8"),
     [1.0, 1.0, 1.0], 0.75, 1000, 1e-3, OverflowError),
    # the last stage of the first step lands on x = 0 exactly
    ("system pole { states: x, y; inputs: u; dot(x) = u; dot(y) = 1/x; }",
     [0.5, 0.0], -1.0, 1, 0.5, ZeroDivisionError),
    # the middle stages reach x < 0
    ("system logneg { states: x, y; inputs: u; dot(x) = u; dot(y) = ln(x); }",
     [0.5, 0.0], -1.0, 1, 2.0, ValueError),
])
def test_compile_rk4_raises_like_the_loop(text, x0, u, n, step, error):
    cs = parse_system(text)
    us = [[u]] * n
    got, want = _both(cs, x0, us, us, us, n, step)
    assert got is want is error


def test_compile_expr_unbound():
    with pytest.raises(ValueError):
        compile_expr([x], [Y])
    with pytest.raises(ValueError):
        compile_rk4([x], [Y], [Z])


def _doubling(k):
    """e_k with e_0 = x + y and e_(j+1) = x*e_j + y*e_j: its tree doubles
    with each j, its distinct nodes grow by three."""
    e = add(x, y)
    for _ in range(k):
        e = add(mul(x, e), mul(y, e))
    return e


def test_programs_and_derivatives_grow_with_the_distinct_nodes(monkeypatch):
    calls = []

    def counted(f):
        def call(*args):
            calls.append(f)
            return f(*args)
        return call

    monkeypatch.setattr(sx, "add", counted(sx.add))
    monkeypatch.setattr(sx, "mul", counted(sx.mul))
    lines, work = [], []
    for k in (8, 12, 16):
        e = _doubling(k)
        assert e.nodes > 2 ** (k + 2)
        lines.append(len(sx._program([e], {X: "x", Y: "y"}, math)[0]))
        calls.clear()
        diff(e, X)
        work.append(len(calls))
    # a constant step per four levels, where the tree grows 16-fold
    assert lines[2] - lines[1] == lines[1] - lines[0] <= 4 * 3
    assert work[2] - work[1] == work[1] - work[0] <= 4 * 6


# -- structural identity ------------------------------------------------------------

@given(exprs())
@settings(max_examples=100, deadline=None)
def test_keys_are_hash_consistent(e):
    assert normalize(e) is e


def test_equal_expressions_are_one_node(monkeypatch):
    # built twice, apart, an expression is one object, so the zero test of
    # the second copy reads the first copy's sample values
    from flatdec.sysdsl import parse_expr
    a, b = Symbol("intern_a", sx.STATE), Symbol("intern_b", sx.STATE)

    def build():
        va, vb = var(a), var(b)
        return add(mul(va, pow_(vb, 3)), div(va, add(vb, const(2))), neg(va))

    first, second = build(), build()
    assert second is first
    text = "intern_a*intern_b^3 + intern_a/(intern_b + 2) - intern_a"
    assert parse_expr(text, [a, b]) is parse_expr(text, [a, b]) is first
    assert const(Fraction(0)) is sx.ZERO and const(1) is sx.ONE
    evaluated = []
    node = sx._modp_node

    def counting(e, args):
        evaluated.append(e)
        return node(e, args)

    monkeypatch.setattr(sx, "_modp_node", counting)
    assert not is_zero(first, seed=9_871)
    assert evaluated
    evaluated.clear()
    assert not is_zero(second, seed=9_871)
    assert evaluated == []


def test_symbols_are_interned_by_name_and_kind():
    a = Symbol("intern_s", sx.STATE)
    assert Symbol("intern_s", sx.STATE) is a
    assert Symbol("intern_s", sx.INPUT) is not a
    assert Symbol("intern_s") is Symbol("intern_s", sx.AUX)
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    for name, kind in (("intern_s", sx.STATE), ("intern_s", sx.INPUT),
                       ("t", sx.TIME)):
        assert hash(Symbol(name, kind)) == hash((name, kind))


def test_heterogeneous_keys_compare():
    # sorting keys must never raise even for mixed node kinds
    items = [x, const(Fraction(3, 2)), func("sin", y), pow_(x, 2), add(x, y),
             mul(x, y)]
    sorted(items, key=lambda e: e.key)
