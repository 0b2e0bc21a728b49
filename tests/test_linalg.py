"""Span decisions: rank, membership and independence over the function field."""

import random

import pytest

from flatdec import symexpr as sx
from flatdec.exterior import Chart, VectorField
from flatdec.linalg import ZeroCtx, in_span, independent_rows, rank
from flatdec.pfaffian import is_involutive
from flatdec.symexpr import (
    ONE, STATE, ZERO, Symbol, add, const, div, func, mul, neg, pow_, var,
)

from conftest import contains

x, y = Symbol("x", STATE), Symbol("y", STATE)
X, Y = var(x), var(y)

# zero as functions, but not the literal zero expression
RATIONAL_ZERO = add(div(add(pow_(X, 2), const(-1)), add(X, const(-1))),
                    neg(X), const(-1))
TRIG_ZERO = add(pow_(func("sin", X), 2), pow_(func("cos", X), 2), const(-1))


# -- entries that vanish without being the literal zero ----------------------------

@pytest.mark.parametrize("z", [RATIONAL_ZERO, TRIG_ZERO], ids=["rational", "trig"])
def test_zero_entry_outside_every_pivot_column(z, zc):
    assert z is not ZERO
    # no pivot step touches column 1, so only the remainder's own zero
    # test can see that the target vanishes there
    assert in_span([[ONE, ZERO]], [[ZERO, z]], zc)
    assert in_span([[ONE, ZERO]], [[X, z]], zc)
    assert in_span([], [[z, z]], zc)
    assert not in_span([[ONE, ZERO]], [[ZERO, add(z, X)]], zc)
    assert rank([[ZERO, z], [ONE, z]], zc) == 1
    assert independent_rows([[ZERO, z], [z, ONE], [ZERO, ONE]], zc)[0] == [1]


def test_depends_reads_the_derivative_not_the_mention(monkeypatch, zc):
    s1, s2, s3 = (Symbol(f"s{i}", sx.AUX) for i in (1, 2, 3))
    # s2 + 2 - (s2 + s3 + 2): the constructors keep s2, which cancels
    e = add(var(s2), const(2), neg(add(var(s2), var(s3), const(2))))
    assert s2 in e.free
    assert not zc.depends(e, s2)
    assert zc.depends(e, s3)

    def no_zero_test(self, e):
        raise AssertionError("zero test for an absent symbol")
    monkeypatch.setattr(ZeroCtx, "zero", no_zero_test)
    assert not zc.depends(e, s1)


def test_zero_component_through_distribution_membership(zc):
    chart = Chart((x, y))
    D = (VectorField(chart, {x: ONE}),)
    assert contains(D, VectorField(chart, {y: RATIONAL_ZERO}), zc)
    assert contains(D, VectorField(chart, {y: TRIG_ZERO}), zc)
    assert not contains(D, VectorField(chart, {y: ONE}), zc)
    # [d/dx, z d/dy + y d/dy] = dz/dx d/dy, zero as a function
    E = (VectorField(chart, {x: ONE}),
         VectorField(chart, {y: add(Y, RATIONAL_ZERO)}))
    assert is_involutive(E, zc)


def test_in_span_stops_at_the_first_target_outside(zc):
    reduced = []

    def targets():
        for t in ([X, ZERO], [ZERO, ONE], [ONE, ONE]):
            reduced.append(t)
            yield t

    assert not in_span([[ONE, ZERO]], targets(), zc)
    assert len(reduced) == 2
    assert in_span([[ONE, ZERO]], iter([]), zc)


# -- sympy as an independent oracle --------------------------------------------------

def _to_sympy(sp, e):
    if isinstance(e, sx.Const):
        return sp.Rational(e.n, e.d)
    if isinstance(e, sx.Var):
        return sp.Symbol(e.sym.name)
    if isinstance(e, sx.Add):
        return sp.Add(*(_to_sympy(sp, t) for t in e.terms))
    if isinstance(e, sx.Mul):
        return sp.Mul(*(_to_sympy(sp, f) for f in e.factors))
    return sp.Pow(_to_sympy(sp, e.base), e.exp)


def _poly(rng):
    """A sum of up to three terms c x^a y^b with small integers."""
    return add(*(mul(const(rng.randint(-3, 3)), pow_(X, rng.randint(0, 2)),
                     pow_(Y, rng.randint(0, 2)))
                 for _ in range(rng.randint(1, 3))))


def _entry(rng):
    """ZERO, a polynomial, a rational function, or (ac + bc)/c - a - b."""
    kind = rng.randrange(5)
    if kind == 0:
        return ZERO
    if kind == 1:
        return div(_poly(rng), add(X, const(rng.randint(1, 3))))
    if kind == 2:
        a, b = _poly(rng), _poly(rng)
        c = add(Y, const(rng.randint(1, 3)))
        return add(div(add(mul(a, c), mul(b, c)), c), neg(a), neg(b))
    return _poly(rng)


def _matrix(rng):
    """A few rows, some of them combinations of earlier rows, some entries
    shifted by an expression that vanishes."""
    ncols = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        if rows and rng.random() < 0.4:
            coeffs = [_poly(rng) for _ in rows]
            row = [add(*(mul(c, r[j]) for c, r in zip(coeffs, rows)))
                   for j in range(ncols)]
        else:
            row = [_entry(rng) for _ in range(ncols)]
        if rng.random() < 0.3:
            j = rng.randrange(ncols)
            a = _poly(rng)
            row[j] = add(row[j], div(mul(a, X), X), neg(a))
        rows.append(row)
    return rows


def test_span_decisions_agree_with_sympy_rank():
    sp = pytest.importorskip("sympy")

    def srank(rows):
        if not rows:
            return 0
        M = sp.Matrix([[_to_sympy(sp, e) for e in r] for r in rows])
        return M.applyfunc(sp.cancel).rank(iszerofunc=lambda e: sp.cancel(e) == 0)

    rng = random.Random(13)
    deficient = 0
    for seed in range(20):
        zc = ZeroCtx(20, seed)
        rows = _matrix(rng)
        r = srank(rows)
        deficient += r < len(rows)
        assert rank(rows, zc) == r, seed
        kept, _ = independent_rows(rows, zc)
        greedy = []
        for i, row in enumerate(rows):
            if srank([rows[j] for j in greedy] + [row]) > len(greedy):
                greedy.append(i)
        assert kept == greedy, seed
        for k in range(len(rows)):
            span, rest = rows[:k], rows[k:]
            want = [srank(span + [t]) == srank(span) for t in rest]
            assert [in_span(span, [t], zc) for t in rest] == want, seed
            assert in_span(span, rest, zc) == all(want), seed
    assert deficient >= 10
