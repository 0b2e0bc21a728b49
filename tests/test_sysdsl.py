from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatdec import symexpr as sx
from flatdec.linalg import ZeroCtx
from flatdec.symexpr import Symbol, add, const, div, func, mul, neg, pow_, var
from flatdec.sysdsl import (
    ControlSystem, ParseError, SemanticError, check_inputs_independent,
    parse_expr, parse_system, render,
)

X1, X2, U1, U2 = (Symbol("x1", sx.STATE), Symbol("x2", sx.STATE),
                  Symbol("u1", sx.INPUT), Symbol("u2", sx.INPUT))
CHART = [X1, X2, U1, U2]

SIN_SYS = """
system motivating {
  states: x1, x2, x3;
  inputs: u1, u2;
  dot(x1) = u1;
  dot(x2) = u2;
  dot(x3) = sin(u1/u2);
}
"""


def test_parse_motivating_example():
    cs = parse_system(SIN_SYS)
    assert cs.name == "motivating"
    assert [s.name for s in cs.states] == ["x1", "x2", "x3"]
    assert [s.name for s in cs.inputs] == ["u1", "u2"]
    u1, u2 = cs.inputs
    assert cs.dynamics[0] == var(u1)
    assert cs.dynamics[2] == func("sin", div(var(u1), var(u2)))


def test_parse_single_integrator():
    cs = parse_system("system s { states: x1; inputs: u1; dot(x1)=u1; }")
    assert len(cs.states) == 1 and len(cs.inputs) == 1


def test_undeclared_symbol_rejected():
    with pytest.raises(SemanticError, match="x2"):
        parse_system("system s { states: x1; inputs: u1; dot(x1)=x2; }")


def test_time_symbol_reserved():
    with pytest.raises(SemanticError):
        parse_system("system s { states: t; inputs: u1; dot(t)=u1; }")
    with pytest.raises(SemanticError, match="t"):
        parse_expr("t + x1", CHART)


def test_duplicate_declaration():
    with pytest.raises(SemanticError, match="duplicate"):
        parse_system("system s { states: x1, x1; inputs: u1; dot(x1)=u1; }")


def test_duplicate_equation():
    with pytest.raises(SemanticError, match="duplicate"):
        parse_system(
            "system s { states: x1; inputs: u1; dot(x1)=u1; dot(x1)=u1; }")


def test_missing_equation():
    with pytest.raises(SemanticError, match="x2"):
        parse_system("system s { states: x1, x2; inputs: u1; dot(x1)=u1; }")


def test_dot_of_nonstate():
    with pytest.raises(SemanticError, match="u1"):
        parse_system("system s { states: x1; inputs: u1; dot(u1)=x1; }")


def test_dependent_inputs_rejected():
    # parsing leaves the zero-test decision to the command's context
    cs = parse_system("""
        system s { states: x1, x2; inputs: u1, u2;
          dot(x1) = u1 + u2;
          dot(x2) = 2*u1 + 2*u2;
        }""")
    with pytest.raises(SemanticError, match="rank"):
        check_inputs_independent(cs, ZeroCtx(20, 0))
    check_inputs_independent(parse_system(SIN_SYS), ZeroCtx(20, 0))


def test_empty_file_is_syntax_error():
    with pytest.raises(ParseError):
        parse_system("")


def test_syntax_error_carries_position():
    try:
        parse_system("system s {\n states x1; inputs: u1; dot(x1)=u1; }")
    except ParseError as e:
        assert e.line == 2
    else:
        raise AssertionError("expected ParseError")


def test_comments_ignored():
    cs = parse_system("""
    # full-line comment
    system s { states: x1;  # trailing comment
      inputs: u1;
      dot(x1) = u1;  # another
    }""")
    assert cs.name == "s"


def test_unclosed_call_is_syntax_error():
    with pytest.raises(ParseError):
        parse_expr("sin(", CHART)


def test_float_literal_rejected():
    with pytest.raises(ParseError):
        parse_expr("1.5*x1", CHART)


def test_precedence():
    x1, u1, u2 = var(X1), var(U1), var(U2)
    assert parse_expr("x1 + u1*u2", CHART) == add(x1, mul(u1, u2))
    assert parse_expr("-x1^2", CHART) == neg(pow_(x1, 2))      # ^ above unary -
    assert parse_expr("(-x1)^2", CHART) == pow_(x1, 2)
    assert parse_expr("x1 - u1 - u2", CHART) == add(x1, neg(u1), neg(u2))
    assert parse_expr("u1/u2/x1", CHART) == div(u1, mul(u2, x1))
    assert parse_expr("x1^2^3", CHART) == pow_(x1, 8)          # right assoc
    assert parse_expr("2^-2", CHART) == const(Fraction(1, 4))


def test_mixed_quotient_expression():
    e = parse_expr("x2 - x1*u2/u1", CHART)
    want = add(var(X2), neg(div(mul(var(X1), var(U2)), var(U1))))
    assert e == want


def test_zero_expression():
    assert parse_expr("0", CHART) is sx.ZERO


def test_non_integer_exponent_rejected():
    with pytest.raises(SemanticError, match="integer"):
        parse_expr("x1^u1", CHART)
    with pytest.raises(SemanticError, match="integer"):
        parse_expr("x1^(1/2)", CHART)


def test_division_by_literal_zero():
    with pytest.raises(SemanticError):
        parse_expr("x1/0", CHART)


# -- rendering ------------------------------------------------------------------

def test_render_examples():
    u1, u2 = var(U1), var(U2)
    assert render(div(u1, u2)) == "u1/u2"
    zh2 = var(Symbol("zh2", sx.AUX))
    assert render(func("sin", zh2)) == "sin(zh2)"
    x = var(Symbol("x", sx.STATE))
    assert render(add(mul(const(2), x), const(3))) == "2*x + 3"


def test_render_negative_and_quotients():
    x1, u1, u2 = var(X1), var(U1), var(U2)
    assert render(neg(x1)) == "-x1"
    assert render(add(x1, neg(u1))) == "x1 - u1"
    assert render(div(x1, mul(const(2), u1))) == "x1/(2*u1)"
    assert render(div(const(1), pow_(u2, 2))) == "1/u2^2"
    assert render(const(Fraction(-3, 2))) == "-3/2"
    assert render(pow_(add(x1, u1), 2)) == "(u1 + x1)^2"


def roundtrip(e):
    assert parse_expr(render(e), CHART) == e


def test_roundtrip_handpicked():
    x1, x2, u1, u2 = (var(s) for s in CHART)
    for e in [
        sx.ZERO, sx.ONE, const(Fraction(7, 3)), neg(const(Fraction(7, 3))),
        x1, neg(x1), add(x1, x2), add(x1, neg(x2)),
        mul(x1, x2), div(x1, x2), div(mul(x1, x2), mul(u1, u2)),
        pow_(x1, 5), pow_(x1, -3), func("sin", div(u1, u2)),
        add(x2, neg(div(mul(x1, u2), u1))),
        mul(const(Fraction(2, 3)), x1, pow_(u1, -2)),
        add(mul(const(2), x1), const(3)),
        func("exp", add(x1, mul(const(-1), pow_(x2, 2)))),
        div(add(x1, x2), add(u1, neg(u2))),
        mul(add(x1, sx.ONE), add(x2, const(2)), pow_(add(u1, u2), -1)),
    ]:
        roundtrip(e)


def term_strategy():
    leaves = st.one_of(
        st.sampled_from([var(s) for s in CHART]),
        st.fractions(min_value=-5, max_value=5, max_denominator=8).map(const),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
            st.tuples(children, st.integers(-3, 3).filter(lambda n: n != 0))
              .map(_try_pow),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt",
                                       "arcsin", "arctan", "tan"]), children)
              .map(lambda p: func(p[0], p[1])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _try_pow(p):
    try:
        return pow_(*p)
    except sx.DomainError:
        return p[0]


@given(term_strategy())
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(e):
    roundtrip(e)


def test_invalid_strings_fuzz():
    bad = ["", "x1 +", "* x1", "x1 x2", "((x1)", "x1)", "sin x1", "1..2",
           "x1 ^ ^ 2", "x1 @ x2", "dot(x1)", "x1,x2"]
    for s in bad:
        with pytest.raises((ParseError, SemanticError)):
            parse_expr(s, CHART)


def test_construction_invariants_direct():
    x1 = Symbol("x1", sx.STATE)
    u1 = Symbol("u1", sx.INPUT)
    with pytest.raises(SemanticError):
        ControlSystem("s", (x1,), (u1,), (var(x1), var(u1)))   # length mismatch
    with pytest.raises(SemanticError):
        ControlSystem("s", (x1,), (), ())                       # no inputs
