"""Definition language for control systems; rendering of expressions and forms.

Grammar (UTF-8, '#' comments to end of line):

    system   ::= "system" IDENT "{" "states:" identlist ";"
                                    "inputs:" identlist ";" eq+ "}"
    eq       ::= "dot" "(" IDENT ")" "=" expr ";"
    identlist::= IDENT ("," IDENT)*

Expressions use infix precedence ^ > unary- > * / > + - with ^ right
associative, integer literals only, and calls of the known function names.
The time symbol t is implicit and reserved; dynamics must be time-invariant.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from . import linalg
from .exterior import one_coeffs
from .symexpr import (
    FUNCTIONS, INPUT, STATE, ZERO, DomainError, Expr, Symbol, add, const,
    diff, div, func, mul, neg, pow_, var,
)
from .symexpr import Add, Const, Func, Mul, Pow, Var


class ParseError(SyntaxError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class SemanticError(ValueError):
    pass


@dataclass(frozen=True)
class ControlSystem:
    name: str
    states: tuple
    inputs: tuple
    dynamics: tuple

    def __post_init__(self):
        if not self.states:
            raise SemanticError("a system needs at least one state")
        if not self.inputs:
            raise SemanticError("a system needs at least one input")
        if len(self.dynamics) != len(self.states):
            raise SemanticError("one dynamics expression per state is required")
        names = [s.name for s in self.states + self.inputs]
        if len(set(names)) != len(names):
            raise SemanticError("duplicate symbol declaration")
        if "t" in names:
            raise SemanticError("the symbol t is reserved for time")
        declared = set(self.states) | set(self.inputs)
        for s, f in zip(self.states, self.dynamics):
            stray = f.free - declared
            if stray:
                bad = sorted(sym.name for sym in stray)
                raise SemanticError(
                    f"dot({s.name}) mentions undeclared symbols: {', '.join(bad)}")


def check_inputs_independent(cs: ControlSystem, zc: linalg.ZeroCtx) -> None:
    """Raise SemanticError unless the input Jacobian of the dynamics has
    generic rank equal to the input count, decided by the zero test zc."""
    jac = [[diff(f, u) for u in cs.inputs] for f in cs.dynamics]
    if linalg.rank(jac, zc) != len(cs.inputs):
        raise SemanticError(
            "inputs are dependent: the input Jacobian of the dynamics "
            "has generic rank below the input count")


# -- tokenizer ----------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<op>[()+\-*/^{}:;,=])|(?P<comment>#[^\n]*)|(?P<ws>\s+)")


def _tokenize(text: str):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "ident":
            toks.append(("ident", lexeme, line, col))
        elif kind == "int":
            toks.append(("int", lexeme, line, col))
        elif kind == "op":
            toks.append(("op", lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 25   # between * and ^: -x^2 is -(x^2), -x*y is (-x)*y


class _Parser:
    def __init__(self, toks, symmap):
        self.toks = toks
        self.i = 0
        self.symmap = symmap

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        kind, lex, line, col = self.advance()
        if lex != text:
            what = lex if kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, found {what!r}", line, col)

    def expect_ident(self):
        kind, lex, line, col = self.advance()
        if kind != "ident":
            raise ParseError(f"expected an identifier, found {lex!r}", line, col)
        return lex, line, col

    # Pratt expression parser
    def expression(self, rbp=0) -> Expr:
        left = self._nud(self.advance())
        while True:
            kind, lex, _, _ = self.peek()
            if kind != "op" or _LBP.get(lex, 0) <= rbp:
                return left
            left = self._led(self.advance(), left)

    def _nud(self, tok) -> Expr:
        kind, lex, line, col = tok
        if kind == "int":
            try:
                return const(int(lex))
            except ValueError:   # past sys.get_int_max_str_digits()
                raise SemanticError(f"{line}:{col}: literal too long") from None
        if kind == "ident":
            if lex in FUNCTIONS and self.peek()[1] == "(":
                self.advance()
                arg = self.expression(0)
                self.expect(")")
                return func(lex, arg)
            sym = self.symmap.get(lex)
            if sym is None:
                extra = " (time symbol is implicit)" if lex == "t" else ""
                raise SemanticError(
                    f"unknown symbol {lex!r} at {line}:{col}{extra}")
            return var(sym)
        if lex == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if lex == "-":
            return neg(self.expression(_UNARY_BP))
        what = lex if kind != "eof" else "end of input"
        raise ParseError(f"unexpected {what!r} in expression", line, col)

    def _led(self, tok, left) -> Expr:
        _, lex, line, col = tok
        if lex == "+":
            return add(left, self.expression(10))
        if lex == "-":
            return add(left, neg(self.expression(10)))
        if lex == "*":
            return mul(left, self.expression(20))
        if lex == "/":
            rhs = self.expression(20)
            try:
                return div(left, rhs)
            except DomainError:
                raise SemanticError(f"division by zero at {line}:{col}") from None
        if lex == "^":
            rhs = self.expression(39)   # right associative
            if not (isinstance(rhs, Const) and rhs.d == 1):
                raise SemanticError(
                    f"exponent at {line}:{col} must be an integer constant")
            try:
                return pow_(left, rhs.n)
            except DomainError:
                raise SemanticError(f"zero to a negative power at {line}:{col}") from None
        raise ParseError(f"unexpected operator {lex!r}", line, col)


def _printable(e: Expr, where: str) -> Expr:
    """e, unless an int of its structural key (a numerator, denominator or
    exponent) has more digits than sys.get_int_max_str_digits() lets render
    print, 0 meaning no limit: then SemanticError."""
    limit, todo = sys.get_int_max_str_digits(), [e.key]
    while limit and todo:
        k = todo.pop()
        if isinstance(k, tuple):
            todo.extend(k)
        elif (isinstance(k, int) and k.bit_length() > 3 * limit
              and abs(k) >= 10 ** limit):   # as 8^limit < 10^limit
            raise SemanticError(f"{where} has a constant of over {limit} digits")
    return e


def parse_expr(text: str, chart) -> Expr:
    symmap = {s.name: s for s in chart}
    p = _Parser(_tokenize(text), symmap)
    e = p.expression(0)
    kind, lex, line, col = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input starting at {lex!r}", line, col)
    return _printable(e, "the expression")


def parse_system(text: str) -> ControlSystem:
    """The system a .fds text declares.  Whether its inputs are independent
    is a zero-test decision, left to check_inputs_independent."""
    p = _Parser(_tokenize(text), {})
    p.expect("system")
    name, _, _ = p.expect_ident()
    p.expect("{")

    def identlist(kind):
        out = []
        while True:
            ident, line, col = p.expect_ident()
            if ident == "t":
                raise SemanticError(
                    f"{line}:{col}: the symbol t is reserved for time")
            out.append(Symbol(ident, kind))
            if p.peek()[1] == ",":
                p.advance()
                continue
            return out

    p.expect("states")
    p.expect(":")
    states = identlist(STATE)
    p.expect(";")
    p.expect("inputs")
    p.expect(":")
    inputs = identlist(INPUT)
    p.expect(";")

    seen = {}
    for s in states + inputs:
        if s.name in seen:
            raise SemanticError(f"duplicate declaration of {s.name!r}")
        seen[s.name] = s
    p.symmap = seen
    state_by_name = {s.name: s for s in states}

    eqs = {}
    while p.peek()[1] != "}":
        kind, lex, line, col = p.peek()
        if kind == "eof":
            raise ParseError("unexpected end of input, expected '}'", line, col)
        p.expect("dot")
        p.expect("(")
        ident, iline, icol = p.expect_ident()
        target = state_by_name.get(ident)
        if target is None:
            raise SemanticError(
                f"{iline}:{icol}: dot({ident}) does not name a declared state")
        if target in eqs:
            raise SemanticError(f"{iline}:{icol}: duplicate equation for {ident}")
        p.expect(")")
        p.expect("=")
        eqs[target] = _printable(p.expression(0), f"dot({ident})")
        p.expect(";")
    p.expect("}")
    kind, lex, line, col = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input after system block: {lex!r}", line, col)

    if not eqs:
        raise ParseError("a system needs at least one dot() equation", line, col)
    missing = [s.name for s in states if s not in eqs]
    if missing:
        raise SemanticError(f"missing dot() equation for: {', '.join(missing)}")

    return ControlSystem(name=name, states=tuple(states), inputs=tuple(inputs),
                         dynamics=tuple(eqs[s] for s in states))


# -- rendering ----------------------------------------------------------------

def _render_base(b: Expr, memo: dict) -> str:
    # power bases and denominator factors: parenthesize sums
    s = _render(b, memo)
    if isinstance(b, Add):
        return f"({s})"
    return s


def _render_product(e: Expr, memo: dict) -> str:
    """Render a product (or lone factor) as [-]num[/den]."""
    n, d = 1, 1   # the rational coefficient n/d
    pos, neg_ = [], []
    factors = e.factors if isinstance(e, Mul) else (e,)
    for f in factors:
        if isinstance(f, Const):
            n, d = f.n, f.d
        elif isinstance(f, Pow) and f.exp < 0:
            neg_.append(f)
        else:
            pos.append(f)
    sign = "-" if n < 0 else ""
    n = abs(n)

    num_parts = []
    if n != 1 or not pos:
        num_parts.append(str(n))
    for f in pos:
        if isinstance(f, Pow):
            num_parts.append(f"{_render_base(f.base, memo)}^{f.exp}")
        elif isinstance(f, Add):
            num_parts.append(f"({_render(f, memo)})")
        else:
            num_parts.append(_render(f, memo))

    den_parts = []
    if d != 1:
        den_parts.append(str(d))
    for f in neg_:
        if f.exp == -1:
            den_parts.append(_render_base(f.base, memo))
        else:
            den_parts.append(f"{_render_base(f.base, memo)}^{-f.exp}")

    num = "*".join(num_parts)
    if not den_parts:
        return sign + num
    den = den_parts[0] if len(den_parts) == 1 and "*" not in den_parts[0] \
        else "(" + "*".join(den_parts) + ")"
    return f"{sign}{num}/{den}"


def render(e: Expr) -> str:
    """Deterministic serialization; parse_expr(render(e)) is structurally e.
    Each distinct subexpression is rendered once per call."""
    return _render(e, {})


def _render(e: Expr, memo: dict) -> str:
    """render(e), reading and filling memo, a map from node to its text."""
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, Const):
        got = str(e.n) if e.d == 1 else f"{e.n}/{e.d}"
    elif isinstance(e, Var):
        got = e.sym.name
    elif isinstance(e, Func):
        got = f"{e.fn}({_render(e.arg, memo)})"
    elif isinstance(e, (Pow, Mul)):
        got = _render_product(e, memo)
    elif isinstance(e, Add):
        consts = [t for t in e.terms if isinstance(t, Const)]
        rest = [t for t in e.terms if not isinstance(t, Const)]
        pieces = [_piece(_render(t, memo)) for t in rest + consts]
        pieces.sort(key=lambda p: 0 if p[0] >= 0 else 1)   # stable: keeps order
        got = pieces[0][1] if pieces[0][0] >= 0 else "-" + pieces[0][1]
        for sgn, body in pieces[1:]:
            got += (" + " if sgn >= 0 else " - ") + body
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[e] = got
    return got


def field_dict(v) -> dict:
    """A vector field as {axis name: rendered component}, zeros left out;
    the components share one memo of rendered nodes."""
    out, memo = {}, {}
    for s in v.chart.axes:
        e = v.comp(s)
        if e is not ZERO:
            out[s.name] = _render(e, memo)
    return out


def form_dict(g) -> dict:
    """A one-form as {axis name: rendered coefficient}, zeros left out;
    the coefficients share one memo of rendered nodes."""
    out, memo = {}, {}
    coeffs = one_coeffs(g)
    for s in g.chart.axes:
        e = coeffs.get(s)
        if e is not None and e is not ZERO:
            out[s.name] = _render(e, memo)
    return out


def _piece(s: str):
    """A term's text as (sign, text without its leading minus)."""
    if s.startswith("-"):
        return -1, s[1:]
    return 1, s
