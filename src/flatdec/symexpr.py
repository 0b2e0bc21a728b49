"""Exact symbolic expressions with a probabilistic zero test.

Expressions are immutable trees over exact rational constants, named symbols,
n-ary sums and products, integer powers and a small set of elementary
functions.  Every constructor normalizes, so two structurally equal trees
denote the same function; the converse is decided numerically by `is_zero`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "arcsin", "arctan")

# symbol kinds
STATE = "state"
INPUT = "input"
TIME = "time"
AUX = "auxiliary"
ANSATZ = "ansatz"

ZERO_THRESHOLD = Fraction(1, 10**40)
ZERO_DPS = 50


class DomainError(ValueError):
    """Evaluation left the real domain (log of a nonpositive number, etc.)."""


class EvaluationFailed(RuntimeError):
    """is_zero could not collect enough valid sample points."""


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    kind: str = AUX

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.kind!r})"


class Expr:
    """Base node.  `key` is a nested tuple giving a total structural order."""

    __slots__ = ("key", "_hash", "free", "nodes", "has_func")

    def _seal(self, key, free, nodes, has_func):
        self.key = key
        self._hash = hash(key)
        self.free = free
        self.nodes = nodes
        self.has_func = has_func

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self.key == other.key)

    def __ne__(self, other):
        return not self.__eq__(other)

    # arithmetic sugar, used heavily by the geometry layers and tests
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, n):
        return pow_(self, n)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"<Expr {self.key!r}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value
        self._seal(("c", (value.numerator, value.denominator)), frozenset(), 1, False)


class Var(Expr):
    __slots__ = ("sym",)

    def __init__(self, sym: Symbol):
        self.sym = sym
        self._seal(("v", sym.name, sym.kind), frozenset((sym,)), 1, False)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        free = frozenset().union(*(t.free for t in terms))
        self._seal(("a",) + tuple(t.key for t in terms), free,
                   1 + sum(t.nodes for t in terms), any(t.has_func for t in terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        free = frozenset().union(*(f.free for f in factors))
        self._seal(("m",) + tuple(f.key for f in factors), free,
                   1 + sum(f.nodes for f in factors), any(f.has_func for f in factors))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._seal(("p", base.key, exp), base.free, 1 + base.nodes, base.has_func)


class Func(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        self.fn = fn
        self.arg = arg
        self._seal(("f", fn, arg.key), arg.free, 1 + arg.nodes, True)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return const(v)


def const(value) -> Const:
    """Exact rational constant.  Floats are rejected: no inexact literals."""
    if isinstance(value, float):
        raise TypeError("float constants are not exact; pass a Fraction")
    value = Fraction(value)
    if value == 0:
        return ZERO
    if value == 1:
        return ONE
    return Const(value)


def var(sym: Symbol) -> Var:
    return Var(sym)


def _coeff_core(term: Expr):
    """Split a canonical term into (rational coefficient, symbolic core)."""
    if isinstance(term, Const):
        return term.value, ONE
    if isinstance(term, Mul):
        for i, f in enumerate(term.factors):
            if isinstance(f, Const):
                rest = term.factors[:i] + term.factors[i + 1:]
                core = rest[0] if len(rest) == 1 else Mul(rest)
                return f.value, core
        return Fraction(1), term
    return Fraction(1), term


def add(*terms) -> Expr:
    acc: dict = {}   # core key -> [coeff, core]
    csum = Fraction(0)
    stack = list(terms)
    for t in stack:
        if isinstance(t, Add):
            stack.extend(t.terms)  # appended while iterating: flattens nested sums
            continue
        if isinstance(t, Const):
            csum += t.value
            continue
        coeff, core = _coeff_core(t)
        if core is ONE:
            csum += coeff
            continue
        slot = acc.get(core.key)
        if slot is None:
            acc[core.key] = [coeff, core]
        else:
            slot[0] += coeff
    out = []
    for coeff, core in acc.values():
        if coeff == 0:
            continue
        if coeff == 1:
            out.append(core)
        elif isinstance(core, Mul):
            out.append(Mul(tuple(sorted((Const(coeff),) + core.factors, key=lambda e: e.key))))
        else:
            out.append(Mul(tuple(sorted((Const(coeff), core), key=lambda e: e.key))))
    if csum != 0:
        out.append(const(csum))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Add(tuple(out))


def mul(*factors) -> Expr:
    coeff = Fraction(1)
    powers: dict = {}  # base key -> [base, int exponent]
    stack = list(factors)
    for f in stack:
        if isinstance(f, Mul):
            stack.extend(f.factors)
            continue
        if isinstance(f, Const):
            if f.value == 0:
                return ZERO
            coeff *= f.value
            continue
        if isinstance(f, Pow):
            base, e = f.base, f.exp
        else:
            base, e = f, 1
        slot = powers.get(base.key)
        if slot is None:
            powers[base.key] = [base, e]
        else:
            slot[1] += e
    out = []
    for base, e in powers.values():
        if e == 0:
            continue
        p = pow_(base, e)
        if isinstance(p, Const):
            coeff *= p.value
            if coeff == 0:
                return ZERO
        else:
            out.append(p)
    if not out:
        return const(coeff)
    if coeff == 0:
        return ZERO
    if coeff != 1:
        out.append(Const(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Mul(tuple(out))


def pow_(base: Expr, exp: int) -> Expr:
    if not isinstance(exp, int):
        if isinstance(exp, Const) and exp.value.denominator == 1:
            exp = exp.value.numerator
        elif isinstance(exp, Fraction) and exp.denominator == 1:
            exp = int(exp)
        else:
            raise TypeError("power exponents must be integers")
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exp < 0:
            raise DomainError("zero raised to a negative power")
        return const(base.value ** exp)
    if isinstance(base, Pow):
        return pow_(base.base, base.exp * exp)
    if isinstance(base, Mul):
        return mul(*(pow_(f, exp) for f in base.factors))
    return Pow(base, exp)


def div(num, den) -> Expr:
    num, den = _coerce(num), _coerce(den)
    return mul(num, pow_(den, -1))


def neg(e) -> Expr:
    return mul(MINUS_ONE, _coerce(e))


def _sqrt_const(v: Fraction):
    if v < 0:
        return None
    pn, pd = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if pn * pn == v.numerator and pd * pd == v.denominator:
        return Fraction(pn, pd)
    return None


_FOLDS = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("tan", Fraction(0)): Fraction(0),
    ("exp", Fraction(0)): Fraction(1),
    ("ln", Fraction(1)): Fraction(0),
    ("arcsin", Fraction(0)): Fraction(0),
    ("arctan", Fraction(0)): Fraction(0),
}


def func(fn: str, arg) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        folded = _FOLDS.get((fn, arg.value))
        if folded is not None:
            return const(folded)
        if fn == "sqrt":
            r = _sqrt_const(arg.value)
            if r is not None:
                return const(r)
    # exp/ln cancellations; valid wherever the unfolded expression is defined
    if fn == "exp":
        if isinstance(arg, Func) and arg.fn == "ln":
            return arg.arg
        if isinstance(arg, Mul) and len(arg.factors) == 2:
            a, b = arg.factors
            if isinstance(b, Const):
                a, b = b, a
            if (isinstance(a, Const) and a.value.denominator == 1
                    and isinstance(b, Func) and b.fn == "ln"):
                return pow_(b.arg, a.value.numerator)
    if fn == "ln" and isinstance(arg, Func) and arg.fn == "exp":
        return arg.arg
    return Func(fn, arg)


def normalize(e: Expr) -> Expr:
    """Rebuild through the normalizing constructors (idempotent)."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Add):
        return add(*(normalize(t) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(normalize(f) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(normalize(e.base), e.exp)
    if isinstance(e, Func):
        return func(e.fn, normalize(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def diff(e: Expr, sym: Symbol) -> Expr:
    if sym not in e.free:
        return ZERO
    if isinstance(e, Var):
        return ONE if e.sym == sym else ZERO
    if isinstance(e, Add):
        return add(*(diff(t, sym) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            df = diff(f, sym)
            if df is ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(df, *rest))
        return add(*parts)
    if isinstance(e, Pow):
        return mul(const(e.exp), pow_(e.base, e.exp - 1), diff(e.base, sym))
    if isinstance(e, Func):
        da = diff(e.arg, sym)
        a = e.arg
        if e.fn == "sin":
            return mul(func("cos", a), da)
        if e.fn == "cos":
            return mul(MINUS_ONE, func("sin", a), da)
        if e.fn == "tan":
            return mul(add(ONE, pow_(func("tan", a), 2)), da)
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "ln":
            return mul(pow_(a, -1), da)
        if e.fn == "sqrt":
            return mul(const(Fraction(1, 2)), pow_(e, -1), da)
        if e.fn == "arcsin":
            return mul(pow_(func("sqrt", add(ONE, neg(pow_(a, 2)))), -1), da)
        if e.fn == "arctan":
            return mul(pow_(add(ONE, pow_(a, 2)), -1), da)
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, bindings: dict) -> Expr:
    """Simultaneous substitution of symbols by expressions, then normalize."""
    if not bindings or not (e.free & set(bindings)):
        return e
    memo: dict = {}

    def rec(x: Expr) -> Expr:
        if not (x.free & keys):
            return x
        got = memo.get(id(x))
        if got is not None:
            return got
        if isinstance(x, Var):
            out = bindings.get(x.sym, x)
        elif isinstance(x, Add):
            out = add(*(rec(t) for t in x.terms))
        elif isinstance(x, Mul):
            out = mul(*(rec(f) for f in x.factors))
        elif isinstance(x, Pow):
            out = pow_(rec(x.base), x.exp)
        else:
            out = func(x.fn, rec(x.arg))
        memo[id(x)] = out
        return out

    keys = set(bindings)
    return rec(e)


# --- numeric evaluation ----------------------------------------------------

class _NotRational(Exception):
    pass


def _eval_fraction(e: Expr, pt: dict) -> Fraction:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return pt[e.sym]
    if isinstance(e, Add):
        return sum((_eval_fraction(t, pt) for t in e.terms), Fraction(0))
    if isinstance(e, Mul):
        out = Fraction(1)
        for f in e.factors:
            out *= _eval_fraction(f, pt)
        return out
    if isinstance(e, Pow):
        b = _eval_fraction(e.base, pt)
        if b == 0 and e.exp < 0:
            raise DomainError("pole: zero denominator at sample point")
        return b ** e.exp
    raise _NotRational


def _eval_mp(e: Expr, pt: dict):
    if isinstance(e, Const):
        return mpmath.mpf(e.value.numerator) / e.value.denominator
    if isinstance(e, Var):
        return pt[e.sym]
    if isinstance(e, Add):
        return mpmath.fsum(_eval_mp(t, pt) for t in e.terms)
    if isinstance(e, Mul):
        out = mpmath.mpf(1)
        for f in e.factors:
            out *= _eval_mp(f, pt)
        return out
    if isinstance(e, Pow):
        b = _eval_mp(e.base, pt)
        if b == 0 and e.exp < 0:
            raise DomainError("pole: zero denominator at sample point")
        return b ** e.exp
    if isinstance(e, Func):
        a = _eval_mp(e.arg, pt)
        if e.fn == "sin":
            return mpmath.sin(a)
        if e.fn == "cos":
            return mpmath.cos(a)
        if e.fn == "tan":
            return mpmath.tan(a)
        if e.fn == "exp":
            return mpmath.exp(a)
        if e.fn == "ln":
            if a <= 0:
                raise DomainError("ln of a nonpositive value")
            return mpmath.log(a)
        if e.fn == "sqrt":
            if a < 0:
                raise DomainError("sqrt of a negative value")
            return mpmath.sqrt(a)
        if e.fn == "arcsin":
            if abs(a) > 1:
                raise DomainError("arcsin argument outside [-1, 1]")
            return mpmath.asin(a)
        if e.fn == "arctan":
            return mpmath.atan(a)
    raise TypeError(f"not an Expr: {e!r}")


def eval_expr(e: Expr, point: dict, dps: int = ZERO_DPS):
    """Evaluate at a point (Symbol -> number) in dps-digit arithmetic."""
    missing = e.free - set(point)
    if missing:
        raise ValueError(f"unbound symbols: {sorted(s.name for s in missing)}")
    with mpmath.workdps(dps):
        pt = {}
        for s, v in point.items():
            if isinstance(v, Fraction):
                pt[s] = mpmath.mpf(v.numerator) / v.denominator
            else:
                pt[s] = mpmath.mpf(v)
        return _eval_mp(e, pt)


def structural_key(e: Expr) -> str:
    return repr(e.key)


_zero_cache: dict = {}


def _sample_fraction(rng: random.Random) -> Fraction:
    # rationals in [1/2, 2] with coarse denominators: keeps tan() samples
    # safely away from its poles at 50-digit precision
    q = rng.randint(8, 64)
    p = rng.randint((q + 1) // 2, 2 * q)
    return Fraction(p, q)


def is_zero(e: Expr, budget: int = 20, seed: int = 0) -> bool:
    """Probabilistic zero test: True iff |e| < 1e-40 at `budget` sample points.

    Sample points are rationals in [1/2, 2]; Func-free expressions are
    evaluated in exact rational arithmetic, everything else at >=50 digits.
    Domain errors trigger a resample; more than 10*budget failed attempts
    raise EvaluationFailed.
    """
    if isinstance(e, Const):
        return e.value == 0
    if budget <= 0:
        # no samples, no evidence: only structural zeros count
        return False
    key = (structural_key(e), budget, seed)
    got = _zero_cache.get(key)
    if got is not None:
        return got
    digest = hashlib.sha256(key[0].encode()).digest()
    rng = random.Random(seed ^ int.from_bytes(digest[:8], "big"))
    syms = sorted(e.free, key=lambda s: (s.name, s.kind))
    rational = not e.has_func
    successes = 0
    attempts = 0
    result = None
    max_attempts = max(10 * budget, 1)
    while successes < budget:
        if attempts >= max_attempts:
            raise EvaluationFailed(
                f"no valid sample after {attempts} attempts for zero test")
        attempts += 1
        pt = {s: _sample_fraction(rng) for s in syms}
        try:
            if rational:
                v = _eval_fraction(e, pt)
                if v != 0:
                    result = False
                    break
            else:
                with mpmath.workdps(ZERO_DPS):
                    mpt = {s: mpmath.mpf(f.numerator) / f.denominator
                           for s, f in pt.items()}
                    v = _eval_mp(e, mpt)
                    if abs(v) >= mpmath.mpf(10) ** -40:
                        result = False
                        break
        except DomainError:
            continue
        successes += 1
    if result is None:
        result = True
    _zero_cache[key] = result
    return result


def compile_expr(e: Expr, args: list, module=math):
    """Compile to a fast float-valued callable of the given symbols.

    The callable takes a sequence `_a` indexed like `args`; functions come
    from `module`.  With `math` it maps floats to a float and raises
    ValueError/OverflowError on domain violations.  With `numpy` each
    `_a[i]` may be an array of samples, the result is an array of the same
    shape (a scalar for a constant expression), and domain violations give
    nan or inf instead of raising.
    """
    names = {}
    for i, s in enumerate(args):
        names[s] = f"_a[{i}]"

    def fn_name(fn: str) -> str:
        name = "log" if fn == "ln" else fn
        # math spells the inverse functions asin/atan, numpy arcsin/arctan
        return name if hasattr(module, name) else "a" + name[3:]

    def emit(x: Expr) -> str:
        if isinstance(x, Const):
            if x.value.denominator == 1:
                return f"({x.value.numerator})"
            return f"({x.value.numerator}/{x.value.denominator})"
        if isinstance(x, Var):
            return names[x.sym]
        if isinstance(x, Add):
            return "(" + "+".join(emit(t) for t in x.terms) + ")"
        if isinstance(x, Mul):
            return "(" + "*".join(emit(f) for f in x.factors) + ")"
        if isinstance(x, Pow):
            return f"({emit(x.base)})**({x.exp})"
        if isinstance(x, Func):
            return f"_m.{fn_name(x.fn)}({emit(x.arg)})"
        raise TypeError(f"not an Expr: {x!r}")

    missing = e.free - set(args)
    if missing:
        raise ValueError(f"unbound symbols: {sorted(s.name for s in missing)}")
    src = f"lambda _a: {emit(e)}"
    return eval(src, {"_m": module})  # noqa: S307  (source built locally above)


def clear_zero_cache() -> None:
    _zero_cache.clear()
