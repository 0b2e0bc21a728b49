"""Exact symbolic expressions with a probabilistic zero test.

Expressions are immutable trees over exact rational constants, named symbols,
n-ary sums and products, integer powers and a small set of elementary
functions.  Every constructor normalizes, so two structurally equal trees
denote the same function; the converse is decided numerically by `is_zero`.
Rational coefficients are reduced integer pairs (numerator, denominator > 0):
the constructors fold them in int arithmetic and build no Fraction.
"""

from __future__ import annotations

import functools
import hashlib
import math
import weakref
from fractions import Fraction
from numbers import Rational

import mpmath

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "arcsin", "arctan")

# symbol kinds
STATE = "state"
INPUT = "input"
TIME = "time"
AUX = "auxiliary"
JET = "jet"

ZERO_SCALE = 10**40   # a 50-digit value under 1/ZERO_SCALE of its terms is zero
ZERO_DPS = 50
PRIME = 2**61 - 1   # = 3 (mod 4); the zero test's finite field is GF(PRIME)


class DomainError(ValueError):
    """Evaluation left the real domain (log of a nonpositive number, etc.)."""


class EvaluationFailed(RuntimeError):
    """is_zero could not collect enough valid sample points."""


class Symbol:
    """A named coordinate.  Symbols are interned like the nodes:
    `Symbol(name, kind)` returns the one live symbol with that name and
    kind, so equality is identity and the hash is that of (name, kind)."""

    __slots__ = ("name", "kind", "_hash", "__weakref__")

    def __new__(cls, name: str, kind: str = AUX):
        ident = (name, kind)
        ref = _SYMBOLS.get(ident)
        sym = None if ref is None else ref()
        if sym is None:
            sym = object.__new__(cls)
            sym.name = name
            sym.kind = kind
            sym._hash = hash(ident)
            _SYMBOLS[ident] = weakref.KeyedRef(sym, _drop_symbol, ident)
        return sym

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Symbol({self.name!r}, {self.kind!r})"

    def __reduce__(self):
        # a copied or unpickled symbol is the interned one
        return Symbol, (self.name, self.kind)


def _drop(table: dict, ref: weakref.KeyedRef) -> None:
    """Weak-table finalizer: delete ref's entry while it is still ref."""
    if table.get(ref.key) is ref:
        del table[ref.key]


_SYMBOLS: dict = {}   # (name, kind) -> weak ref to the live symbol
_drop_symbol = functools.partial(_drop, _SYMBOLS)


class Expr:
    """Base node.  Nodes are interned: `Cls(*args)` returns the one live node
    built from those arguments, so structurally equal nodes are one object,
    equality is identity, and an expression is a DAG that every walk visits
    once per distinct node.  `key` is a nested tuple giving a total
    structural order.  `is_zero` reads three more: `needs_mp` (a constant
    that PRIME divides inside, or a function other than sin, cos, tan and
    exp of a Func-free non-constant argument), `fargs` (the pairs ("tau", a)
    for each sin a, cos a and tan a inside, and ("exp", b) for each exp b:
    the residues that stand for them in GF(PRIME)) and `_memo` (values at
    sample points, one per distinct node, and whether fargs is proven
    independent, see `evaluable_mod_p`)."""

    __slots__ = ("key", "free", "nodes", "needs_mp", "fargs", "_memo",
                 "__weakref__")

    def __new__(cls, *args):
        # children are interned already, so the table compares them by identity
        ident = (cls, *args)
        ref = _NODES.get(ident)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            node._memo = None
            node._build(*args)
            _NODES[ident] = weakref.KeyedRef(node, _drop_node, ident)
        return node

    def _seal(self, key, free, nodes, needs_mp, fargs=frozenset()):
        self.key = key
        self.free = free
        self.nodes = nodes
        self.needs_mp = needs_mp
        self.fargs = fargs

    def _seal_kids(self, tag, kids):
        """_seal of a sum or product: key (tag, *the children's keys)."""
        key, free, nodes, needs_mp = [tag], frozenset(), 1, False
        fargs = frozenset()
        for k in kids:
            key.append(k.key)
            free |= k.free
            nodes += k.nodes
            needs_mp = needs_mp or k.needs_mp
            if k.fargs:
                fargs |= k.fargs
        self._seal(tuple(key), free, nodes, needs_mp, fargs)

    def __repr__(self):
        return f"<Expr {self.key!r}>"


_NODES: dict = {}   # (class, *arguments) -> weak ref to the live node
_drop_node = functools.partial(_drop, _NODES)


class Const(Expr):
    """`Const(n, d)` is the rational n/d given as its reduced integer pair:
    gcd(n, d) = 1 and d > 0 (`const` reduces).  The pair is also its intern
    key; no Fraction is kept."""

    __slots__ = ("n", "d")

    def _build(self, n, d):
        self.n = n
        self.d = d
        self._seal(("c", (n, d)), frozenset(), 1,
                   (n != 0 and n % PRIME == 0) or d % PRIME == 0)


class Var(Expr):
    __slots__ = ("sym",)

    def _build(self, sym: Symbol):
        self.sym = sym
        self._seal(("v", sym.name, sym.kind), frozenset((sym,)), 1, False)


class Add(Expr):
    __slots__ = ("terms",)

    def _build(self, terms: tuple):
        self.terms = terms
        self._seal_kids("a", terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def _build(self, factors: tuple):
        self.factors = factors
        self._seal_kids("m", factors)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def _build(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._seal(("p", base.key, exp), base.free, 1 + base.nodes,
                   base.needs_mp, base.fargs)


class Func(Expr):
    __slots__ = ("fn", "arg")

    def _build(self, fn: str, arg: Expr):
        self.fn = fn
        self.arg = arg
        key = ("f", fn, arg.key)
        tag = _RESIDUES.get(fn)
        if tag is None or arg.needs_mp or arg.fargs or isinstance(arg, Const):
            self._seal(key, arg.free, 1 + arg.nodes, True)
        else:
            self._seal(key, arg.free, 1 + arg.nodes, False,
                       frozenset(((tag, arg),)))


# the residue that stands for f(a) in GF(PRIME): tau_a = tan(a/2) or E_a = exp a
_RESIDUES = {"sin": "tau", "cos": "tau", "tan": "tau", "exp": "exp"}


def _const(n: int, d: int) -> Const:
    """The constant n/d, d != 0, reduced by one gcd."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return Const(n // g, d // g)


ZERO = _const(0, 1)
ONE = _const(1, 1)
MINUS_ONE = _const(-1, 1)


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return const(v)


def const(value) -> Const:
    """Exact rational constant.  Floats are rejected: no inexact literals."""
    if type(value) is int:
        return Const(value, 1)
    if isinstance(value, float):
        raise TypeError("float constants are not exact; pass a Fraction")
    if not isinstance(value, Rational):
        value = Fraction(value)
    return _const(value.numerator, value.denominator)


def var(sym: Symbol) -> Var:
    return Var(sym)


def _coeff_core(term: Expr):
    """Split a canonical non-constant term into (n, d, core): its rational
    coefficient n/d and its symbolic core."""
    if isinstance(term, Mul):
        for i, f in enumerate(term.factors):
            if isinstance(f, Const):
                rest = term.factors[:i] + term.factors[i + 1:]
                return f.n, f.d, rest[0] if len(rest) == 1 else Mul(rest)
    return 1, 1, term


def add(*terms) -> Expr:
    acc: dict = {}   # core -> [n, d], its coefficient n/d
    cn, cd = 0, 1    # the constant term cn/cd
    stack = list(terms)
    for t in stack:
        if isinstance(t, Add):
            stack.extend(t.terms)  # appended while iterating: flattens nested sums
            continue
        if isinstance(t, Const):
            if t.d == cd:
                cn += t.n
            else:
                cn, cd = cn * t.d + t.n * cd, cd * t.d
            continue
        n, d, core = _coeff_core(t)
        c = acc.get(core)
        if c is None:
            acc[core] = [n, d]
        elif c[1] == d:
            c[0] += n
        else:
            c[0], c[1] = c[0] * d + n * c[1], c[1] * d
    out = []
    for core, (n, d) in acc.items():
        if n == 0:
            continue
        if n == d:
            out.append(core)
        elif isinstance(core, Mul):
            out.append(Mul(tuple(sorted((_const(n, d),) + core.factors, key=lambda e: e.key))))
        else:
            out.append(Mul(tuple(sorted((_const(n, d), core), key=lambda e: e.key))))
    if cn != 0:
        out.append(_const(cn, cd))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Add(tuple(out))


def mul(*factors) -> Expr:
    cn, cd = 1, 1    # the coefficient cn/cd
    powers: dict = {}  # base -> int exponent
    stack = list(factors)
    for f in stack:
        if isinstance(f, Mul):
            stack.extend(f.factors)
            continue
        if isinstance(f, Const):
            if f.n == 0:
                return ZERO
            cn *= f.n
            cd *= f.d
            continue
        if isinstance(f, Pow):
            base, e = f.base, f.exp
        else:
            base, e = f, 1
        powers[base] = powers.get(base, 0) + e
    # a base is a sum, a symbol or a function, so no power of it is a constant
    out = [pow_(base, e) for base, e in powers.items() if e != 0]
    if not out:
        return _const(cn, cd)
    if cn != cd:
        out.append(_const(cn, cd))
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Mul(tuple(out))


def pow_(base: Expr, exp: int) -> Expr:
    if not isinstance(exp, int):
        if isinstance(exp, Const) and exp.d == 1:
            exp = exp.n
        elif isinstance(exp, Fraction) and exp.denominator == 1:
            exp = int(exp)
        else:
            raise TypeError("power exponents must be integers")
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Const):
        if exp > 0:
            return _const(base.n ** exp, base.d ** exp)
        if base.n == 0:
            raise DomainError("zero raised to a negative power")
        return _const(base.d ** -exp, base.n ** -exp)
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


def _sqrt_const(c: Const):
    if c.n < 0:
        return None
    pn, pd = math.isqrt(c.n), math.isqrt(c.d)
    if pn * pn == c.n and pd * pd == c.d:
        return _const(pn, pd)
    return None


_FOLDS = {   # (function, n, d) -> its value at the constant n/d
    ("sin", 0, 1): ZERO,
    ("cos", 0, 1): ONE,
    ("tan", 0, 1): ZERO,
    ("exp", 0, 1): ONE,
    ("ln", 1, 1): ZERO,
    ("arcsin", 0, 1): ZERO,
    ("arctan", 0, 1): ZERO,
}


def func(fn: str, arg) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        folded = _FOLDS.get((fn, arg.n, arg.d))
        if folded is not None:
            return folded
        if fn == "sqrt":
            r = _sqrt_const(arg)
            if r is not None:
                return r
    # exp/ln cancellations; valid wherever the unfolded expression is defined
    if fn == "exp":
        if isinstance(arg, Func) and arg.fn == "ln":
            return arg.arg
        if isinstance(arg, Mul) and len(arg.factors) == 2:
            a, b = arg.factors
            if isinstance(b, Const):
                a, b = b, a
            if (isinstance(a, Const) and a.d == 1
                    and isinstance(b, Func) and b.fn == "ln"):
                return pow_(b.arg, a.n)
    if fn == "ln" and isinstance(arg, Func) and arg.fn == "exp":
        return arg.arg
    return Func(fn, arg)


# f'(a) for e = f(a), as the factors that multiply a' in diff
_OUTER = {
    "sin": lambda e: (func("cos", e.arg),),
    "cos": lambda e: (MINUS_ONE, func("sin", e.arg)),
    "tan": lambda e: (add(ONE, pow_(func("tan", e.arg), 2)),),
    "exp": lambda e: (e,),
    "ln": lambda e: (pow_(e.arg, -1),),
    "sqrt": lambda e: (_const(1, 2), pow_(e, -1)),
    "arcsin": lambda e: (pow_(func("sqrt", add(ONE, neg(pow_(e.arg, 2)))), -1),),
    "arctan": lambda e: (pow_(add(ONE, pow_(e.arg, 2)), -1),),
}


def diff(e: Expr, sym: Symbol) -> Expr:
    """Derivative of e in sym, normalized.  Memoized on the node within one
    call, as `substitute` is, so each distinct subexpression is
    differentiated once."""
    memo: dict = {}

    def rec(x: Expr) -> Expr:
        if sym not in x.free:
            return ZERO
        got = memo.get(id(x))
        if got is not None:
            return got
        if isinstance(x, Var):
            out = ONE
        elif isinstance(x, Add):
            out = add(*(rec(t) for t in x.terms))
        elif isinstance(x, Mul):
            parts = []
            for i, f in enumerate(x.factors):
                df = rec(f)
                if df is not ZERO:
                    parts.append(mul(df, *x.factors[:i], *x.factors[i + 1:]))
            out = add(*parts)
        elif isinstance(x, Pow):
            out = mul(const(x.exp), pow_(x.base, x.exp - 1), rec(x.base))
        else:
            out = mul(*_OUTER[x.fn](x), rec(x.arg))
        memo[id(x)] = out
        return out

    return rec(e)


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

def _children(e: Expr) -> tuple:
    if isinstance(e, (Add, Mul)):
        return e.terms if isinstance(e, Add) else e.factors
    if isinstance(e, (Pow, Func)):
        return (e.base,) if isinstance(e, Pow) else (e.arg,)
    return ()


_MP_NAMES = {"ln": "log", "arcsin": "asin", "arctan": "atan"}


def _mp_node(e: Expr, args):
    """Value of a non-Var node from its children's values `args`, in mpmath."""
    if isinstance(e, Const):
        return mpmath.mpf(e.n) / e.d
    if isinstance(e, Add):
        return mpmath.fsum(args)
    if isinstance(e, Mul):
        return mpmath.fprod(args)
    if isinstance(e, Pow):
        b = args[0]
        if b == 0 and e.exp < 0:
            raise DomainError("pole: zero denominator at sample point")
        return b ** e.exp
    if isinstance(e, Func):
        a = args[0]
        if ((e.fn == "ln" and a <= 0) or (e.fn == "sqrt" and a < 0)
                or (e.fn == "arcsin" and abs(a) > 1)):
            raise DomainError(f"{e.fn} argument outside its real domain")
        return getattr(mpmath, _MP_NAMES.get(e.fn, e.fn))(a)
    raise TypeError(f"not an Expr: {e!r}")


def structural_key(e: Expr) -> str:
    return repr(e.key)


def _modp_node(e: Expr, args):
    """Value in GF(PRIME) of a non-Var node from its children's; None at a pole."""
    if isinstance(e, Const):
        return e.n * pow(e.d, -1, PRIME) % PRIME
    if isinstance(e, Add):
        return sum(args) % PRIME
    if isinstance(e, Mul):
        return math.prod(args) % PRIME
    return None if args[0] == 0 and e.exp < 0 else pow(args[0], e.exp, PRIME)


def _coordinate(sym: Symbol, seed: int, k: int, modp: bool):
    """The value of `sym` at sample point k: a pure function of the arguments."""
    h = int.from_bytes(hashlib.sha256(
        repr((seed, k, sym.name, sym.kind)).encode()).digest(), "big")
    if modp:
        return 1 + h % (PRIME - 1)
    # rationals in [1/2, 2] with coarse denominators: keeps tan() samples
    # safely away from its poles at 50-digit precision
    q = 8 + (h >> 64) % 57
    lo = (q + 1) // 2
    return mpmath.mpf(lo + (h >> 128) % (2 * q - lo + 1)) / q


def _residue(e: Func, k: int, seed: int) -> int:
    """The residue standing for e = f(a) at sample point k, tau_a for sin,
    cos and tan, E_a for exp: like `_coordinate`, a pure function of
    (seed, k, the residue's tag, a's structural key), uniform on the
    nonzero residues."""
    h = int.from_bytes(hashlib.sha256(repr(
        (seed, k, _RESIDUES[e.fn], e.arg.key)).encode()).digest(), "big")
    return 1 + h % (PRIME - 1)


def _trig(fn: str, t: int):
    """sin a, cos a or tan a in GF(PRIME) from t = tau_a = tan(a/2), None at
    a pole of tan; 1 + t^2 never vanishes, as PRIME = 3 (mod 4)."""
    if fn == "tan":
        d = (1 - t * t) % PRIME
        return None if d == 0 else 2 * t * pow(d, -1, PRIME) % PRIME
    num = 2 * t if fn == "sin" else 1 - t * t
    return num * pow(1 + t * t, -1, PRIME) % PRIME


def _mp_scale(e: Expr, v, args, scales):
    """Magnitude of the terms behind the 50-digit value v of a non-Var node:
    sums and products of the children's magnitudes, carried through powers
    by relative error and through functions by the larger of value and
    argument magnitude.  Rounding leaves an error near 1e-50 times it."""
    if isinstance(e, Add):
        return mpmath.fsum(scales)
    if isinstance(e, Mul):
        return mpmath.fprod(scales)
    if isinstance(e, Pow):
        if e.exp > 0:
            return scales[0] ** e.exp
        return abs(v) * scales[0] / abs(args[0])
    if isinstance(e, Func):
        return max(abs(v), scales[0])
    return abs(v)


def _at(e: Expr, k: int, seed: int, modp: bool):
    """Value of e at sample point k, None where e is undefined: a residue
    mod PRIME, or a 50-digit (value, magnitude) pair (see _mp_scale).  Each
    node memoizes its values per (seed, branch), and equal subexpressions
    are one node, so each is evaluated once per point."""
    if isinstance(e, Const):
        if modp:
            return _modp_node(e, ())
        v = _mp_node(e, ())
        return v, abs(v)
    if e._memo is None:
        e._memo = {}
    vals = e._memo.setdefault((seed, modp), [])
    while len(vals) <= k:
        i = len(vals)
        if isinstance(e, Var):
            v = _coordinate(e.sym, seed, i, modp)
            vals.append(v if modp else (v, abs(v)))
            continue
        args = [_at(c, i, seed, modp) for c in _children(e)]
        if None in args:
            vals.append(None)
        elif modp and isinstance(e, Func):
            # f(a) reads a's residue; a pole of a is still a pole of f(a)
            r = _residue(e, i, seed)
            vals.append(r if e.fn == "exp" else _trig(e.fn, r))
        elif modp:
            vals.append(_modp_node(e, args))
        else:
            vs = [a for a, _ in args]
            try:
                v = _mp_node(e, vs)
            except DomainError:
                vals.append(None)
            else:
                vals.append((v, _mp_scale(e, v, vs, [m for _, m in args])))
    return vals[k]


def evaluable_mod_p(exprs, seed: int) -> bool:
    """Whether the expressions, together, have values in GF(PRIME): none
    needs the 50-digit branch (`needs_mp`), and among all their `fargs`
    the tau arguments, and apart from them the exp arguments, are proven
    linearly independent over Q modulo constants (`_independent`).  Then
    sin a = 2t/(1 + t^2), cos a = (1 - t^2)/(1 + t^2), tan a = 2t/(1 - t^2)
    with t = tau_a, and exp b = E_b, the residues being independent
    transcendentals (Ax 1971, "On Schanuel's conjectures"), embed the
    functions the expressions denote into the rational functions of their
    symbols and residues, derivatives included: their values at a point
    are those rational functions' values, and zero tests and ranks over
    GF(PRIME) keep the Schwartz-Zippel bound.  The verdict is memoized per
    seed on each expression it is about, and a proof on every expression,
    since it holds for any subset of the arguments."""
    exprs = list(exprs)
    if any(e.needs_mp for e in exprs):
        return False
    fargs = frozenset().union(*(e.fargs for e in exprs))
    if not fargs:
        return True
    key = (seed, "independent")
    for e in exprs:
        if e.fargs == fargs and e._memo and key in e._memo:
            return e._memo[key]
    ok = all(_independent([a for t, a in fargs if t == tag], seed)
             for tag in ("tau", "exp"))
    for e in exprs:
        if e.fargs and (ok or e.fargs == fargs):
            if e._memo is None:
                e._memo = {}
            e._memo[key] = ok
    return ok


def _independent(args, seed: int) -> bool:
    """Whether the Func-free args are proven linearly independent over Q
    modulo constants: their gradients, stacked over the sample points 0 to
    len(args) where all are defined, have full row rank over GF(PRIME).  A
    relation sum q_i a_i = const, the q_i coprime integers, makes the rows
    dependent at every point, so the rank is a proof.  Distinct symbols
    need none."""
    from .linalg import row_echelon_mod_p   # linalg imports this module
    if all(isinstance(a, Var) for a in args):
        return True
    support = frozenset().union(*(a.free for a in args))
    fields = [{s: 1} for s in support]
    rows = [[] for _ in args]
    for k in range(len(args) + 1):
        if all(_at(a, k, seed, True) is not None for a in args):
            memo = {}
            for row, a in zip(rows, args):
                row += _forward(a, k, seed, fields, memo, support)
    return len(row_echelon_mod_p(rows)[1]) == len(args)


def _on_residues(e: Expr, seed: int) -> bool:
    """Whether e takes the GF(PRIME) branch: evaluable_mod_p of e alone."""
    return not e.needs_mp and (not e.fargs or evaluable_mod_p((e,), seed))


def value_mod_p(e: Expr, k: int, seed: int):
    """Value in GF(PRIME) of e at sample point k of the seed's shared point
    stream, None at a pole: the residues `is_zero` tests, from the same
    per-node memo, with sin, cos, tan and exp read from their arguments'
    residues.  e must have such values (`evaluable_mod_p`); ValueError
    otherwise."""
    if not _on_residues(e, seed):
        raise ValueError("expression has no value mod PRIME: " + repr(e.key))
    return _at(e, k, seed, True)


def derivatives_mod_p(e: Expr, k: int, seed: int, fields, memo: dict):
    """(v_1(e), ..., v_K(e)) in GF(PRIME) at sample point k, None where
    `value_mod_p(e, k, seed)` is None, for fields[l] mapping a symbol to
    the residue of field l's component there.  Forward mode over the DAG
    from the nodes' memoized values; a product takes the product rule with
    the other factors' values, so a factor vanishing at the point needs no
    division, and a function the chain rule with sin' = cos, cos' = -sin,
    tan' = 1 + tan^2 and exp' = exp, read from the same residues.  Exact
    over the field: wherever both are defined it is the symbolic
    sum_s v_l^s de/ds at the point.  memo, per node, serves one point and
    one list of fields."""
    if value_mod_p(e, k, seed) is None:
        return None
    return _forward(e, k, seed, fields, memo, frozenset().union(*fields))


def _forward(x: Expr, k: int, seed: int, fields, memo: dict, support):
    """derivatives_mod_p of a node defined at point k; support holds the
    symbols some field moves."""
    if x.free.isdisjoint(support):
        return [0] * len(fields)
    out = memo.get(x)
    if out is not None:
        return out
    if isinstance(x, Var):
        out = [f.get(x.sym, 0) for f in fields]
    elif isinstance(x, Add):
        out = [sum(col) % PRIME for col in zip(
            *(_forward(t, k, seed, fields, memo, support) for t in x.terms))]
    elif isinstance(x, Mul):
        vals = [_at(f, k, seed, True) for f in x.factors]
        out = [0] * len(fields)
        for i, f in enumerate(x.factors):
            if not f.free.isdisjoint(support):
                o = math.prod(vals[:i] + vals[i + 1:]) % PRIME
                out = [(a + o * b) % PRIME for a, b in
                       zip(out, _forward(f, k, seed, fields, memo, support))]
    else:
        # the chain rule, with sin' = cos, cos' = -sin, tan' = 1 + tan^2
        # and exp' = exp read from the residues
        if isinstance(x, Pow):
            s = x.exp * pow(_at(x.base, k, seed, True), x.exp - 1, PRIME)
        elif x.fn in ("sin", "cos"):
            t = _residue(x, k, seed)
            s = _trig("cos", t) if x.fn == "sin" else -_trig("sin", t)
        else:
            v = _at(x, k, seed, True)
            s = v if x.fn == "exp" else 1 + v * v
        out = [s * b % PRIME for b in
               _forward(_children(x)[0], k, seed, fields, memo, support)]
    memo[x] = out
    return out


def _vanishes(e: Expr, budget: int, seed: int, modp: bool) -> bool:
    found = 0
    for k in range(10 * budget):
        v = _at(e, k, seed, modp)
        if v is None:
            continue
        if modp:
            if v:
                return False
        # |e| >= 1e-40 * max(1, magnitude of its terms)
        elif abs(v[0]) * ZERO_SCALE >= max(1, v[1]):
            return False
        found += 1
        if found == budget:
            return True
    raise EvaluationFailed(f"no valid sample after {10 * budget} attempts for zero test")


def is_zero(e: Expr, budget: int, seed: int) -> bool:
    """Probabilistic zero test: True iff e vanishes at `budget` sample points.

    All expressions share the points 0, 1, 2, ... of a seed: a symbol's
    value at point k depends only on (seed, k, name, kind).  Points where e
    has a pole or leaves its domain are skipped; 10*budget points without
    `budget` valid ones raise EvaluationFailed.  Where `evaluable_mod_p`
    holds for e, e is evaluated in GF(p), p = PRIME = 2^61 - 1, with its
    symbols and the residues tau_a and E_b that stand for sin a, cos a,
    tan a and exp b uniform on p's nonzero residues, so a zero e is never
    called nonzero, and a nonzero e whose numerator has degree d in the
    symbols and residues vanishes at a point with probability at most
    d/(p - 1) (Schwartz-Zippel): it is called zero with probability at
    most (d/(p - 1))**budget.  Otherwise (ln, sqrt, arcsin, arctan, nested
    functions, functions of constants, a constant that p divides, or
    arguments not proven independent) e is evaluated at 50 digits at
    rationals in [1/2, 2] and vanishes where |e| < 1e-40 * max(1, m), m the
    magnitude of the terms behind it (sums of absolute values at every sum
    node, see _mp_scale), so a zero built from large terms stays zero; that
    test is heuristic.
    """
    if budget < 1:
        raise ValueError("the zero test needs a budget of at least one point")
    if isinstance(e, Const):
        return e.n == 0
    if _on_residues(e, seed):
        return _vanishes(e, budget, seed, True)
    with mpmath.workdps(ZERO_DPS):
        return _vanishes(e, budget, seed, False)


def _program(exprs, names: dict, module):
    """Straight-line Python source of exprs, children first: one line
    `_t<k> = ...` per distinct non-leaf node, each with its node's own
    operation and operand order, so it computes what the nested expression
    would, in the same order.  Symbols read as `names[sym]` (ValueError for
    one that names lacks), constants are literals, and functions are
    `_m.<name>` with `_m` bound to `module`.  Returns the lines and each
    expression's value as source text."""
    missing = frozenset().union(*(e.free for e in exprs)) - set(names)
    if missing:
        raise ValueError(f"unbound symbols: {sorted(s.name for s in missing)}")
    text: dict = {}   # node -> a leaf's literal or a local's name
    lines = []

    def emit(e: Expr) -> str:
        got = text.get(e)
        if got is not None:
            return got
        if isinstance(e, Const):
            got = f"({e.n})" if e.d == 1 else f"({e.n}/{e.d})"
        elif isinstance(e, Var):
            got = names[e.sym]
        else:
            args = [emit(c) for c in _children(e)]
            if isinstance(e, Add):
                src = "+".join(args)
            elif isinstance(e, Mul):
                src = "*".join(args)
            elif isinstance(e, Pow):
                src = f"{args[0]}**({e.exp})"
            else:
                name = "log" if e.fn == "ln" else e.fn
                # math spells the inverse functions asin/atan, numpy arcsin/arctan
                if not hasattr(module, name):
                    name = "a" + name[3:]
                src = f"_m.{name}({args[0]})"
            got = f"_t{len(lines)}"
            lines.append(f"{got} = {src}")
        text[e] = got
        return got

    return lines, [emit(e) for e in exprs]


def compile_expr(exprs, args: list):
    """Compile a list of expressions to one numpy function of the given symbols.

    The function takes an (len(args), N) float array whose row i holds the
    samples of args[i], and returns the (len(exprs), N) array of the values
    (a constant expression fills its row).  Its body is the straight-line
    program of `_program`: each distinct node is computed once, in the
    nested expression's operation order.  Domain violations give nan or inf
    instead of raising.
    """
    import numpy as np
    names = {s: f"_a[{i}]" for i, s in enumerate(args)}
    lines, roots = _program(exprs, names, np)
    lines += [f"_out = _m.empty(({len(roots)}, _a.shape[1]))",
              *(f"_out[{i}] = {r}" for i, r in enumerate(roots)), "return _out"]
    scope = {"_m": np}
    exec("def values(_a):\n    " + "\n    ".join(lines), scope)  # noqa: S102
    return scope["values"]


def compile_rk4(dynamics, states, inputs):
    """Compile the classic 4th-order Runge-Kutta sweep of dot(states) = dynamics.

    Returns run(x0, ua, ub, uc, n, step), which takes n steps of size step
    from the state list x0 and returns one list of n + 1 floats per state,
    x0's entry first.  ua[j][k], ub[j][k] and uc[j][k] are input j at the
    start, the midpoint and the end of step k.  Every state and stage value
    is a local variable of the generated function, each stage evaluates the
    dynamics as one straight-line program (`_program`) with functions from
    `math`, and each step computes x + step / 2 * k for the middle stages,
    x + step * k3 for the last, and x + step / 6 * (k1 + 2*k2 + 2*k3 + k4),
    so it gives the same floats as that loop written out, and raises
    ValueError or an ArithmeticError where it would.
    """
    states, inputs = list(states), list(inputs)

    def stage(ks, xs, us):
        lines, roots = _program(dynamics, dict(zip(states + inputs, xs + us)),
                                math)
        return lines + [f"{a} = {b}" for a, b in zip(ks, roots)]

    def unpack(targets, src):
        return f"{', '.join(targets)}, = {src}"

    x, s, k1, k2, k3, k4, out = ([f"{p}_{i}" for i in range(len(states))]
                                 for p in ("x", "s", "k1", "k2", "k3", "k4",
                                           "out"))
    ua, ub, uc = ([f"{p}_{j}" for j in range(len(inputs))]
                  for p in ("ua", "ub", "uc"))
    body = [f"{u} = {u}s[k]" for u in ua + ub + uc]
    body += stage(k1, x, ua)
    for ks, prev, coef, us in ((k2, k1, "h2", ub), (k3, k2, "h2", ub),
                               (k4, k3, "step", uc)):
        body += [f"{a} = {b} + {coef} * {c}" for a, b, c in zip(s, x, prev)]
        body += stage(ks, s, us)
    body += [f"{a} = {a} + h6 * ({b} + 2 * {c} + 2 * {d} + {e})"
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    body += [f"{o}.append({a})" for o, a in zip(out, x)]
    src = "\n".join([
        "def run(x0, ua, ub, uc, n, step):",
        "    " + unpack(x, "x0"),
        *("    " + unpack([f"{u}s" for u in us], name)
          for us, name in ((ua, "ua"), (ub, "ub"), (uc, "uc"))),
        "    h2 = step / 2",
        "    h6 = step / 6",
        *(f"    {o} = [{a}]" for o, a in zip(out, x)),
        "    for k in range(n):",
        *("        " + line for line in body),
        f"    return [{', '.join(out)}]",
    ])
    scope = {"_m": math}
    exec(src, scope)  # noqa: S102  (source built locally above)
    return scope["run"]
