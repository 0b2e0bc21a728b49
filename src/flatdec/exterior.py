"""Exterior calculus on a coordinate chart.

Charts carry named coordinates plus the distinguished time axis t
(always last).  K-forms store coefficients on strictly increasing axis-index
tuples, so antisymmetry is normalized away structurally.  All coefficient
arithmetic goes through the canonical expression constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .symexpr import (
    AUX, MINUS_ONE, ONE, TIME, ZERO, Add, Expr, Mul, Pow, Symbol, Var, add,
    const, diff, div, func, mul, neg, pow_, substitute, var,
)

T = Symbol("t", TIME)


class ChartMismatch(ValueError):
    pass


class NotSolvable(RuntimeError):
    """The flow lies outside the restricted closed-form solver class."""


@dataclass(frozen=True)
class Chart:
    """Coordinates; `axes` appends t.  Charts compare by `coords` only."""

    coords: tuple
    axes: tuple = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [s.name for s in self.coords]
        if len(set(names)) != len(names):
            raise ValueError("chart coordinates must be distinct")
        if T in self.coords:
            raise ValueError("t is implicit; do not list it as a coordinate")
        axes = self.coords + (T,)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(axes)})

    def axis_index(self, sym: Symbol) -> int:
        try:
            return self._index[sym]
        except KeyError:
            raise ChartMismatch(f"{sym.name} is not an axis of this chart") from None


def _same_chart(a, b):
    # charts compare by coords; reading them here, and wherever charts are
    # checked on the search path, skips the dataclass __eq__ frame
    if a.chart.coords != b.chart.coords:
        raise ChartMismatch("operands live on different charts")
    return a.chart


class KForm:
    """Differential k-form; coeffs maps strictly increasing index tuples to Expr."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: dict):
        self.chart = chart
        self.degree = degree
        clean = {}
        for idx, c in coeffs.items():
            if c is ZERO:
                continue
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            clean[idx] = c
        self.coeffs = clean

    def is_structurally_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"<KForm deg={self.degree} terms={len(self.coeffs)}>"


def oneform(chart: Chart, coeffs: dict) -> KForm:
    """Degree-1 form from a map Symbol -> Expr."""
    return KForm(chart, 1, {(chart.axis_index(s),): c for s, c in coeffs.items()})


def one_coeffs(w: KForm) -> dict:
    """Inverse of oneform(): coefficients of a degree-1 form keyed by Symbol."""
    if w.degree != 1:
        raise ValueError("not a 1-form")
    return {w.chart.axes[idx[0]]: c for idx, c in w.coeffs.items()}


def zero_form(chart: Chart, degree: int) -> KForm:
    return KForm(chart, degree, {})


def _merge(idx_a, idx_b):
    """Merge two strictly increasing tuples; returns (sign, merged) or None."""
    merged = []
    sign = 1
    a, b = list(idx_a), list(idx_b)
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:   # b[j] moves past the rest of a
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def wedge(a: KForm, b: KForm) -> KForm:
    chart = _same_chart(a, b)
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            m = _merge(ia, ib)
            if m is None:
                continue
            sign, idx = m
            term = mul(ca, cb) if sign > 0 else mul(MINUS_ONE, ca, cb)
            out[idx] = add(out.get(idx, ZERO), term)
    return KForm(chart, a.degree + b.degree, out)


def wedge_all(forms, chart: Chart) -> KForm:
    """Wedge of a list; the empty wedge is the scalar unit 0-form."""
    forms = list(forms)
    if not forms:
        return KForm(chart, 0, {(): ONE})
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def d(a: KForm) -> KForm:
    chart = a.chart
    out: dict = {}
    for idx, c in a.coeffs.items():
        for p, s in enumerate(chart.axes):
            dc = diff(c, s)
            if dc is ZERO:
                continue
            m = _merge((p,), idx)
            if m is None:
                continue
            sign, midx = m
            term = dc if sign > 0 else neg(dc)
            out[midx] = add(out.get(midx, ZERO), term)
    return KForm(chart, a.degree + 1, out)


class VectorField:
    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: dict):
        self.chart = chart
        clean = {}
        for s, c in components.items():
            chart.axis_index(s)
            if c is not ZERO:
                clean[s] = c
        self.components = clean

    def comp(self, sym: Symbol) -> Expr:
        return self.components.get(sym, ZERO)

    def __repr__(self):
        return f"<VectorField on {len(self.components)} axes>"


def contract(v: VectorField, a: KForm) -> KForm:
    chart = _same_chart(v, a)
    if a.degree == 0:
        return zero_form(chart, 0)
    out: dict = {}
    for idx, c in a.coeffs.items():
        for pos, axis in enumerate(idx):
            comp = v.components.get(chart.axes[axis])
            if comp is None:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = mul(comp, c)
            if pos % 2:
                term = neg(term)
            out[rest] = add(out.get(rest, ZERO), term)
    return KForm(chart, a.degree - 1, out)


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    chart = _same_chart(v, w)
    out = {}
    for k in chart.axes:
        parts = []
        for i in chart.axes:
            vi = v.components.get(i)
            if vi is not None:
                dwk = diff(w.comp(k), i)
                if dwk is not ZERO:
                    parts.append(mul(vi, dwk))
            wi = w.components.get(i)
            if wi is not None:
                dvk = diff(v.comp(k), i)
                if dvk is not ZERO:
                    parts.append(neg(mul(wi, dvk)))
        e = add(*parts) if parts else ZERO
        if e is not ZERO:
            out[k] = e
    return VectorField(chart, out)


# -- chart transforms ---------------------------------------------------------

@dataclass(frozen=True)
class ChartTransform:
    """Diffeomorphism between charts, time fixed.

    forward maps each target coordinate to its expression in source
    coordinates; inverse maps each source coordinate to its expression in
    target coordinates.
    """
    source: Chart
    target: Chart
    forward: dict = field(compare=False)
    inverse: dict = field(compare=False)

    def __post_init__(self):
        if set(self.forward) != set(self.target.coords):
            raise ValueError("forward must cover exactly the target coordinates")
        if set(self.inverse) != set(self.source.coords):
            raise ValueError("inverse must cover exactly the source coordinates")

    def verify(self, zc) -> None:
        """Check forward/inverse are mutually inverse (zero-test residuals)."""
        for s in self.target.coords:
            back = substitute(self.forward[s], self.inverse)
            if not zc.zero(add(back, neg(var(s)))):
                raise ValueError(f"transform roundtrip fails on {s.name}")
        for r in self.source.coords:
            back = substitute(self.inverse[r], self.forward)
            if not zc.zero(add(back, neg(var(r)))):
                raise ValueError(f"transform roundtrip fails on {r.name}")


def identity_transform(chart: Chart) -> ChartTransform:
    m = {s: var(s) for s in chart.coords}
    return ChartTransform(chart, chart, dict(m), dict(m))


def pullback(phi: ChartTransform, w: KForm) -> KForm:
    """The pullback of a 1-form: each coefficient, substituted once, times
    the differential of its own target coordinate (dt stays dt)."""
    if w.chart.coords != phi.target.coords:
        raise ChartMismatch("form does not live on the transform's target chart")
    terms: dict = {}
    for s, c in one_coeffs(w).items():
        c = substitute(c, phi.forward)
        if s == T:
            terms.setdefault(T, []).append(c)
            continue
        f = phi.forward[s]
        for r in phi.source.coords:
            if r in f.free:
                terms.setdefault(r, []).append(mul(c, diff(f, r)))
    return oneform(phi.source, {r: add(*t) for r, t in terms.items()})


def pushforward(phi: ChartTransform, v: VectorField) -> VectorField:
    if v.chart.coords != phi.source.coords:
        raise ChartMismatch("field does not live on the transform's source chart")
    out = {}
    for s in phi.target.coords:
        f = phi.forward[s]
        parts = [mul(diff(f, r), vr)
                 for r, vr in v.components.items() if r != T and r in f.free]
        e = add(*parts) if parts else ZERO
        if e is not ZERO:
            out[s] = substitute(e, phi.inverse)
    vt = v.components.get(T)
    if vt is not None:
        out[T] = substitute(vt, phi.inverse)
    return VectorField(phi.target, out)


def compose(outer: ChartTransform, inner: ChartTransform) -> ChartTransform:
    """outer: old <- mid, inner: mid <- new; result: old <- new."""
    if outer.source.coords != inner.target.coords:
        raise ChartMismatch("transforms do not chain")
    fwd = {s: substitute(e, inner.forward) for s, e in outer.forward.items()}
    inv = {r: substitute(e, outer.inverse) for r, e in inner.inverse.items()}
    return ChartTransform(inner.source, outer.target, fwd, inv)


def extend_transform(phi: ChartTransform, extras) -> ChartTransform:
    """Extend by the identity on extra coordinates (appended last)."""
    extras = tuple(extras)
    if not extras:
        return phi
    src = Chart(phi.source.coords + extras)
    tgt = Chart(phi.target.coords + extras)
    fwd = dict(phi.forward)
    inv = dict(phi.inverse)
    for s in extras:
        fwd[s] = var(s)
        inv[s] = var(s)
    return ChartTransform(src, tgt, fwd, inv)


# -- flow straightening ---------------------------------------------------------

_FLOW_S = Symbol("_flow_s", AUX)


def _polynomial_in(e: Expr, s: Symbol) -> bool:
    """s occurs in e only under sums, products and positive powers: a
    structural guard on s, read off the expression tree, not a zero test."""
    if s not in e.free or isinstance(e, Var):
        return True
    if isinstance(e, Add):
        return all(_polynomial_in(t, s) for t in e.terms)
    if isinstance(e, Mul):
        return all(_polynomial_in(f, s) for f in e.factors)
    return isinstance(e, Pow) and e.exp > 0 and _polynomial_in(e.base, s)


def _integral_from_zero(beta: Expr, sv: Expr) -> Expr:
    """Integral of beta over s from 0 to sv, by beta's Taylor series at s = 0:
    the sum of beta^(k-1)(0) sv^k / k!, which ends for beta polynomial in s."""
    parts, fact, k = [], 1, 1
    while beta is not ZERO:
        parts.append(mul(pow_(const(fact), -1), substitute(beta, {_FLOW_S: ZERO}),
                         pow_(sv, k)))
        beta = diff(beta, _FLOW_S)
        k += 1
        fact *= k
    return add(*parts)


def straighten_flow(v: VectorField, zc, prefix: str) -> ChartTransform:
    """Chart in which v becomes the coordinate field of one new coordinate.

    v can be straightened when its flow ODEs solve one coordinate at a time:
    each moved coordinate c has v_c = alpha c + beta, with alpha and beta
    depending only on coordinates v does not move or already solved ones.
    Along the flow these become functions of the initial values and the flow
    parameter s.  With alpha = 0 the forcing beta must be polynomial in s
    (s only under sums, products and positive powers), and c is its Taylor
    integral at s = 0; with alpha != 0 both must be free of s, and c is the
    exponential solution.  Anything else raises NotSolvable; callers treat
    that branch as suspended.

    The pivot is the last moved coordinate whose solution inverts for s over
    the unmoved coordinates, and the transversal pins its initial value to
    k in {0, 1, 2}.  The forward map is the flow from the transversal.  The
    inverse is the backward flow: each kept coordinate is its solution
    started at x and run for -S(x), where S(x) is the time the pivot takes
    from k to x.  The new chart names the kept coordinates prefix1,
    prefix2, ... and the flow parameter prefixh.
    """
    chart = v.chart
    tcomp = v.components.get(T)
    if tcomp is not None and not zc.zero(tcomp):
        raise ValueError("flow fields must have no time component")
    sv = var(_FLOW_S)

    active = [c for c in chart.coords
              if v.comp(c) is not ZERO and not zc.zero(v.comp(c))]
    if not active:
        raise ValueError("cannot straighten the zero field")

    ic = {c: Symbol(f"_ic_{c.name}", AUX) for c in chart.coords}
    flow = {c: var(ic[c]) for c in chart.coords}   # each coordinate at time s

    solved: dict = {}   # moved coordinate -> (alpha or None, beta, solution)
    remaining = list(active)
    while remaining:
        progressed = False
        for c in list(remaining):
            comp = v.comp(c)
            alpha = diff(comp, c)
            beta = add(comp, neg(mul(alpha, var(c))))
            if any(zc.depends(e, r) for r in remaining for e in (alpha, beta)):
                continue   # nonlinear in c, or waits on another unsolved one
            alpha = substitute(alpha, flow)
            beta = substitute(beta, flow)
            if alpha is ZERO or zc.zero(alpha):
                if not _polynomial_in(beta, _FLOW_S):
                    raise NotSolvable(
                        f"forcing for {c.name} is not polynomial in the flow parameter")
                alpha = None
                sol = add(var(ic[c]), _integral_from_zero(beta, sv))
            else:
                if _FLOW_S in alpha.free or _FLOW_S in beta.free:
                    raise NotSolvable(
                        f"equation for {c.name} is linear but not autonomous")
                ratio = div(beta, alpha)
                sol = add(mul(add(var(ic[c]), ratio), func("exp", mul(alpha, sv))),
                          neg(ratio))
            solved[c] = (alpha, beta, sol)
            flow[c] = sol
            remaining.remove(c)
            progressed = True
        if not progressed:
            names = ", ".join(c.name for c in remaining)
            raise NotSolvable(f"coupled flow outside the solvable class: {names}")

    def ic_pure(e: Expr) -> bool:
        return not any(zc.depends(e, ic[c]) for c in active)

    pivot = None
    for c in active:
        alpha, beta, _ = solved[c]
        if alpha is None:
            if _FLOW_S in beta.free or not ic_pure(beta) or zc.zero(beta):
                continue
        elif not (ic_pure(alpha) and ic_pure(beta)):
            continue
        for k in (0, 1, 2):
            if alpha is not None and zc.zero(add(const(k), div(beta, alpha))):
                continue   # log argument degenerates
            transversal = substitute(v.comp(c), {c: const(k)})
            if not zc.zero(transversal):
                pivot, pivot_k = c, k
                break
    if pivot is None:
        raise NotSolvable("no invertible flow coordinate for the transversal")

    kept = [c for c in chart.coords if c != pivot]
    new_names = {c: Symbol(f"{prefix}{i + 1}", AUX) for i, c in enumerate(kept)}
    param = Symbol(f"{prefix}h", AUX)
    new_chart = Chart(tuple(new_names[c] for c in kept) + (param,))

    ic_to_new = {ic[c]: var(new_names[c]) for c in kept}
    ic_to_new[ic[pivot]] = const(pivot_k)
    forward = {c: substitute(flow[c], {**ic_to_new, _FLOW_S: var(param)})
               for c in chart.coords}

    alpha, beta, _ = solved[pivot]
    if alpha is None:
        s_expr = div(add(var(pivot), const(-pivot_k)), beta)
    else:
        ratio = div(beta, alpha)
        s_expr = div(func("ln", div(add(var(pivot), ratio),
                                    add(const(pivot_k), ratio))), alpha)
    ic_to_old = {ic[c]: var(c) for c in chart.coords}
    s_in_old = substitute(s_expr, ic_to_old)
    backward = {**ic_to_old, _FLOW_S: neg(s_in_old)}
    inverse = {new_names[c]: substitute(flow[c], backward) for c in kept}
    inverse[param] = s_in_old

    phi = ChartTransform(new_chart, chart, forward, inverse)
    phi.verify(zc)
    pushed = pushforward(phi, VectorField(new_chart, {param: ONE}))
    for a in chart.axes:
        resid = add(pushed.comp(a), neg(v.comp(a)))
        if resid is not ZERO and not zc.zero(resid):
            raise NotSolvable(f"straightening residual nonzero on {a.name}")
    return phi
