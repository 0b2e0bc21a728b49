"""Exterior calculus on a coordinate chart.

Charts carry named coordinates plus the distinguished time axis t
(always last).  K-forms store coefficients on strictly increasing axis-index
tuples, so antisymmetry is normalized away structurally.  All coefficient
arithmetic goes through the canonical expression constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .symexpr import (
    AUX, MINUS_ONE, ONE, TIME, ZERO, Expr, Symbol, add, const, diff, div,
    func, mul, neg, substitute, var,
)

T = Symbol("t", TIME)


class ChartMismatch(ValueError):
    pass


class NotSolvable(RuntimeError):
    """The flow lies outside the restricted closed-form solver class."""


@dataclass(frozen=True)
class Chart:
    coords: tuple

    def __post_init__(self):
        names = [s.name for s in self.coords]
        if len(set(names)) != len(names):
            raise ValueError("chart coordinates must be distinct")
        if any(s == T for s in self.coords):
            raise ValueError("t is implicit; do not list it as a coordinate")

    @property
    def axes(self) -> tuple:
        return self.coords + (T,)

    def axis_index(self, sym: Symbol) -> int:
        try:
            return self.axes.index(sym)
        except ValueError:
            raise ChartMismatch(f"{sym.name} is not an axis of this chart") from None


def _same_chart(a, b):
    if a.chart != b.chart:
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

    def __add__(self, other):
        _same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = add(out.get(idx, ZERO), c)
        return KForm(self.chart, self.degree, out)

    def __sub__(self, other):
        return self + scale(other, MINUS_ONE)

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


def dx(chart: Chart, sym: Symbol) -> KForm:
    return KForm(chart, 1, {(chart.axis_index(sym),): ONE})


def dt(chart: Chart) -> KForm:
    return dx(chart, T)


def zero_form(chart: Chart, degree: int) -> KForm:
    return KForm(chart, degree, {})


def scale(a: KForm, e: Expr) -> KForm:
    return KForm(a.chart, a.degree, {i: mul(e, c) for i, c in a.coeffs.items()})


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


def wedge_all(forms, chart: Chart = None) -> KForm:
    """Wedge of a list; the empty wedge is the scalar unit 0-form."""
    forms = list(forms)
    if not forms:
        if chart is None:
            raise ValueError("empty wedge needs an explicit chart")
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

    def is_structurally_zero(self) -> bool:
        return not self.components

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


def pullback(phi: ChartTransform, a: KForm) -> KForm:
    if a.chart != phi.target:
        raise ChartMismatch("form does not live on the transform's target chart")
    src = phi.source
    if a.degree == 0:
        return KForm(src, 0, {(): substitute(a.coeffs.get((), ZERO), phi.forward)})
    pulled = {}
    for p, axis in enumerate(phi.target.axes):
        if axis == T:
            pulled[p] = dt(src)
        else:
            f = phi.forward[axis]
            pulled[p] = oneform(
                src, {r: diff(f, r) for r in src.coords if r in f.free})
    acc = zero_form(src, a.degree)
    for idx, c in a.coeffs.items():
        term = wedge_all([pulled[p] for p in idx])
        acc = acc + scale(term, substitute(c, phi.forward))
    return acc


def pushforward(phi: ChartTransform, v: VectorField) -> VectorField:
    if v.chart != phi.source:
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
    if outer.source != inner.target:
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


def _poly_in(e: Expr, s: Symbol):
    """Coefficient list [c0, c1, ...] of e as a polynomial in s, else None."""
    from .symexpr import Add, Mul, Pow, Var
    if s not in e.free:
        return [e]
    if isinstance(e, Var):
        return [ZERO, ONE]
    if isinstance(e, Add):
        out = [ZERO]
        for t in e.terms:
            p = _poly_in(t, s)
            if p is None:
                return None
            if len(p) > len(out):
                out.extend([ZERO] * (len(p) - len(out)))
            for k, c in enumerate(p):
                out[k] = add(out[k], c)
        return out
    if isinstance(e, Mul):
        out = [ONE]
        for f in e.factors:
            p = _poly_in(f, s)
            if p is None:
                return None
            out = _poly_mul(out, p)
        return out
    if isinstance(e, Pow):
        if e.exp < 0:
            return None   # s in a denominator
        p = _poly_in(e.base, s)
        if p is None:
            return None
        out = [ONE]
        for _ in range(e.exp):
            out = _poly_mul(out, p)
        return out
    return None   # s inside a function argument


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def _integrate_poly(coeffs, s_var: Expr) -> Expr:
    """Definite integral 0..s of a polynomial given by its coefficients."""
    parts = []
    for k, c in enumerate(coeffs):
        if c is ZERO:
            continue
        parts.append(mul(const(1) / const(k + 1), c, s_var ** (k + 1)))
    return add(*parts) if parts else ZERO


class _FlowSolution:
    __slots__ = ("coord", "kind", "alpha", "beta", "beta_poly", "sol")

    def __init__(self, coord, kind, alpha, beta, beta_poly, sol):
        self.coord = coord
        self.kind = kind            # "poly" or "exp"
        self.alpha = alpha          # exp only: nonzero Expr in IC symbols
        self.beta = beta            # exp only: Expr in IC symbols
        self.beta_poly = beta_poly  # poly only: s-coefficient list in ICs
        self.sol = sol              # Expr in ICs and _FLOW_S


def straighten_flow(v: VectorField, zc, prefix: str) -> ChartTransform:
    """Chart in which v becomes the coordinate field of one new coordinate.

    The flow ODEs are solved one coordinate at a time; each component must be
    linear in its own coordinate with coefficients depending only on already
    solved coordinates, and each scalar equation must be either polynomially
    forced (alpha = 0) or autonomous linear (alpha != 0).  Anything else
    raises NotSolvable; callers treat that branch as suspended.  The new
    chart names the kept coordinates prefix1, prefix2, ... and the flow
    parameter prefixh.
    """
    chart = v.chart
    tcomp = v.components.get(T)
    if tcomp is not None and zc.nonzero(tcomp):
        raise ValueError("flow fields must have no time component")
    sv = var(_FLOW_S)

    active, inactive = [], []
    for c in chart.coords:
        e = v.comp(c)
        if e is not ZERO and zc.nonzero(e):
            active.append(c)
        else:
            inactive.append(c)
    if not active:
        raise ValueError("cannot straighten the zero field")

    ic = {c: Symbol(f"_ic_{c.name}", AUX) for c in chart.coords}
    inactive_ics = {ic[c] for c in inactive}
    flow_val = {c: var(ic[c]) for c in inactive}

    solved: dict = {}
    order = []
    remaining = list(active)
    while remaining:
        progressed = False
        for c in list(remaining):
            comp = v.comp(c)
            alpha = diff(comp, c)
            if c in alpha.free:
                continue   # nonlinear in its own coordinate
            beta = add(comp, neg(mul(alpha, var(c))))
            deps = (alpha.free | beta.free) & set(chart.coords)
            if deps - set(inactive) - set(solved):
                continue   # waits on an unsolved active coordinate
            alpha_v = substitute(alpha, flow_val)
            beta_v = substitute(beta, flow_val)
            if alpha_v is ZERO or zc.zero(alpha_v):
                poly = _poly_in(beta_v, _FLOW_S)
                if poly is None:
                    raise NotSolvable(
                        f"forcing for {c.name} is not polynomial in the flow parameter")
                sol = add(var(ic[c]), _integrate_poly(poly, sv))
                rec = _FlowSolution(c, "poly", None, None, poly, sol)
            else:
                if _FLOW_S in alpha_v.free or _FLOW_S in beta_v.free:
                    raise NotSolvable(
                        f"equation for {c.name} is linear but not autonomous")
                ratio = div(beta_v, alpha_v)
                sol = add(mul(add(var(ic[c]), ratio), func("exp", mul(alpha_v, sv))),
                          neg(ratio))
                rec = _FlowSolution(c, "exp", alpha_v, beta_v, None, sol)
            solved[c] = rec
            flow_val[c] = sol
            order.append(rec)
            remaining.remove(c)
            progressed = True
        if not progressed:
            names = ", ".join(c.name for c in remaining)
            raise NotSolvable(f"coupled flow outside the solvable class: {names}")

    # pivot: the last (declaration order) active coordinate whose solution
    # inverts for the flow parameter in closed form over old coordinates
    def ic_pure(e: Expr) -> bool:
        return {s for s in e.free if s.name.startswith("_ic_")} <= inactive_ics

    pivot = None
    pivot_k = None
    for c in active:
        rec = solved[c]
        if rec.kind == "poly":
            if len(rec.beta_poly) != 1:
                continue   # s-dependent forcing: polynomial of degree > 1
            b0 = rec.beta_poly[0]
            if not ic_pure(b0) or zc.zero(b0):
                continue
        else:
            if not (ic_pure(rec.alpha) and ic_pure(rec.beta)):
                continue
        for k in (0, 1, 2):
            if rec.kind == "exp":
                ratio = div(rec.beta, rec.alpha)
                if zc.zero(add(const(k), ratio)):
                    continue   # log argument degenerates
            transversal = substitute(v.comp(c), {c: const(k)})
            if zc.nonzero(transversal):
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
    forward = {}
    for c in chart.coords:
        if c in solved:
            forward[c] = substitute(solved[c].sol,
                                    {**ic_to_new, _FLOW_S: var(param)})
        else:
            forward[c] = var(new_names[c])

    # inverse: the pivot gives the flow parameter in old coordinates; then
    # every other solved coordinate's IC back-substitutes in solve order
    ic_inverse = {ic[c]: var(c) for c in inactive}
    ic_inverse[ic[pivot]] = const(pivot_k)   # transversal pins the pivot's IC
    prec = solved[pivot]
    if prec.kind == "poly":
        s_expr = div(add(var(pivot), const(-pivot_k)), prec.beta_poly[0])
    else:
        ratio = div(prec.beta, prec.alpha)
        s_expr = div(func("ln", div(add(var(pivot), ratio),
                                    add(const(pivot_k), ratio))), prec.alpha)
    s_in_old = substitute(s_expr, ic_inverse)

    for rec in order:
        c = rec.coord
        if c == pivot:
            continue
        if rec.kind == "poly":
            integ = _integrate_poly(
                [substitute(b, ic_inverse) for b in rec.beta_poly], s_in_old)
            ic_inverse[ic[c]] = add(var(c), neg(integ))
        else:
            alpha_o = substitute(rec.alpha, ic_inverse)
            ratio_o = substitute(div(rec.beta, rec.alpha), ic_inverse)
            ic_inverse[ic[c]] = add(
                mul(add(var(c), ratio_o), func("exp", neg(mul(alpha_o, s_in_old)))),
                neg(ratio_o))

    inverse = {}
    for c in kept:
        inverse[new_names[c]] = var(c) if c in inactive else ic_inverse[ic[c]]
    inverse[param] = s_in_old

    phi = ChartTransform(new_chart, chart, forward, inverse)
    phi.verify(zc)
    pushed = pushforward(phi, VectorField(new_chart, {param: ONE}))
    for a in chart.axes:
        resid = add(pushed.comp(a), neg(v.comp(a)))
        if resid is not ZERO and not zc.zero(resid):
            raise NotSolvable(f"straightening residual nonzero on {a.name}")
    return phi
