"""Pfaffian systems and field spans with generic-rank linear algebra.

A Pfaffian system is a codistribution spanned by time-invariant 1-forms
m(xi) dxi - n(xi) dt; a span of vector fields is a plain tuple of
independent fields on one chart.  All spans are generic: membership and
rank are decided by the probabilistic zero test through fraction-free
elimination.  The contraction tables of a level, (v.dg) ^ Omega for its
vertical fields v, live here: the derived system, the search's joint
candidate and the Frobenius test of {P, dt} are all read off them.  The
vertical and Cauchy-characteristic tests and the check that equations
solve for given variables live here for the search and the certificate
checks alike.
"""

from __future__ import annotations

from . import linalg
from .exterior import (
    Chart, ChartTransform, KForm, T, VectorField, contract, d, lie_bracket,
    oneform, one_coeffs, pullback, wedge, wedge_all,
)
from .linalg import ZeroCtx
from .symexpr import (
    JET, ONE, ZERO, Symbol, add, diff, mul, neg, substitute, var,
)


class NotReducible(RuntimeError):
    """No basis free of the dropped coordinates exists within the zero test."""


def _form_row(w: KForm, chart: Chart):
    cm = one_coeffs(w)
    return [cm.get(s, ZERO) for s in chart.axes]


def _row_form(chart: Chart, row) -> KForm:
    return oneform(chart, {s: c for s, c in zip(chart.axes, row) if c is not ZERO})


def _field_row(v: VectorField, chart: Chart):
    return [v.comp(s) for s in chart.axes]


def _row_field(chart: Chart, row) -> VectorField:
    return VectorField(chart, {s: c for s, c in zip(chart.axes, row)
                               if c is not ZERO})


class PfaffianSystem:
    """Codistribution spanned by time-invariant 1-forms: it drops structural
    zeros and scales leading coefficients, and each builder says why its
    generators are independent, so dim is the rank."""

    __slots__ = ("chart", "generators")

    def __init__(self, chart: Chart, generators, zc: ZeroCtx):
        rows = []
        for g in generators:
            if g.degree != 1:
                raise ValueError("generators must be 1-forms")
            if g.chart.coords != chart.coords:
                raise ValueError("generator lives on a different chart")
            for c in g.coeffs.values():
                if T in c.free:
                    raise ValueError("coefficients must be time-invariant")
            if not g.is_structurally_zero():
                rows.append(linalg.normalize_leading(_form_row(g, chart), zc))
        self.chart = chart
        self.generators = tuple(_row_form(chart, r) for r in rows)

    @property
    def dim(self) -> int:
        return len(self.generators)

    def rows(self):
        return [_form_row(g, self.chart) for g in self.generators]

    def top_form(self) -> KForm:
        return wedge_all(list(self.generators), self.chart)

    def __repr__(self):
        return f"<PfaffianSystem dim={self.dim} on {len(self.chart.coords)} coords>"


def from_control_system(cs, zc: ZeroCtx) -> PfaffianSystem:
    """The system's Pfaffian form dx^a - f^a dt on the chart (states, inputs),
    independent: each generator has its own dx^a."""
    chart = Chart(tuple(cs.states) + tuple(cs.inputs))
    gens = []
    for s, f in zip(cs.states, cs.dynamics):
        gens.append(oneform(chart, {s: ONE, T: neg(f)}))
    return PfaffianSystem(chart, gens, zc)


def vertical_annihilator(P: PfaffianSystem, zc: ZeroCtx) -> tuple:
    """Annihilator of {P, dt}: the time-fiber fields annihilating the
    system, a nullspace basis and so independent."""
    chart = P.chart
    rows = P.rows()
    dt_row = [ZERO] * len(chart.axes)
    dt_row[chart.axis_index(T)] = ONE
    basis = linalg.nullspace(rows + [dt_row], len(chart.axes), zc)
    return tuple(_row_field(chart, r) for r in basis)


def contraction_tables(S: PfaffianSystem, basis):
    """A level's contractions and row tables, built once per level.

    Returns (C, tables, keys): C[i][j] is the 1-form b_i . d g_j; tables[i]
    maps a wedge index to a row of coefficients, one per generator, where
    row r states that sum_j a_j ((b_i . d g_j) ^ Omega) vanishes on that
    wedge index; keys are all wedge indices, sorted.  The tables are
    combined linearly when a field is a coefficient combination of the
    basis.
    """
    gens = S.generators
    top = S.top_form()
    dg = [d(g) for g in gens]
    C = []
    tables = []
    keys = set()
    for v in basis:
        Ci = [contract(v, w) for w in dg]
        tab = {}
        for j, w in enumerate(Ci):
            for idx, cexpr in wedge(w, top).coeffs.items():
                tab.setdefault(idx, [ZERO] * len(gens))[j] = cexpr
        C.append(Ci)
        tables.append(tab)
        keys.update(tab)
    return C, tables, sorted(keys)


def span_from_solutions(S: PfaffianSystem, sols, zc: ZeroCtx) -> PfaffianSystem:
    """The span of the generator combinations sum_j a_j g_j, a in sols,
    independent for independent sols (a nullspace basis), as S's are."""
    combos = []
    for a in sols:
        terms: dict = {}
        for aj, g in zip(a, S.generators):
            for s, c in one_coeffs(g).items():
                terms.setdefault(s, []).append(mul(aj, c))
        combos.append(oneform(S.chart, {s: add(*t) for s, t in terms.items()}))
    return PfaffianSystem(S.chart, combos, zc)


def derived_system(S: PfaffianSystem, tabs, zc: ZeroCtx) -> PfaffianSystem:
    """Span of generator combinations p with (v.dp) ^ Omega = 0 for every
    basis field v of the level's tables tabs (contraction_tables).

    Over a basis of the vertical annihilator this is the derived system
    {p : dp ^ Omega = 0}: with the drift, the vertical fields span the
    annihilator of S, v.(dp ^ Omega) = (v.dp) ^ Omega there, and the drift
    contracted twice gives nothing.  The search's joint candidate is the
    same span.
    """
    _, tables, _ = tabs
    rows = [tab[idx] for tab in tables for idx in sorted(tab)]
    sols = linalg.nullspace(rows, len(S.generators), zc)
    return span_from_solutions(S, sols, zc)


def derived_flag(P: PfaffianSystem, zc: ZeroCtx):
    """The descending chain P, P^(1), P^(2), ... down to stabilization.

    One (P, V, tabs) per level: V is a basis of the level's vertical
    annihilator and tabs its contraction tables over it, from which the
    next level and the level's Frobenius test are read.
    """
    flag = []
    while True:
        V = vertical_annihilator(P, zc)
        tabs = contraction_tables(P, V)
        flag.append((P, V, tabs))
        if P.dim == 0:
            return flag
        nxt = derived_system(P, tabs, zc)
        if nxt.dim == P.dim:
            return flag
        P = nxt


def is_vertical(v: VectorField, P: PfaffianSystem, zc: ZeroCtx) -> bool:
    """Whether v annihilates P: every contraction v.g, g a generator, is
    zero.  For v with no t component this is membership in the vertical
    annihilator of P."""
    return all(zc.zero(c) for g in P.generators
               for c in contract(v, g).coeffs.values())


def is_characteristic(v: VectorField, P: PfaffianSystem, zc: ZeroCtx) -> bool:
    """Whether v is a Cauchy characteristic of P: v is vertical for P
    (is_vertical) and v.dg lies in the span of P for every generator g."""
    return is_vertical(v, P, zc) and linalg.in_span(
        P.rows(), (_form_row(contract(v, d(g)), P.chart)
                   for g in P.generators), zc)


def jet(sym: Symbol, order: int) -> Symbol:
    """The formal order-th time derivative of a coordinate, a symbol of
    its own kind (JET), so no chart coordinate can share it."""
    return sym if order == 0 else Symbol(f"{sym.name}_d{order}", JET)


def residual(g):
    """Implicit ODE residual of a one-form: sum a*zdot - b."""
    parts = []
    for s, e in one_coeffs(g).items():
        parts.append(e if s == T else mul(e, var(jet(s, 1))))
    return add(*parts) if parts else ZERO


def solves_for(gens, params, zc: ZeroCtx) -> bool:
    """True when the one-forms gens solve algebraically for params: no dp
    survives the zero test, and the Jacobian of the residuals in params has
    generic rank len(params)."""
    for g in gens:
        coeffs = one_coeffs(g)
        if any(p in coeffs and not zc.zero(coeffs[p]) for p in params):
            return False
    jac = [[diff(residual(g), p) for p in params] for g in gens]
    return linalg.rank(jac, zc) == len(params)


def is_involutive(fields, zc: ZeroCtx) -> bool:
    """Whether every bracket of two of the fields lies in their span, all
    of them tested against one elimination of the span."""
    rows = [_field_row(v, v.chart) for v in fields]
    brackets = (_field_row(lie_bracket(v, w), v.chart)
                for i, v in enumerate(fields) for w in fields[i + 1:])
    return linalg.in_span(rows, brackets, zc)


def is_integrable_with_dt(P: PfaffianSystem, tabs, zc: ZeroCtx) -> bool:
    """Frobenius test for {P, dt}, read off P's contraction tables tabs
    over a basis of its vertical annihilator (derived_flag).

    v.Omega = v.dt = 0 for a vertical v, so dg ^ Omega ^ dt = 0 exactly when
    every (v.dg) ^ Omega ^ dt = 0, that is, when no (v.dg) ^ Omega has a
    term free of dt: every table entry off the t axis is zero.
    """
    t = P.chart.axis_index(T)
    _, tables, _ = tabs
    return all(zc.zero(e) for tab in tables for idx, row in tab.items()
               if t not in idx for e in row if e is not ZERO)


def restrict_to_subchart(P: PfaffianSystem, phi: ChartTransform, drop,
                         zc: ZeroCtx) -> PfaffianSystem:
    """Express the pullback of P on the source chart without the drop coords.

    Requires (generically) that pulled generators have no differentials of the
    dropped coordinates and, after reduced elimination with pivot division,
    coefficients independent of them, as when the dropped coordinate fields
    are Cauchy characteristics.  The pivot rows left are independent.
    """
    drop = list(drop)
    src = phi.source
    pulled = [pullback(phi, g) for g in P.generators]
    for g in pulled:
        cm = one_coeffs(g)
        for w in drop:
            c = cm.get(w, ZERO)
            if c is not ZERO and not zc.zero(c):
                raise NotReducible(
                    f"pulled generator keeps a d{w.name} component")
    rows = [_form_row(g, src) for g in pulled]
    red, _ = linalg.row_echelon(rows, zc)
    red = [r for r in red if any(e is not ZERO for e in r)]
    drop_set = set(drop)
    keep = [s for s in src.coords if s not in drop_set]
    reduced_chart = Chart(tuple(keep))
    out = []
    for row in red:
        coeffs = {}
        for s, c in zip(src.axes, row):
            if c is ZERO:
                continue
            if s in drop_set:
                if zc.zero(c):
                    continue
                raise NotReducible(
                    f"elimination left a d{s.name} component")
            for w in drop:
                if zc.depends(c, w):
                    raise NotReducible(
                        f"coefficient on d{s.name} depends on {w.name}")
                c = substitute(c, {w: ONE})
            coeffs[s] = c
        out.append(oneform(reduced_chart, coeffs))
    return PfaffianSystem(reduced_chart, out, zc)
