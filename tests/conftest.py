"""Shared fixtures: the two worked systems and integrator chains, the
search at the command line's defaults, textbook reference versions of
the table-based derived system and Frobenius test, the dual-number
elimination the ansatz screen's row-space test replaced (with the
symbolic directional derivatives that forward-mode residues replaced and
the GF(p) span test that the rank-one test replaced), the nested-generator
tuple stream that the scan's flat class stream replaced, the
tree-walk compiler the straight-line programs replaced, the
Fraction-based sum and product the int-pair constructors replaced, and
the Newton recovery that re-gathered every sample on each iteration,
which the compacted working set replaced; and the span membership and
k-form sums that only the tests use."""

from fractions import Fraction

import pytest

from flatdec import decompose
from flatdec.decompose import monomial_pool, run_decomposition
from flatdec.exterior import (
    KForm, T, VectorField, d, one_coeffs, oneform, wedge,
)
from flatdec.linalg import ZeroCtx, in_span, nullspace
from flatdec.pfaffian import (
    PfaffianSystem, contraction_tables, jet, vertical_annihilator,
)
from flatdec.symexpr import (
    INPUT, MINUS_ONE, ONE, PRIME, ZERO, Add, Const, Func, Mul, Pow, Var, add,
    const, diff, mul, pow_, structural_key, value_mod_p,
)
from flatdec.sysdsl import parse_system
from flatdec.triangular import _SampleDiverged, _SampleSingular

SIN_SYS = """
system sinex {
  states: x1, x2, x3;
  inputs: u1, u2;
  dot(x1) = u1;
  dot(x2) = u2;
  dot(x3) = sin(u1/u2);
}
"""

COUPLED_SYS = """
system coupled {
  states: x1, x2, x3, x4;
  inputs: u1, u2;
  dot(x1) = x2 + x3*u2;
  dot(x2) = x3 + x1*u2;
  dot(x3) = u1 + x2*u2;
  dot(x4) = u2;
}
"""


def dx(chart, sym) -> KForm:
    return oneform(chart, {sym: ONE})


def dt(chart) -> KForm:
    return dx(chart, T)


def scale(a: KForm, e) -> KForm:
    return KForm(a.chart, a.degree, {i: mul(e, c) for i, c in a.coeffs.items()})


def form_add(a: KForm, b: KForm) -> KForm:
    assert a.chart == b.chart and a.degree == b.degree
    out = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        out[idx] = add(out.get(idx, ZERO), c)
    return KForm(a.chart, a.degree, out)


def form_sub(a: KForm, b: KForm) -> KForm:
    return form_add(a, scale(b, MINUS_ONE))


def contains(span, x, zc) -> bool:
    """Whether the 1-form or vector field x lies in span, a Pfaffian system
    or a tuple of fields; never off span's chart."""
    if isinstance(x, VectorField):
        if any(v.chart != x.chart for v in span):
            return False
        axes = x.chart.axes
        rows = [[v.comp(s) for s in axes] for v in span]
        return in_span(rows, [[x.comp(s) for s in axes]], zc)
    if x.chart != span.chart:
        return False
    coeffs = one_coeffs(x)
    row = [coeffs.get(s, ZERO) for s in span.chart.axes]
    return in_span(span.rows(), [row], zc)


def _members(span):
    return span if isinstance(span, tuple) else span.generators


def same_span(a, b, zc) -> bool:
    """Two Pfaffian systems, or two tuples of fields, span the same
    space."""
    return (all(contains(a, g, zc) for g in _members(b))
            and all(contains(b, g, zc) for g in _members(a)))


def search(cs):
    """run_decomposition with the command line's defaults: 20 samples,
    seed 0."""
    return run_decomposition(cs, ZeroCtx(0))


def tables(P, zc):
    """P's contraction tables over a basis of its vertical annihilator."""
    return contraction_tables(P, vertical_annihilator(P, zc))


def wedge_derived_system(P, zc):
    """Reference derived system: the combinations p of P's generators with
    dp ^ Omega = 0, Omega the wedge of all generators."""
    if P.dim == 0:
        return P
    omega = P.top_form()
    weighted = [wedge(d(g), omega) for g in P.generators]
    keys = sorted({idx for w in weighted for idx in w.coeffs})
    rows = [[w.coeffs.get(idx, ZERO) for w in weighted] for idx in keys]
    combos = []
    for a in nullspace(rows, P.dim, zc):
        f = KForm(P.chart, 1, {})
        for aj, g in zip(a, P.generators):
            f = form_add(f, scale(g, aj))
        combos.append(f)
    return PfaffianSystem(P.chart, combos, zc)


def wedge_integrable_with_dt(P, zc):
    """Reference Frobenius test of {P, dt}: dg ^ Omega ^ dt = 0 for every
    generator g."""
    if P.dim == 0:
        return True
    base = wedge(P.top_form(), dt(P.chart))
    return all(zc.zero(c) for g in P.generators
               for c in wedge(d(g), base).coeffs.values())


def dual_rref_mod_p(vals, ders=None):
    """Reduced row echelon of vals + eps*ders over GF(PRIME)[eps]/eps^2.

    Pivots are chosen by value parts and divided to 1; (a + eps*a')^-1 is
    a^-1 - eps*a'*a^-2.  Returns (vals, ders, pivot columns) of the rows
    that carry a pivot.  With ders None this is plain GF(PRIME) elimination,
    and the ders returned is None.
    """
    p = PRIME
    vals = [list(r) for r in vals]
    ders = None if ders is None else [list(r) for r in ders]
    ncols = len(vals[0]) if vals else 0
    pivots = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(vals)) if vals[i][c]), None)
        if i is None:
            continue
        vals[r], vals[i] = vals[i], vals[r]
        row = vals[r]
        inv = pow(row[c], -1, p)
        pv = vals[r] = [x * inv % p for x in row]
        if ders is not None:
            ders[r], ders[i] = ders[i], ders[r]
            dinv = -ders[r][c] * inv * inv % p
            pd = ders[r] = [(dx * inv + x * dinv) % p
                            for x, dx in zip(row, ders[r])]
        for i in range(len(vals)):
            fv, fd = vals[i][c], 0 if ders is None else ders[i][c]
            if i == r or not (fv or fd):
                continue
            vals[i] = [(x - fv * y) % p for x, y in zip(vals[i], pv)]
            if ders is not None:
                ders[i] = [(dx - fv * dy - fd * y) % p
                           for dx, y, dy in zip(ders[i], pv, pd)]
        pivots.append(c)
        r += 1
    return vals[:r], None if ders is None else ders[:r], pivots


def dual_nullspace_mod_p(vals, ders, ncols: int):
    """Right nullspace of M = vals + eps*ders over GF(PRIME)[eps]/eps^2.

    Returns one (a, a') per non-pivot column f, with a[f] = 1.  When vals
    and ders are a matrix M(z) of rational functions and its derivative
    v(M)(z) along a field v, and the rank of M(z) is M's generic rank,
    a + eps*a' is the value and the v-derivative at z of the nullspace
    basis with the same pivot columns: M a = 0 differentiates to
    v(M) a + M v(a) = 0, which the dual elimination solves.
    """
    red, dred, pivots = dual_rref_mod_p(vals, ders)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        a, da = [0] * ncols, [0] * ncols
        a[f] = 1
        for row, drow, c in zip(red, dred, pivots):
            a[c], da[c] = -row[f] % PRIME, -drow[f] % PRIME
        basis.append((a, da))
    return basis


def in_span_mod_p(red, pivots, row) -> bool:
    """Whether row lies in the span of the rows red of an inverse-free
    GF(PRIME) elimination (row_echelon_mod_p), pivot columns pivots: row
    is cross-multiplied against each pivot row in turn, and lies in the
    span when nothing remains."""
    p = PRIME
    for prow, c in zip(red, pivots):
        f = row[c]
        if f:
            a = prow[c]
            row = [(a * x - f * y) % p for x, y in zip(row, prow)]
    return not any(row)


def tuple_stream(pool, k: int):
    """Coefficient tuples as indices into [ZERO] + pool, by nested
    generators: the whole product by ascending total size, ties in the
    order of the entries' structural keys.  pool is a list of monomials
    headed by ONE, cut to its simplest entries while the product has more
    than 200,000 tuples."""
    n = len(pool)
    while (n + 1) ** k > 200_000:
        n //= 2
    items = [ZERO] + list(pool[:n])
    ranked = sorted(range(len(items)), key=lambda i: structural_key(items[i]))
    nodes = [x.nodes for x in items]
    lo, hi = min(nodes), max(nodes)
    by_size = {}
    for i in ranked:
        by_size.setdefault(nodes[i], []).append(i)

    def fill(j, size):
        """Index tuples of length j whose sizes sum to size, in key order."""
        if j == 0:
            if size == 0:
                yield ()
        elif j == 1:
            yield from ((i,) for i in by_size.get(size, ()))
        else:
            for i in ranked:
                rest = size - nodes[i]
                if lo * (j - 1) <= rest <= hi * (j - 1):
                    yield from ((i,) + t for t in fill(j - 1, rest))

    for size in range(k * lo, k * hi + 1):
        yield from fill(k, size)


def projective_key(codes):
    """The class of a monomial tuple up to a common monomial factor, from
    the entries' exponent codes (None for ZERO): each code minus the lead
    entry's.  None for the zero tuple."""
    live = [e for e in codes if e is not None]
    if not live:
        return None
    lead = live[0]
    return tuple([None if e is None else e - lead for e in codes])


def nested_coefficient_vectors(chart, k: int):
    """The ansatz scan's coefficient tuples from tuple_stream and
    projective_key: the unit vectors, then the first tuple of each class,
    at most decompose.MAX_CANDIDATES in all."""
    cap = decompose.MAX_CANDIDATES
    seen = set()
    for i in range(k):
        if len(seen) >= cap:
            return
        seen.add(tuple(0 if j == i else None for j in range(k)))
        yield tuple(ONE if j == i else ZERO for j in range(k))
    pool = monomial_pool(chart)
    items = [ZERO] + [m for m, _ in pool]
    radix = 4 * decompose.MAX_DEGREE + 1
    codes = [None] + [sum(e * radix ** s for s, e in enumerate(expo))
                      for _, expo in pool]
    for t in tuple_stream(items[1:], k):
        if len(seen) >= cap:
            return
        key = projective_key([codes[i] for i in t])
        if key is None or key in seen:
            continue
        seen.add(key)
        yield tuple(items[i] for i in t)


def _lincomb(coeffs, rows):
    """sum_i coeffs[i] * rows[i] over GF(PRIME), for rows of residues."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [o + c * x for o, x in zip(out, row)]
    return [o % PRIME for o in out]


def dual_pencil_at(level, cv, dcv):
    """M(z) and v(M)(z), from c_i(z) = cv[i] and b_l(c_i)(z) = dcv[i][l]."""
    _, _, T, dT = level
    k = len(cv)
    # v(c_i) = sum_l c_l b_l(c_i); v(T_i) = sum_l c_l b_l(T_i)
    vc = [sum(cv[l] * dcv[i][l] for l in range(k)) % PRIME for i in range(k)]
    cc = [cv[i] * cv[l] for i in range(k) for l in range(k)]
    M, dM = [], []
    for r in range(len(T[0])):
        Tr = [Ti[r] for Ti in T]
        M.append(_lincomb(cv, Tr))
        dM.append(_lincomb(vc + cc, Tr + [dT[l][i][r] for i in range(k)
                                          for l in range(k)]))
    return M, dM


def along(v, e):
    """Directional derivative v(e) = sum_s v^s de/ds, built symbolically."""
    return add(*(mul(vs, diff(e, s)) for s, vs in v.components.items()))


class DualScreen:
    """Reference verdicts of the ansatz screen on a level, by elimination
    over the dual numbers.  At point 0, z, of the zero test's stream,
    a_k + eps*v(a_k) solves (M + eps*v(M))(z) a = 0,
    p_k = sum_j a_kj g_j, and

        (v.dp_k)(z) = sum_j v(a_kj)(z) g_j(z) + a_kj(z) sum_i c_i(z) (b_i.dg_j)(z).

    `decide(c)` is "skip" when the nullity of M(z) is below want = m - 1,
    "reject" when P(z) = [p_k(z)] has rank want and some (v.dp_k)(z) is
    outside its span, "accept" when it has rank want and every (v.dp_k)(z)
    is inside, None otherwise, a pole at z of the level or of c included.
    It reads the level's expressions from a _Screen and builds the
    derivatives b_l(T_i) symbolically.
    """

    def __init__(self, screen):
        self.screen = screen
        dT = [[[[along(b, e) for e in row] for row in Ti]
               for Ti in screen.T] for b in screen.basis]

        def at(x):
            if isinstance(x, (list, tuple)):
                out = [at(y) for y in x]
                return None if any(y is None for y in out) else out
            return value_mod_p(x, 0, screen.zc.seed)

        # g_j, C_i, T_i and b_l(T_i) at z as residues, None at a pole
        vals = [at(x) for x in (screen.g, screen.C, screen.T, dT)]
        self.level = None if None in vals else vals

    def decide(self, c):
        sc = self.screen
        seed = sc.zc.seed
        level = self.level
        if level is None:
            return None
        cv = [value_mod_p(x, 0, seed) for x in c]
        dcv = [[value_mod_p(along(b, x), 0, seed) for b in sc.basis]
               for x in c]
        if None in cv or any(None in row for row in dcv):
            return None
        g, C, _, _ = level
        m = len(g)
        want = m - 1
        sols = dual_nullspace_mod_p(*dual_pencil_at(level, cv, dcv), m)
        if len(sols) < want:
            return "skip"
        if len(sols) > want:
            return None
        red, _, pivots = dual_rref_mod_p([_lincomb(a, g) for a, _ in sols])
        if len(pivots) < want:
            return None
        vC = [_lincomb(cv, [Ci[j] for Ci in C]) for j in range(m)]
        W = (_lincomb(da + a, g + vC) for a, da in sols)
        if any(not in_span_mod_p(red, pivots, w) for w in W):
            return "reject"
        return "accept"


def _tree_source(e, names, module) -> str:
    """Python source of e as one nested expression, each subtree written out
    wherever it occurs: symbols as names[sym], functions as `_m.<name>`."""
    if isinstance(e, Const):
        if e.d == 1:
            return f"({e.n})"
        return f"({e.n}/{e.d})"
    if isinstance(e, Var):
        return names[e.sym]
    if isinstance(e, Add):
        return "(" + "+".join(_tree_source(t, names, module) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_tree_source(f, names, module) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"({_tree_source(e.base, names, module)})**({e.exp})"
    if isinstance(e, Func):
        name = "log" if e.fn == "ln" else e.fn
        # math spells the inverse functions asin/atan, numpy arcsin/arctan
        if not hasattr(module, name):
            name = "a" + name[3:]
        return f"_m.{name}({_tree_source(e.arg, names, module)})"
    raise TypeError(f"not an Expr: {e!r}")


def tree_compile(e, args, module):
    """Reference compiler: e as one nested expression of the sequence `_a`,
    indexed like args, with functions from module.  With math it maps floats
    to a float and raises on domain violations; with numpy each `_a[i]` may
    be an array of samples (a constant e gives a scalar), and domain
    violations give nan or inf."""
    names = {s: f"_a[{i}]" for i, s in enumerate(args)}
    return eval(f"lambda _a: {_tree_source(e, names, module)}", {"_m": module})


def fraction_coeff_core(term):
    """Reference split of a canonical term into (Fraction coefficient, core)."""
    if isinstance(term, Const):
        return Fraction(term.n, term.d), ONE
    if isinstance(term, Mul):
        for i, f in enumerate(term.factors):
            if isinstance(f, Const):
                rest = term.factors[:i] + term.factors[i + 1:]
                core = rest[0] if len(rest) == 1 else Mul(rest)
                return Fraction(f.n, f.d), core
        return Fraction(1), term
    return Fraction(1), term


def fraction_add(*terms):
    """Reference sum: `add` with its coefficients folded as Fractions."""
    acc = {}   # core -> coefficient
    csum = Fraction(0)
    stack = list(terms)
    for t in stack:
        if isinstance(t, Add):
            stack.extend(t.terms)
            continue
        if isinstance(t, Const):
            csum += Fraction(t.n, t.d)
            continue
        coeff, core = fraction_coeff_core(t)
        if core is ONE:
            csum += coeff
            continue
        acc[core] = acc[core] + coeff if core in acc else coeff
    out = []
    for core, coeff in acc.items():
        if coeff == 0:
            continue
        if coeff == 1:
            out.append(core)
        elif isinstance(core, Mul):
            out.append(Mul(tuple(sorted((const(coeff),) + core.factors,
                                        key=lambda e: e.key))))
        else:
            out.append(Mul(tuple(sorted((const(coeff), core),
                                        key=lambda e: e.key))))
    if csum != 0:
        out.append(const(csum))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Add(tuple(out))


def fraction_mul(*factors):
    """Reference product: `mul` with its coefficient folded as a Fraction."""
    coeff = Fraction(1)
    powers = {}  # base -> int exponent
    stack = list(factors)
    for f in stack:
        if isinstance(f, Mul):
            stack.extend(f.factors)
            continue
        if isinstance(f, Const):
            if f.n == 0:
                return ZERO
            coeff *= Fraction(f.n, f.d)
            continue
        if isinstance(f, Pow):
            base, e = f.base, f.exp
        else:
            base, e = f, 1
        powers[base] = powers.get(base, 0) + e
    out = []
    for base, e in powers.items():
        if e == 0:
            continue
        p = pow_(base, e)
        if isinstance(p, Const):
            coeff *= Fraction(p.n, p.d)
            if coeff == 0:
                return ZERO
        else:
            out.append(p)
    if not out:
        return const(coeff)
    if coeff == 0:
        return ZERO
    if coeff != 1:
        out.append(const(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.key)
    return Mul(tuple(out))


def _reference_solve(jac, rhs):
    import numpy as np
    if jac.ndim == 1:
        return rhs / jac
    return np.linalg.solve(jac, rhs.T[:, :, None])[:, :, 0].T


def reference_recover_trajectory(engine, curves, ts, guess):
    """Reference recovery: `recover_trajectory` as it was before the working
    set was compacted.  Each Newton iteration gathers the still-iterating
    samples from the block afresh, filters them after every test and
    scatters the step back into the block."""
    import numpy as np
    if len(curves) != len(engine.flat):
        raise ValueError(
            f"{len(curves)} curves supplied for {len(engine.flat)} outputs")
    n = len(ts)
    vals = np.zeros((len(engine.args), n))
    for c, curve in zip(engine.flat, curves):
        for j in range(engine.n_b + 1):
            vals[engine.slot[jet(c, j)]] = curve.eval(ts, j)
    alive = np.ones(n, dtype=bool)
    failures = {}

    def fail(kind, block, idx, what):
        alive[idx] = False
        for k in idx.tolist():
            failures[k] = kind(block,
                               f"{what} in block {block} at t={float(ts[k])}")

    def jacobian(block, jf, size, idx, a):
        jac = jf(a)
        if size == 1:
            jac = det = jac[0]
            finite = np.isfinite(jac)
        else:
            jac = jac.reshape(size, size, -1).transpose(2, 0, 1)
            finite = np.isfinite(jac).all(axis=(1, 2))
            det = np.zeros(len(idx))
            det[finite] = np.linalg.det(jac[finite])
        fail(_SampleSingular, block, idx[~finite],
             "domain violation (non-finite Jacobian)")
        singular = finite & (np.abs(det) < 1e-12)
        fail(_SampleSingular, block, idx[singular], "singular Jacobian")
        keep = finite & ~singular
        return keep, jac[keep]

    with np.errstate(all="ignore"):
        for bi, (unknowns, need, rows, rf, jf, *chains) in enumerate(
                engine.blocks, start=1):
            size = len(unknowns)
            blk = vals[need]
            for r, p in zip(rows[0], unknowns):
                blk[r] = guess.get(p.name, 0.0)
            idx = np.flatnonzero(alive)
            for _ in range(60):
                if not idx.size:
                    break
                a = blk[:, idx]
                res = rf(a)
                finite = np.isfinite(res).all(axis=0)
                fail(_SampleSingular, bi, idx[~finite],
                     "domain violation (non-finite residual)")
                todo = finite & (np.abs(res).max(axis=0, initial=0.0) >= 1e-12)
                idx, a, res = idx[todo], a[:, todo], res[:, todo]
                keep, jac = jacobian(bi, jf, size, idx, a)
                idx, res = idx[keep], res[:, keep]
                cells = np.ix_(rows[0], idx)
                blk[cells] += _reference_solve(jac, -res)
                blown = np.abs(blk[cells]).max(axis=0, initial=0.0) > 1e9
                fail(_SampleDiverged, bi, idx[blown], "Newton blow-up")
                idx = idx[~blown]
            else:
                fail(_SampleDiverged, bi, idx, "no convergence")

            idx = np.flatnonzero(alive)
            a = blk[:, idx]
            keep, jac = jacobian(bi, jf, size, idx, a)
            idx, a = idx[keep], a[:, keep]
            for cf, rj in zip(chains, rows[1:]):
                sol = _reference_solve(jac, -cf(a))
                a[rj] = sol
                finite = np.isfinite(sol).all(axis=0)
                fail(_SampleSingular, bi, idx[~finite],
                     "domain violation (non-finite derivative)")
                idx, a, jac = idx[finite], a[:, finite], jac[finite]
            blk[:, idx] = a
            vals[need] = blk

        xu = engine.base_f(vals)
    x, u = {}, {}
    for s, row in zip(engine.base_coords, xu):
        (u if s.kind == INPUT else x)[s.name] = row
    return vals, x, u, failures


def chain_text(n: int) -> str:
    lines = [f"system chain{n} {{"]
    lines.append("  states: " + ", ".join(f"x{i}" for i in range(1, n + 1)) + ";")
    lines.append("  inputs: u;")
    for i in range(1, n):
        lines.append(f"  dot(x{i}) = x{i + 1};")
    lines.append(f"  dot(x{n}) = u;")
    lines.append("}")
    return "\n".join(lines)


@pytest.fixture
def sin_sys():
    return parse_system(SIN_SYS)


# session-scoped copies so expensive decomposition fixtures can share them

@pytest.fixture(scope="session")
def sin_sys_m():
    return parse_system(SIN_SYS)


@pytest.fixture(scope="session")
def coupled_sys_m():
    return parse_system(COUPLED_SYS)


@pytest.fixture(scope="session")
def chain_m():
    return parse_system(chain_text(2))


@pytest.fixture
def coupled_sys():
    return parse_system(COUPLED_SYS)


@pytest.fixture
def chain():
    return lambda n: parse_system(chain_text(n))


@pytest.fixture
def zc():
    return ZeroCtx(0)
