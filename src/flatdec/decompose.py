"""Search for block-triangular splittings of a control Pfaffian system.

Each reduction level picks an involutive set of vertical directions F,
finds a subsystem of matching codimension that is invariant along F,
straightens the flows of F, and drops the flow parameters from the chart.
A branch that empties the system yields the data a flat-output certificate
is assembled from; branches are explored depth first with backtracking.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from operator import mul as times

from .exterior import (
    ChartTransform, NotSolvable, VectorField, compose, one_coeffs, oneform,
    pullback, pushforward, straighten_flow,
)
from .linalg import (
    ZeroCtx, independent_rows, nullspace, row_echelon_mod_p,
)
from .pfaffian import (
    NotReducible, PfaffianSystem, contraction_tables, derived_system,
    from_control_system, is_characteristic, is_involutive,
    restrict_to_subchart, solves_for, span_from_solutions,
    vertical_annihilator,
)
from .symexpr import (
    ONE, PRIME, ZERO, Var, add, derivatives_mod_p, evaluable_mod_p, mul,
    pow_, structural_key, value_mod_p, var,
)
from .sysdsl import field_dict, form_dict, render


# coefficient tuples the ansatz scan tries per level
MAX_CANDIDATES = 512


@dataclass(frozen=True)
class Splitting:
    """One verified reduction level.

    F, a tuple of independent fields, lives on the level's chart, S_next
    on the reduced chart obtained by dropping the flow parameters (nondrv),
    and S_comp on the intermediate straightened chart, which is
    transform.source.
    """

    F: tuple
    S_next: PfaffianSystem
    S_comp: PfaffianSystem
    transform: ChartTransform
    nondrv: tuple


@dataclass(frozen=True)
class DecompositionResult:
    status: str  # Triangularized | Inconclusive
    sequence: tuple
    branch_log: tuple


# -- chart and field helpers -------------------------------------------------------

def _lift_through(phi: ChartTransform, g):
    """Carry a form on a subchart of phi.source back to phi.target."""
    injected = oneform(phi.source, one_coeffs(g))
    return pullback(_reversed(phi), injected)


def _reversed(phi: ChartTransform) -> ChartTransform:
    return ChartTransform(phi.target, phi.source,
                          dict(phi.inverse), dict(phi.forward))


def _combine(c, basis):
    """The field sum_i c_i b_i, multiplied out only where c_i is not ZERO
    and b_i has a component."""
    chart = basis[0].chart
    terms = {}
    for ci, b in zip(c, basis):
        if ci is not ZERO:
            for s, e in b.components.items():
                terms.setdefault(s, []).append(mul(ci, e))
    return VectorField(chart, {s: add(*terms[s]) for s in chart.axes
                               if s in terms})


# -- the necessary condition --------------------------------------------------------

def _bounded_exponents(n: int, d: int):
    """Integer vectors of length n with absolute values summing to at most d."""
    if n == 0:
        yield ()
        return
    for e in range(-d, d + 1):
        for rest in _bounded_exponents(n - 1, d - abs(e)):
            yield (e,) + rest


def monomial_pool(chart, max_degree: int):
    """Monomials of bounded total absolute degree in the chart coordinates,
    as (monomial, exponent vector) pairs, simplest monomial first.

    Negative exponents are included; coordinates are treated as generically
    nonzero, which matches how the probabilistic zero test samples points.
    """
    coords = chart.coords
    out = []
    for expo in _bounded_exponents(len(coords), max_degree):
        factors = [pow_(var(s), e) for s, e in zip(coords, expo) if e]
        out.append((mul(*factors) if factors else ONE, expo))
    return sorted(out, key=lambda m: (m[0].nodes, structural_key(m[0])))


_SKIP, _REJECT, _ACCEPT = "skip", "reject", "accept"
_LAST = "last"  # a class key's entry for a tuple's last monomial
_NOT_CHARACTERISTIC = "fields are not characteristic for the candidate"


class _Screen:
    """Decides a single-field candidate at point 0 of the zero test's
    shared stream, over GF(PRIME).

    A level has generators g_j, vertical basis b_i, contractions
    C_i[j] = b_i.dg_j and tables T_i.  For a coefficient vector c,
    v = sum_i c_i b_i and M = sum_i c_i T_i, whose nullspace vectors a give
    the candidate's forms p = sum_j a_j g_j.  At that point z, where
    G = [g_j(z)] has full row rank m, reducing each C_i[j](z) against it
    splits C_i[j] = Y_i[j] G + R_i[j] with R_i[j] zero on G's pivot
    columns.  Since v.g_j = 0 for a vertical field,
    v.dp = (v(a) + Y_c^T a) G + R_c^T a.  M a = 0 says
    (R_c^T a) ^ g_1 ^ ... ^ g_m = 0, so R_c^T a lies in the span of G and,
    zero on its pivot columns, vanishes; with M v(a) = -v(M) a, v.dp lies
    in the span of P = [p] exactly when (M Y_c^T - v(M)) a = 0.
    Over all of null M(z) that reads: the rows of

        Q = sum_il c_i c_l H_il - sum_i v(c_i) T_i,
        H_il = T_i Y_l^T - b_l(T_i),

    lie in the row space of M(z).  The generators of S are independent,
    so the candidate's nullity `want` = S.dim - 1 is m - 1 on every level,
    and the skip rank m - want + 1 is always 2: a nullity of `want` is a
    rank of one, and then the row space of M(z) is the line through its
    first nonzero row u.  With u[p] the first nonzero entry of u, a row r
    lies on that line exactly when r[j] u[p] = r[p] u[j] for every j.
    `decide(c)` returns _SKIP as soon as a row of M(z) is off the line
    (the rank is 2 or more, so the nullity of M(z) is below `want`, and
    the symbolic nullity cannot exceed it), _REJECT when M(z) has rank one
    and some row of Q(z) is off the line (then some v.dp is outside the
    span of P, so is_characteristic fails and the search rejects c),
    _ACCEPT when every row of Q(z) is on it (then c's field is
    characteristic for the candidate, and the search takes that without
    the symbolic is_characteristic), and None, leaving c to the symbolic
    path, in every other case: M(z) = 0 (nullity m, above `want`), a
    rank-deficient G(z), or a pole at z of the level or of c.  These are
    exactly the verdicts of an elimination of M(z) with a row-space test
    of each Q(z) row, but no elimination runs per candidate: the tables
    T_i(z) and the Q rows (H_il(z), T_i(z)) are stored column-wise once
    per level (`level`), so each entry of M(z) and Q(z) is one dot
    product with the coefficients, and only G(z) is eliminated, by the
    inverse-free row_echelon_mod_p, with its pivot rows divided once per
    level.
    Error bound: a skip, a rejection or an accept differs from the
    symbolic path's decision only if z lies on the zero set of a nonzero
    minor of M, G or [M; Q] (a wrong accept needs one of [M; Q], since a
    Q row outside the generic row space of M keeps some minor of [M; Q]
    nonzero), a rational function whose numerator has some degree d; that
    happens with probability at most d/(p - 1), p = PRIME, per candidate
    (Schwartz-Zippel).  The derivatives b_l(T_i)(z) and b_l(c_i)(z) are
    taken forward-mode at z from the basis fields' residues there
    (derivatives_mod_p), exactly, and no symbolic derivative is built.
    The screen is usable when the level's expressions together have values
    mod PRIME (evaluable_mod_p), so that sin, cos, tan and exp read one set
    of residues across the level.
    """

    def __init__(self, S: PfaffianSystem, basis, tabs, zc: ZeroCtx):
        C, tables, keys = tabs
        axes = S.chart.axes
        self.basis = basis
        self.zc = zc
        self.g = [[one_coeffs(g).get(s, ZERO) for s in axes] for g in S.generators]
        self.C = [[[one_coeffs(w).get(s, ZERO) for s in axes] for w in Ci]
                  for Ci in C]
        zrow = [ZERO] * len(S.generators)
        self.T = [[tab.get(idx, zrow) for idx in keys] for tab in tables]
        self.usable = evaluable_mod_p(self._entries(), zc.seed)

    def _entries(self):
        yield from (e for row in self.g for e in row)
        yield from (e for Ci in self.C for row in Ci for e in row)
        yield from (e for Ti in self.T for row in Ti for e in row)
        yield from (e for b in self.basis for e in b.components.values())

    @cached_property
    def level(self):
        """The level at point 0, None at a pole: the basis fields' residues,
        the point's derivative memo (derivatives_mod_p) and its dict of
        coefficient residues, then the columns that M(z) and Q(z) read
        (_tables_at)."""
        seed = self.zc.seed

        def at(x):
            if isinstance(x, (list, tuple)):
                out = [at(y) for y in x]
                return None if any(y is None for y in out) else out
            return value_mod_p(x, 0, seed)

        vals = [at(x) for x in (self.g, self.C, self.T)]
        fields = [{s: at(e) for s, e in b.components.items()}
                  for b in self.basis]
        if None in vals or any(None in f.values() for f in fields):
            return None
        # dT[i][r][j][l] = b_l(T_i[r][j])(z), defined where T(z) is
        memo = {}
        dT = [[[derivatives_mod_p(e, 0, seed, fields, memo) for e in row]
               for row in Ti] for Ti in self.T]
        return (fields, memo, {}, *self._tables_at(*vals, dT))

    @staticmethod
    def _tables_at(g, C, T, dT):
        """Per row r of M and Q, per generator j, the column of the values
        that the coefficients combine: (T_i[r][j])_i for M(z), and
        ((H_il[r][j])_il, (T_i[r][j])_i) for Q(z), or None for Q when G(z)
        is rank-deficient."""
        m, n = len(g), len(g[0])
        Trows = [[Ti[r] for Ti in T] for r in range(len(T[0]))]
        Tcols = [list(zip(*Trow)) for Trow in Trows]
        # [G | I] reduces to [rref G | E] with rref G = E G; the pivot rows
        # come back undivided, and dividing each by its pivot gives E
        red, pivots = row_echelon_mod_p(
            [row + [int(i == j) for i in range(m)] for j, row in enumerate(g)])
        if len(pivots) < m or pivots[-1] >= n:
            return Tcols, None
        E = []
        for row, c in zip(red, pivots):
            inv = pow(row[c], -1, PRIME)
            E.append([x * inv % PRIME for x in row[n:]])
        Ecols = list(zip(*E))
        # Y_l[j]: C_l[j] on G's pivot columns, times E
        Y = [[[sum(map(times, [w[c] for c in pivots], col)) % PRIME
               for col in Ecols] for w in Cl] for Cl in C]
        k = len(T)
        Qcols = []
        for r, Trow in enumerate(Trows):
            H = [[(sum(map(times, Trow[i], Y[l][j])) - dT[i][r][j][l]) % PRIME
                  for j in range(m)] for i in range(k) for l in range(k)]
            Qcols.append(list(zip(*(H + Trow))))
        return Tcols, Qcols

    def _residues_at(self, x):
        """c(z) and (b_l(c)(z))_l for one coefficient c, None at a pole."""
        fields, memo, known = self.level[:3]
        if x not in known:
            seed = self.zc.seed
            ders = derivatives_mod_p(x, 0, seed, fields, memo)
            known[x] = (None if ders is None
                        else (value_mod_p(x, 0, seed), ders))
        return known[x]

    def decide(self, c):
        level = self.level
        if level is None:
            return None
        known = level[2]
        res = [known.get(x) or self._residues_at(x) for x in c]
        if None in res:
            return None
        Tcols, Qcols = level[3:]
        cv = [r[0] for r in res]
        u = None
        for row in Tcols:
            if u is not None:
                if not _on_line(cv, row, u, p):
                    return _SKIP
                continue
            r = [sum(map(times, cv, col)) % PRIME for col in row]
            if any(r):
                u = r
                p = u.index(next(filter(None, u)))
        if u is None or Qcols is None:
            return None
        # c_i c_l, then -v(c_i) = -sum_l c_l b_l(c_i)
        coeffs = [a * b for a in cv for b in cv]
        coeffs += [-sum(map(times, cv, r[1])) for r in res]
        for row in Qcols:
            if not _on_line(coeffs, row, u, p):
                return _REJECT
        return _ACCEPT


def _on_line(coeffs, cols, u, p: int) -> bool:
    """Whether the row of residues (coeffs . col) over the columns cols is
    a multiple of u, u[p] nonzero; entries are summed only up to the first
    one off the line."""
    a = u[p]
    f = sum(map(times, coeffs, cols[p]))
    for j, col in enumerate(cols):
        if j != p and (a * sum(map(times, coeffs, col)) - f * u[j]) % PRIME:
            return False
    return True


def _coefficient_vectors(chart, k: int, max_degree: int):
    """The scan's coefficient tuples: simplest first, one per projective
    class, at most MAX_CANDIDATES of them.  The k unit vectors come first;
    the monomial pool is built only for a scan that reads past them.

    Then come the tuples over [ZERO] + pool, each the first of its class
    up to a common monomial factor, in the order of ascending total size,
    ties in the order of the entries' structural keys.  The pool is cut to
    its simplest entries while that product has more than 200,000 tuples.
    The tuples of length k - 1 are listed once, by total size, and those
    of length k one size at a time, so a scan that stops early pays only
    for the sizes it reads.  Each monomial's exponent vector is read once
    as an integer code in radix 4d + 1, d the degree bound; a difference
    of two vectors has digits in [-2d, 2d], so it is told apart by its
    code.  A tuple's class key has, per entry, None for ZERO, and for a
    monomial the code of the next monomial entry minus its own, or _LAST
    for the last one: two tuples differ by a common monomial factor
    exactly when their keys agree, and the key of (i,) + t follows from
    t's key and its first monomial's code."""
    seen = set()
    for i in range(k):
        if len(seen) >= MAX_CANDIDATES:
            return
        seen.add(tuple(_LAST if j == i else None for j in range(k)))
        yield tuple(ONE if j == i else ZERO for j in range(k))
    if len(seen) >= MAX_CANDIDATES:
        return
    pool = monomial_pool(chart, max_degree)
    n = len(pool)
    while (n + 1) ** k > 200_000:
        n //= 2
    items = [ZERO] + [m for m, _ in pool[:n]]
    radix = 4 * max_degree + 1
    codes = [None] + [sum(e * radix ** s for s, e in enumerate(expo))
                      for _, expo in pool[:n]]
    ranked = sorted(range(n + 1), key=lambda i: structural_key(items[i]))
    nodes = [x.nodes for x in items]

    def extend(i, tails):
        """(i,) + t for each (t, key, lead) of tails, with its class key
        and the code of its first monomial (None when it has none)."""
        c = codes[i]
        if i == 0:
            return [((0,) + t, (None,) + key, lead) for t, key, lead in tails]
        return [((i,) + t, (_LAST if lead is None else lead - c,) + key, c)
                for t, key, lead in tails]

    # the tuples of length k - 1 by total size, each in key order
    tails = {0: [((), (), None)]}
    for _ in range(k - 1):
        longer = {}
        for i in ranked:
            for size, ts in tails.items():
                longer.setdefault(size + nodes[i], []).extend(extend(i, ts))
        tails = longer
    for size in range(k * min(nodes), k * max(nodes) + 1):
        for i in ranked:
            ts = tails.get(size - nodes[i])
            if not ts:
                continue
            for t, key, lead in extend(i, ts):
                if lead is None or key in seen:
                    continue
                seen.add(key)
                yield tuple(map(items.__getitem__, t))
                if len(seen) >= MAX_CANDIDATES:
                    return


def _pencil_rows(tables, keys, c, m: int):
    """The matrix M(c) = sum_i c_i T_i, one row per wedge index."""
    zrow = [ZERO] * m
    return [[add(*(mul(ci, tab.get(idx, zrow)[j])
                   for ci, tab in zip(c, tables) if ci is not ZERO))
             for j in range(m)] for idx in keys]


def _candidate_stream(S: PfaffianSystem, basis, tabs, max_degree: int,
                      zc: ZeroCtx):
    """Lazily yield single-field candidates (c, S_candidate, accepted)
    over the vertical basis, from the level's tables tabs
    (contraction_tables).

    On levels with values mod PRIME (evaluable_mod_p) each c first meets
    the sample-point screen (_Screen):
    candidates that fail the necessary condition there are skipped before
    anything symbolic is built, S_candidate is None when the screen has
    shown that c's field is not characteristic for it, and accepted is
    True when the screen has shown that it is.
    """
    k = len(basis)
    gens = S.generators
    want = S.dim - 1
    if k == 0 or want < 0:
        return
    _, tables, keys = tabs
    screen = _Screen(S, basis, tabs, zc)
    if not screen.usable:
        screen = None
    for c in _coefficient_vectors(S.chart, k, max_degree):
        verdict = screen.decide(c) if screen else None
        if verdict == _SKIP:
            continue
        if verdict == _REJECT:
            yield tuple(c), None, False
            continue
        sols = nullspace(_pencil_rows(tables, keys, c, len(gens)), len(gens), zc)
        if len(sols) != want:
            continue
        yield tuple(c), span_from_solutions(S, sols, zc), verdict == _ACCEPT


# -- straightening one level ---------------------------------------------------------

_PREFIX_LETTERS = "wqrsgehjkmnpv"


def _prefixes(reserved):
    """Deterministic, unending supply of fresh coordinate-name prefixes,
    read with next(): the letters, then the pairs of letters, then the
    triples and so on, that start no reserved name."""
    for n in count(1):
        for t in product(_PREFIX_LETTERS, repeat=n):
            p = "".join(t)
            if not any(name.startswith(p) for name in reserved):
                yield p


def _straighten_level(F: tuple, zc: ZeroCtx, naming):
    """Straighten the fields of F one after another.

    Returns (phi, params): phi maps the level chart from the fully
    straightened chart, params are the flow parameters in straightening
    order under their final names.  Raises NotSolvable when a transported
    field leaves the kept slice or has no closed-form flow.
    """
    phi = None
    params = []
    for v in F:
        if phi is None:
            cur = v
        else:
            moved = pushforward(_reversed(phi), v)
            comps = {}
            for s in moved.chart.coords:
                e = moved.comp(s)
                if e is ZERO:
                    continue
                if s in params:
                    if not zc.zero(e):
                        raise NotSolvable(
                            "transported field leaves the kept slice: "
                            + render(e) + " along " + s.name)
                    continue
                comps[s] = e
            cur = VectorField(moved.chart, comps)
        step = straighten_flow(cur, zc, next(naming))
        renamed = []
        for p in params:
            e = step.forward[p]
            if not isinstance(e, Var):
                raise NotSolvable(f"parameter {p.name} not carried rigidly")
            renamed.append(e.sym)
        params = renamed + [step.source.coords[-1]]
        phi = step if phi is None else compose(phi, step)
    return phi, params


def _complement(S: PfaffianSystem, S_sub: PfaffianSystem, zc: ZeroCtx):
    """Greedy extension of S_sub to all of S using the original generators:
    independent modulo S_sub, also once pulled back by a diffeomorphism."""
    kept, _ = independent_rows(S_sub.rows() + S.rows(), zc)
    return [S.generators[i - S_sub.dim] for i in kept if i >= S_sub.dim]


# -- one reduction layer ----------------------------------------------------------------

def reduce_once(S: PfaffianSystem, max_degree: int, zc: ZeroCtx, naming):
    """Branch-log entries and verified splittings of S, in search order.

    Order: the joint candidate over all vertical directions, then single
    combined fields by ascending coefficient size, up to the first one
    accepted.  Both read the contractions and row tables that
    contraction_tables builds once for the level; the joint candidate is
    derived_system over them.  A rejected joint candidate gets an entry of
    its own.  The scan's failed candidates are folded into one entry per
    outcome and note, with their count, first and last c and the first
    one's F; the entry for fields that are not characteristic has no F
    and comes last, and when nothing is accepted it is written, its count
    0 if need be, with a note that the scan is exhausted.
    """
    basis = vertical_annihilator(S, zc)
    tabs = contraction_tables(S, basis)
    entries, out = [], []
    folds = {}  # (outcome, note) -> the level's entry for scan candidates

    def fold(c, note, outcome="rejected", fields=()):
        entry = folds.get((outcome, note))
        if entry is None:
            entry = folds[outcome, note] = dict(
                kind="ansatz", outcome=outcome, note=note, count=0, first=c)
            if note != _NOT_CHARACTERISTIC:
                entry["F"] = [field_dict(v) for v in fields]
        entry["count"] += 1
        entry["last"] = c

    def consider(fields, cand, c=None, accepted=False):
        def reject(note, outcome="rejected"):
            if c is not None:
                return fold(c, note, outcome, fields)
            entries.append({"kind": "joint", "outcome": outcome, "note": note,
                            "F": [field_dict(v) for v in fields]})

        if S.dim != cand.dim + len(fields):
            return reject("size bookkeeping fails")
        if not accepted and not all(is_characteristic(v, cand, zc)
                                    for v in fields):
            return reject(_NOT_CHARACTERISTIC)
        # a scan field is one nonzero field, and the joint fields are the
        # vertical basis, which is involutive: F is involutive
        F = tuple(fields)
        try:
            phi, params = _straighten_level(F, zc, naming)
        except NotSolvable as ex:
            return reject(f"flow not solvable: {ex}", outcome="suspended")
        comp_gens = _complement(S, cand, zc)
        comp = PfaffianSystem(phi.source,
                              [pullback(phi, g) for g in comp_gens], zc)
        if not solves_for(comp.generators, params, zc):
            return reject("complement not parameterizable")
        try:
            nxt = restrict_to_subchart(cand, phi, params, zc)
        except NotReducible as ex:
            return reject(f"restriction blocked: {ex}")
        out.append(Splitting(F, nxt, comp, phi, tuple(params)))

    if 2 <= len(basis) <= S.dim and is_involutive(basis, zc):
        consider(basis, derived_system(S, tabs, zc))
    # The tuple stream is ordered simplest-first and deduplicated up to
    # scale, so the first field surviving the full check chain is kept and
    # the scan stops; alternatives at this level would only differ by a
    # more complicated coefficient vector.
    before = len(out)
    for c, cand, accepted in _candidate_stream(S, basis, tabs, max_degree,
                                               zc):
        if cand is None:
            fold(c, _NOT_CHARACTERISTIC)
            continue
        consider([_combine(c, basis)], cand, c=c, accepted=accepted)
        if len(out) > before:
            break
    if not out:
        tried = sum(e["count"] for e in folds.values())
        folds.setdefault(("rejected", _NOT_CHARACTERISTIC), dict(
            kind="ansatz", outcome="rejected", count=0))["note"] = (
            f"no admissible splitting within {MAX_CANDIDATES} coefficient "
            f"tuples ({tried} candidate subsystems rejected)")
    for e in folds.values():
        for end in {"first", "last"} & e.keys():
            e[end] = [render(x) for x in e[end]]
    return entries + sorted(folds.values(), key=lambda e: "F" not in e), out


# -- the full search -----------------------------------------------------------------------

def run_decomposition(cs, zc: ZeroCtx, max_degree: int) -> DecompositionResult:
    """Depth-first reduction of the system's Pfaffian form.

    Triangularized iff some branch empties the system, otherwise
    Inconclusive.  Every level lowers the dimension, so a branch is at most
    as deep as the system has states.  The ansatz scan combines the
    vertical fields with monomials of total degree up to max_degree.
    """
    S0 = from_control_system(cs, zc)
    naming = _prefixes({s.name for s in S0.chart.axes})
    log = []
    path = []

    def explore(S, level, parent):
        if S.dim == 0:
            return True
        entries, splits = reduce_once(S, max_degree, zc, naming)
        for ev in entries:
            ev.update(id=len(log), parent=parent, level=level)
            log.append(ev)
        for sp in splits:
            entry = {"id": len(log), "parent": parent, "level": level,
                     "kind": "splitting",
                     "F": [field_dict(v) for v in sp.F],
                     "S_next": [form_dict(g) for g in sp.S_next.generators],
                     # the same span expressed on the level's parent chart,
                     # so logged reductions can be checked from outside
                     "S_kept": [form_dict(_lift_through(sp.transform, g))
                                for g in sp.S_next.generators],
                     "params": [p.name for p in sp.nondrv],
                     "outcome": "extended", "note": ""}
            log.append(entry)
            path.append(sp)
            if explore(sp.S_next, level + 1, entry["id"]):
                entry["outcome"] = "success"
                return True
            entry["outcome"] = "dead_end"
            path.pop()
        return False

    status = "Triangularized" if explore(S0, 0, None) else "Inconclusive"
    return DecompositionResult(status=status, sequence=tuple(path),
                               branch_log=tuple(log))
