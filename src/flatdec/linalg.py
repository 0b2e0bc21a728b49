"""Generic-rank linear algebra over the function field of expressions.

Matrices are lists of equal-length lists of Expr.  All rank decisions are
probabilistic via the zero test, and elimination is fraction-free.  Every
yes/no span question (rank, membership, independence) is decided by one
greedy pass, independent_rows, whose remainders are zero-tested entry by
entry.  Bases come from row_echelon, the reduced form whose pivots are
divided to 1, which nullspace and the subchart restriction read.
Matrices of values at one sample point are eliminated over GF(PRIME) by
one inverse-free routine, row_echelon_mod_p: rows are cross-multiplied
and pivots stay undivided.  Scaling a row by a nonzero residue changes
neither the rank nor the row space, so the rank and span answers are
those of the reduced form, with the same d/(p - 1) error bound wherever
a rank at a point stands in for a generic rank.
"""

from __future__ import annotations

from .symexpr import (
    ONE, PRIME, ZERO, Add, Const, EvaluationFailed, Expr, Mul, Pow, add,
    diff, is_zero, mul, neg, pow_,
)


class RankDecisionFailed(RuntimeError):
    """The zero test ran out of valid sample points during elimination."""


class ZeroCtx:
    """Bundles the zero-test budget and seed so rank decisions are reproducible."""

    __slots__ = ("budget", "seed")

    def __init__(self, budget: int, seed: int):
        self.budget = budget
        self.seed = seed

    def zero(self, e: Expr) -> bool:
        try:
            return is_zero(e, budget=self.budget, seed=self.seed)
        except EvaluationFailed as exc:
            raise RankDecisionFailed(str(exc)) from exc

    def depends(self, e: Expr, s) -> bool:
        """Whether e depends on s: s occurs in e and de/ds does not test zero
        (s + 2 - (s + a + 2) mentions s without depending on it)."""
        return s in e.free and not self.zero(diff(e, s))


def row_echelon(rows, zc: ZeroCtx):
    """Reduced row echelon form with pivot division: pivot entries become 1.

    Returns (matrix, pivots) with pivots a list of (row, col).  Pivot choice
    is the syntactically smallest confirmed-nonzero entry in the column.
    Elimination is fraction-free; entries that test zero are replaced by
    the literal zero expression, and only the final division divides.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            e = rows[i][c]
            if e is ZERO:
                continue
            if zc.zero(e):
                rows[i][c] = ZERO
                continue
            if best is None or e.nodes < rows[best][c].nodes:
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        p = rows[r][c]
        for i in range(nrows):
            if i == r:
                continue
            e = rows[i][c]
            if e is ZERO:
                continue
            new = []
            for j in range(ncols):
                v = add(mul(p, rows[i][j]), neg(mul(e, rows[r][j])))
                if v is not ZERO and zc.zero(v):
                    v = ZERO
                new.append(v)
            rows[i] = new
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        p = rows[r][c]
        if p is ONE:
            continue
        inv = pow_(p, -1)
        rows[r] = [ZERO if e is ZERO else mul(inv, e) for e in rows[r]]
    return rows, pivots


def _remainder(row, echelon, zc: ZeroCtx):
    """Fraction-free remainder of row against echelon, a list of (row,
    pivot column) pairs from independent_rows.  Every entry of the result
    has passed the zero test: an entry that tests zero is the literal zero."""
    rem = [ZERO if e is ZERO or zc.zero(e) else e for e in row]
    for prow, c in echelon:
        e = rem[c]
        if e is ZERO:
            continue
        p = prow[c]
        rem = [add(mul(p, x), neg(mul(e, y))) for x, y in zip(rem, prow)]
        rem = [ZERO if v is ZERO or zc.zero(v) else v for v in rem]
    return rem


def independent_rows(rows, zc: ZeroCtx):
    """A maximal generically independent subset of rows, greedily front-first.

    One pass reduces each row against the remainders kept so far and keeps
    it when its remainder is not zero.  Returns (kept, echelon): the kept
    row indices, and per kept row its remainder with a pivot column, the
    column of its syntactically smallest nonzero entry.
    """
    kept, echelon = [], []
    for i, row in enumerate(rows):
        rem = _remainder(row, echelon, zc)
        live = [j for j, e in enumerate(rem) if e is not ZERO]
        if live:
            kept.append(i)
            echelon.append((rem, min(live, key=lambda j: rem[j].nodes)))
    return kept, echelon


def rank(rows, zc: ZeroCtx) -> int:
    return len(independent_rows(rows, zc)[0])


def in_span(span_rows, targets, zc: ZeroCtx) -> bool:
    """Whether every row of the iterable targets lies in the span of
    span_rows.  The span is eliminated once; targets are reduced lazily, up
    to the first one outside it."""
    _, echelon = independent_rows(span_rows, zc)
    return all(all(e is ZERO for e in _remainder(t, echelon, zc))
               for t in targets)


def _collect_dens(e: Expr, out: dict, seen: set) -> None:
    # negative powers under sums and products; Func args are opaque.  Nodes
    # are interned: a second visit of a shared node would repeat the max
    if e in seen:
        return
    seen.add(e)
    if isinstance(e, Pow) and e.exp < 0:
        out[e.base] = max(out.get(e.base, 0), -e.exp)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect_dens(f, out, seen)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect_dens(t, out, seen)


def _mul_through(e: Expr, factors) -> Expr:
    if e is ZERO:
        return ZERO
    if isinstance(e, Add):
        return add(*(_mul_through(t, factors) for t in e.terms))
    return mul(e, *factors)


def clear_denominators(vec):
    """Multiply a vector by the collected denominators of all its entries."""
    dens: dict = {}
    seen: set = set()
    for e in vec:
        _collect_dens(e, dens, seen)
    if dens:
        factors = [pow_(b, k) for b, k in dens.items()]
        vec = [_mul_through(e, factors) for e in vec]
    return vec


def _rational_coeff(e: Expr):
    if isinstance(e, Const):
        return e
    if isinstance(e, Mul):
        for f in e.factors:
            if isinstance(f, Const):
                return f
    return None


def normalize_leading(vec, zc: ZeroCtx):
    """Scale so the first generically nonzero entry has rational coefficient 1."""
    for e in vec:
        if e is ZERO or zc.zero(e):
            continue
        coeff = _rational_coeff(e)
        if coeff is not None and coeff not in (ZERO, ONE):
            inv = pow_(coeff, -1)
            return [ZERO if x is ZERO else mul(inv, x) for x in vec]
        return list(vec)
    return list(vec)


def nullspace(rows, ncols: int, zc: ZeroCtx):
    """Basis of the right nullspace, denominators cleared, leading coeff 1."""
    live = [r for r in rows if any(e is not ZERO for e in r)]
    red, pivots = row_echelon(live, zc)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in pivots:
            entry = red[r][f]
            if entry is not ZERO:
                v[c] = neg(entry)
        v = clear_denominators(v)
        basis.append(normalize_leading(v, zc))
    return basis


# -- elimination over GF(PRIME) ------------------------------------------------------

def row_echelon_mod_p(rows):
    """(rows, pivot columns) of a matrix of residues over GF(PRIME), by
    inverse-free Gauss-Jordan elimination.

    Each pivot is the first nonzero entry of its column.  Every other row
    with an entry f there is replaced by a * row - f * (pivot row), a the
    pivot, so nothing is divided: pivots stay undivided, and each returned
    row is a nonzero multiple of the reduced row echelon form's row with
    the same pivot.  Only the rows that carry a pivot are returned.
    """
    p = PRIME
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivots.append(c)
        pv = rows[r]
        a = pv[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(a * x - f * y) % p for x, y in zip(rows[i], pv)]
        r += 1
    return rows[:r], pivots

