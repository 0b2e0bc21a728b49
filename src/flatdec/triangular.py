"""Block-triangular implicit form: assembly, structure checks, trajectory recovery.

A finished reduction sequence is reassembled on its final chart as equation
blocks Xi^1..Xi^nb over coordinate blocks z^1..z^m, m = nb + 1.  Each block
Xi^i carries only dz^k with k <= i and solves algebraically for the block
i+1 non-derivative variables.  From that shape the flat outputs can be read
off, and trajectories are recovered block by block with Newton's method.
The numeric functions import numpy where they run, so the symbolic commands
never load it.
"""

import random
from dataclasses import dataclass

from .exterior import (
    T, VectorField, compose, extend_transform, identity_transform,
    one_coeffs, oneform, pullback,
)
from .linalg import ZeroCtx
from .pfaffian import (
    PfaffianSystem, is_characteristic, is_vertical, jet, residual,
    solves_for,
)
from .symexpr import (
    INPUT, ONE, ZERO, add, compile_expr, compile_rk4, diff, mul, var,
)


class StructureViolation(ValueError):
    """The assembled equations break the triangular dependence rules."""


class OutputCountMismatch(ValueError):
    """Number of candidate flat outputs differs from the input count."""


@dataclass(frozen=True)
class Block:
    """Coordinate block z^i = (y^i, zhat^i)."""

    index: int
    y: tuple
    nondrv: tuple

    @property
    def coords(self) -> tuple:
        return self.y + self.nondrv


@dataclass(frozen=True, eq=False)
class TriangularDecomposition:
    chart: object          # final chart, all blocks plus time
    blocks: tuple          # Block, index i at position i-1
    equations: tuple       # tuple per Xi^i of one-forms on chart
    transform: object      # original chart <- final chart
    system: object         # the ControlSystem the sequence came from

    @property
    def n_b(self) -> int:
        return len(self.equations)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def flat_coords(self) -> tuple:
        return tuple(c for blk in self.blocks for c in blk.y)


def _prefix_spans(chart, equations, zc: ZeroCtx) -> list:
    """The spans of Xi^1..Xi^j on chart, for j = 0..n_b: independent from a
    sequence (nested complements), maybe not from a certificate, which
    is_vertical and is_characteristic (through in_span) do not mind."""
    return [PfaffianSystem(chart, [g for xi in equations[:j] for g in xi], zc)
            for j in range(len(equations) + 1)]


def from_sequence(sequence, zc: ZeroCtx, system) -> TriangularDecomposition:
    """Assemble the triangular form from a completed reduction sequence.

    Level l's transform, extended by the flow parameters of the levels
    before it, maps its chart from the next level's.  One fold from the
    back composes them into the transform of the whole sequence, base
    chart from final chart (kept coordinates, then flow parameters newest
    first), and on the way into each level's tail, the chart after the
    level from the final chart.  The per-level complements are carried to
    the final chart through the tails; flow parameters become the
    non-derivative variables, newest level first, and the kept coordinates
    are sorted into blocks by how deep their Cauchy-characteristic
    property reaches.
    """
    if not sequence:
        raise StructureViolation("empty reduction sequence")
    if sequence[-1].S_next.dim != 0:
        raise StructureViolation("sequence does not end with an empty system")
    n_b = len(sequence)
    m = n_b + 1
    exts, params = [], ()
    for sp in sequence:
        exts.append(extend_transform(sp.transform, params))
        params = sp.nondrv + params
    final = exts[-1].source

    tails = [None] * n_b
    theta = identity_transform(final)
    for level in range(n_b - 1, -1, -1):
        tails[level] = theta
        theta = compose(exts[level], theta)

    equations = []
    for i in range(1, n_b + 1):
        level = n_b - i
        gens = []
        for g in sequence[level].S_comp.generators:
            w = oneform(exts[level].source, one_coeffs(g))
            gens.append(pullback(tails[level], w))
        equations.append(tuple(gens))
    equations = tuple(equations)

    spans = _prefix_spans(final, equations, zc)
    kept = sequence[-1].S_next.chart.coords
    member = {}
    for c in kept:
        v = VectorField(final, {c: ONE})
        depth = 0
        while depth < n_b and is_characteristic(v, spans[depth + 1], zc):
            depth += 1
        member[c] = 1 + depth
        if member[c] == m:
            raise StructureViolation(
                f"coordinate {c.name} is characteristic for the whole system")

    blocks = []
    for k in range(1, m + 1):
        ys = tuple(c for c in kept if member[c] == k)
        nondrv = tuple(sequence[m - k].nondrv) if k >= 2 else ()
        blocks.append(Block(k, ys, nondrv))
    blocks = tuple(blocks)

    check_shape(final, blocks, equations)
    td = TriangularDecomposition(chart=final, blocks=blocks,
                                 equations=equations, transform=theta,
                                 system=system)
    _check_structure(td, zc)
    return td


def check_shape(chart, blocks, equations) -> None:
    """Raise StructureViolation unless chart, blocks and equations fit together.

    One block more than equation blocks, numbered 1, 2, ... in order;
    block 1 solves for nothing, block i+1 for one variable per equation of
    Xi^i, which is not empty; every chart coordinate in exactly one block.
    Messages name the certificate field.
    """
    if len(blocks) != len(equations) + 1:
        raise StructureViolation(f"field blocks has {len(blocks)} entries "
                                 f"for {len(equations)} equation blocks")
    for i, xi in enumerate(equations):
        if not xi:
            raise StructureViolation(f"field equations[{i}] is empty")
    seen = set()
    for i, blk in enumerate(blocks):
        if blk.index != i + 1:
            raise StructureViolation(
                f"field blocks[{i}].index must be {i + 1}, got {blk.index}")
        want = len(equations[i - 1]) if i else 0
        if len(blk.nondrv) != want:
            raise StructureViolation(
                f"field blocks[{i}].solved names {len(blk.nondrv)} variables "
                f"for {want} equations")
        for c in blk.coords:
            if c in seen:
                raise StructureViolation(
                    f"field blocks[{i}] names {c.name} a second time")
            seen.add(c)
    for c in chart.coords:
        if c not in seen:
            raise StructureViolation(
                f"field chart names {c.name}, which no block lists")


def _check_structure(td: TriangularDecomposition, zc: ZeroCtx) -> None:
    for i in range(1, td.n_b + 1):
        gens = td.equations[i - 1]
        solved = td.blocks[i].nondrv
        later = [c for blk in td.blocks[i:] for c in blk.coords]
        allowed = {c for blk in td.blocks[:i] for c in blk.coords}
        allowed.update(solved)
        allowed.add(T)
        for g in gens:
            coeffs = one_coeffs(g)
            for s in later:
                e = coeffs.get(s)
                if e is not None and not zc.zero(e):
                    raise StructureViolation(
                        f"Xi^{i} carries d{s.name} from a later block")
            for e in coeffs.values():
                for s in e.free - allowed:
                    if zc.depends(e, s):
                        raise StructureViolation(
                            f"Xi^{i} coefficient depends on {s.name}")
        if not solves_for(gens, solved, zc):
            raise StructureViolation(
                f"Xi^{i} is not solvable for block {i + 1}: singular Jacobian")


def validate(td: TriangularDecomposition, zc: ZeroCtx):
    """Pass/fail items for the defining properties of the triangular form.

    Checked per level: the solved variables' coordinate fields are vertical
    for the enclosing subsystem and characteristic for the deeper one; each
    block solves for its variables with a regular Jacobian; the flat-output
    coordinates are characteristic for every block that omits them.
    """
    n_b, m = td.n_b, td.m
    spans = _prefix_spans(td.chart, td.equations, zc)
    report = []
    for k in range(n_b):
        blk = td.blocks[m - k - 1]
        fields = [VectorField(td.chart, {p: ONE}) for p in blk.nondrv]
        ok = all(is_vertical(v, spans[n_b - k], zc) for v in fields)
        report.append((f"zhat^{m - k} vertical for S_d{k}", ok))
        ok = all(is_characteristic(v, spans[n_b - k - 1], zc) for v in fields)
        report.append((f"zhat^{m - k} Cauchy for S_d{k + 1}", ok))
    for i in range(1, n_b + 1):
        ok = solves_for(td.equations[i - 1], td.blocks[i].nondrv, zc)
        report.append((f"Xi^{i} parameterizable in zhat^{i + 1}", ok))
    for k in range(1, m):
        blk = td.blocks[k - 1]
        if not blk.y:
            continue
        fields = [VectorField(td.chart, {c: ONE}) for c in blk.y]
        ok = all(is_characteristic(v, spans[k - 1], zc) for v in fields)
        report.append((f"y^{k} Cauchy for S_d{m - k}", ok))
    return report


@dataclass(frozen=True)
class FlatnessCertificate:
    decomposition: TriangularDecomposition
    outputs: tuple         # Expr in the original (x, u) coordinates
    order: str             # "0-flat" | "1-flat"


def flat_order(outputs) -> str:
    """The order of flat outputs: "1-flat" when one of them mentions an
    input, else "0-flat".  The label is syntactic: it reads the outputs'
    `.free` and makes no zero test, so an output that mentions an input
    it does not depend on is labelled "1-flat"."""
    inputy = any(s.kind == INPUT for e in outputs for s in e.free)
    return "1-flat" if inputy else "0-flat"


def extract_flat_output(td: TriangularDecomposition) -> FlatnessCertificate:
    """Read the flat outputs off the y-coordinates of the blocks."""
    phi = td.transform
    ycoords = td.flat_coords
    outputs = tuple(phi.inverse[c] for c in ycoords)
    n_u = sum(1 for s in phi.target.coords if s.kind == INPUT)
    if len(outputs) != n_u:
        raise OutputCountMismatch(
            f"{len(outputs)} flat-output candidates for {n_u} inputs")
    return FlatnessCertificate(decomposition=td, outputs=outputs,
                               order=flat_order(outputs))


# -- trajectory recovery ------------------------------------------------------------

@dataclass(frozen=True)
class PolyCurve:
    """Polynomial test curve with exact derivatives of every order."""

    coeffs: tuple  # ascending powers

    def eval(self, t: float, order: int = 0) -> float:
        acc = 0.0
        for k in range(order, len(self.coeffs)):
            fac = 1.0
            for j in range(k, k - order, -1):
                fac *= j
            acc += self.coeffs[k] * fac * t ** (k - order)
        return acc

    @classmethod
    def fit(cls, ts, ys, degree: int) -> "PolyCurve":
        import numpy as np
        return cls(tuple(float(c) for c in reversed(np.polyfit(ts, ys, degree))))


@dataclass(frozen=True)
class _SampleFailure:
    block: int
    detail: str


class _SampleSingular(_SampleFailure):
    """Singular Jacobian, or a non-finite value (domain violation)."""


class _SampleDiverged(_SampleFailure):
    """Newton blow-up, or no convergence within the iteration limit."""


class RecoveryEngine:
    """Compiled per-certificate solver, evaluated on (n_args, N) sample arrays.

    Row slot[s] holds jet s of `args`.  Each block's residuals, Jacobian
    entries and each step of its derivative chain are compiled, one
    function per list, against the block's own argument list: the sorted
    slots of the jets they mention and of its unknowns' jets up to the
    order its chain solves for.
    """

    def __init__(self, cert: FlatnessCertificate):
        td = cert.decomposition
        self.n_b = td.n_b
        coords = td.chart.coords
        self.args = []
        self.slot = {}
        for c in coords:
            for j in range(self.n_b + 1):
                s = jet(c, j)
                self.slot[s] = len(self.args)
                self.args.append(s)
        bump = {}
        for c in coords:
            for j in range(self.n_b):
                bump[jet(c, j)] = jet(c, j + 1)
        self.flat = td.flat_coords
        self.blocks = []
        for i in range(1, self.n_b + 1):
            unknowns = td.blocks[i].nondrv
            residuals = [residual(g) for g in td.equations[i - 1]]
            # row-major: residual r, unknown p
            jac = [diff(r, p) for r in residuals for p in unknowns]
            chains = []
            cur = residuals
            for _ in range(self.n_b - i):
                cur = [self._dt(r, bump) for r in cur]
                chains.append(cur)
            orders = range(self.n_b - i + 1)
            need = {s for e in residuals + jac + [e for c in chains for e in c]
                    for s in e.free}
            need.update(jet(p, j) for p in unknowns for j in orders)
            need = sorted(need, key=self.slot.__getitem__)
            pos = {s: k for k, s in enumerate(need)}
            # rows[j]: where the j-th jets of the unknowns sit in the block
            rows = [[pos[jet(p, j)] for p in unknowns] for j in orders]
            self.blocks.append((unknowns, [self.slot[s] for s in need], rows,
                                *(compile_expr(x, need)
                                  for x in (residuals, jac, *chains))))
        base = td.transform.target
        self.base_coords = base.coords
        self.base_f = compile_expr(
            [td.transform.forward[s] for s in base.coords], self.args)
        self.system = cs = td.system
        names = list(cs.states) + list(cs.inputs)
        self.dynamics = compile_expr(cs.dynamics, names)

    @staticmethod
    def _dt(e, bump):
        parts = []
        for s in sorted(e.free, key=lambda s: (s.name, s.kind)):
            if s not in bump:
                raise RuntimeError(f"jet order overflow at {s.name}")
            parts.append(mul(diff(e, s), var(bump[s])))
        return add(*parts) if parts else ZERO


def _solve(jac, rhs):
    """Per-sample solutions of jac @ x = rhs, rhs and result (size, N);
    a flat (N,) jac belongs to a one-unknown block and divides."""
    import numpy as np
    if jac.ndim == 1:
        return rhs / jac
    return np.linalg.solve(jac, rhs.T[:, :, None])[:, :, 0].T


def _narrow(blk, idx, a, mask):
    """The Newton working set (idx, a) cut to the samples in mask.  A
    working set that is the block itself is gathered for the first time;
    a compact one first writes the leaving columns back to the block."""
    if a is blk:
        idx = idx[mask]
        return idx, blk[:, idx]
    blk[:, idx[~mask]] = a[:, ~mask]
    return idx[mask], a[:, mask]


def recover_trajectory(engine: RecoveryEngine, curves, ts, guess):
    """Solve the blocks for the non-derivative variables at sample times ts.

    curves gives one PolyCurve per flat-output coordinate, ts is an (N,)
    array.  Each block is a square Newton solve (tolerance 1e-12), run on all
    samples at once; the time derivatives of the solved variables follow
    from differentiating the block equations along the trajectory, reusing
    the same Jacobian J.  A block with one unknown keeps J as one value per
    sample, calls a sample singular when |J| < 1e-12, and takes each Newton
    and derivative step as one division; a larger block calls it singular
    when |det J| < 1e-12, with the determinant of a 2x2 J in closed form,
    j00*j11 - j01*j10, and solves stacked systems with np.linalg.solve.
    Each block copies the rows its compiled functions read
    (RecoveryEngine).  While every sample is live, Newton steps that copy
    in place; from the first iteration at which a sample leaves (it
    converges, fails or blows up) it works on one compact array of the
    samples still iterating, and a sample's column is written back to the
    block once, when it leaves or reaches the iteration limit.  The
    derivative chain likewise runs on the block itself while every sample
    is live, else on a compact array of the live ones; a sample that fails
    in the chain keeps its values from before the chain.  Only the rows of
    the block's unknowns go back to the chart jets.  The block equations
    can have several roots: guess maps a solved-variable name to a scalar
    or an (N,) array of starting values near the intended branch (0 where
    absent), and so selects among them.  Returns the chart jets as an
    (n_args, N) array, the states and inputs as name -> (N,) arrays, and a
    map from failed sample index to its _SampleFailure (a singular
    Jacobian, a domain violation or divergence, with its block and time).
    A sample that fails in one block takes no part in the later ones.
    """
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
    every = np.arange(n)
    failures = {}

    def fail(kind, block, idx, what):
        if not idx.size:
            return
        alive[idx] = False
        for k in idx.tolist():
            failures[k] = kind(block,
                               f"{what} in block {block} at t={float(ts[k])}")

    def jacobian(block, jf, size, idx, a):
        """Jacobians at samples idx and the mask of the finite, regular
        ones; the others fail."""
        raw = jf(a)  # row-major entries, one row each
        if size == 1:
            jac = det = raw[0]
            finite = np.isfinite(jac)
        else:
            jac = raw.reshape(size, size, -1).transpose(2, 0, 1)
            finite = np.isfinite(raw).all(axis=0)
            det = (raw[0] * raw[3] - raw[1] * raw[2] if size == 2
                   else np.linalg.det(jac))
        singular = finite & (np.abs(det) < 1e-12)
        keep = finite & ~singular
        if not keep.all():
            fail(_SampleSingular, block, idx[~finite],
                 "domain violation (non-finite Jacobian)")
            fail(_SampleSingular, block, idx[singular], "singular Jacobian")
        return jac, keep

    def live(blk):
        """The working set of the live samples: the block itself while
        every sample is live, else a compact copy of their columns."""
        if alive.all():
            return every, blk
        idx = np.flatnonzero(alive)
        return idx, blk[:, idx]

    with np.errstate(all="ignore"):
        for bi, (unknowns, need, rows, rf, jf, *chains) in enumerate(
                engine.blocks, start=1):
            size = len(unknowns)
            blk = vals[need]
            for r, p in zip(rows[0], unknowns):
                blk[r] = guess.get(p.name, 0.0)
            idx, a = live(blk)
            for _ in range(60):
                if not idx.size:
                    break
                res = rf(a)
                finite = np.isfinite(res).all(axis=0)
                todo = finite & (np.abs(res).max(axis=0, initial=0.0) >= 1e-12)
                if not todo.all():
                    fail(_SampleSingular, bi, idx[~finite],
                         "domain violation (non-finite residual)")
                    idx, a = _narrow(blk, idx, a, todo)
                    res = res[:, todo]
                    if not idx.size:
                        break
                jac, keep = jacobian(bi, jf, size, idx, a)
                if not keep.all():
                    idx, a = _narrow(blk, idx, a, keep)
                    res, jac = res[:, keep], jac[keep]
                step = a[rows[0]] + _solve(jac, -res)
                a[rows[0]] = step
                blown = np.abs(step).max(axis=0, initial=0.0) > 1e9
                if blown.any():
                    fail(_SampleDiverged, bi, idx[blown], "Newton blow-up")
                    idx, a = _narrow(blk, idx, a, ~blown)
            else:
                fail(_SampleDiverged, bi, idx, "no convergence")
                if a is not blk:
                    blk[:, idx] = a

            # time derivatives of the solved variables: the j-th derivative
            # of the block equations is linear in the j-th jet, through the
            # same Jacobian
            idx, a = live(blk)
            jac, keep = jacobian(bi, jf, size, idx, a)
            if not keep.all():
                idx, jac = idx[keep], jac[keep]
                a = blk[:, idx]
            for cf, rj in zip(chains, rows[1:]):
                sol = _solve(jac, -cf(a))
                finite = np.isfinite(sol).all(axis=0)
                if not finite.all():
                    fail(_SampleSingular, bi, idx[~finite],
                         "domain violation (non-finite derivative)")
                    if a is blk:
                        # Newton wrote only rows[0], so vals still holds
                        # the chain rows from before the chain: restore them
                        chain = [r for rs in rows[1:] for r in rs]
                        bad = idx[~finite]
                        blk[np.ix_(chain, bad)] = vals[np.ix_(
                            [need[r] for r in chain], bad)]
                        idx = idx[finite]
                        a = blk[:, idx]
                    else:
                        idx, a = idx[finite], a[:, finite]
                    sol, jac = sol[:, finite], jac[finite]
                a[rj] = sol
            if a is not blk:
                blk[:, idx] = a
            out = [r for rj in rows for r in rj]
            vals[[need[r] for r in out]] = blk[out]

        xu = engine.base_f(vals)
    x, u = {}, {}
    for s, row in zip(engine.base_coords, xu):
        (u if s.kind == INPUT else x)[s.name] = row
    return vals, x, u, failures


def _dynamics_residual(engine: RecoveryEngine, ts, x, u) -> float:
    """Largest midpoint defect |dx/dt - f| over neighbouring samples."""
    import numpy as np
    cs = engine.system
    pair = np.diff(ts) > 0
    if not pair.any():
        return float("nan")
    xs = np.array([x[s.name] for s in cs.states])
    pts = np.vstack([xs, [u[s.name] for s in cs.inputs]])
    with np.errstate(all="ignore"):
        mid = ((pts[:, :-1] + pts[:, 1:]) / 2)[:, pair]
        rate = (np.diff(xs, axis=1) / np.diff(ts))[:, pair]
        err = np.abs(rate - engine.dynamics(mid))
    return float(np.fmax.reduce(err.ravel()))


@dataclass(frozen=True)
class NumericVerdict:
    trials: int
    passed: int
    failed: int
    singular: int
    worst_deviation: float
    ok: bool


def verify_flatness_numeric(cert: FlatnessCertificate, trials: int,
                            seed: int) -> NumericVerdict:
    """Independent numeric check that the certificate's outputs are flat.

    Per trial: simulate the original dynamics under random smooth inputs,
    fit low-degree polynomials to the claimed outputs along that run, and
    recover the trajectory from the fits on a fine half-step grid, every
    grid point seeded with the chart values of the reference run (the
    midpoint of its neighbours at odd points).  Then (a) check the claimed
    outputs reproduce the test curves on the recovered trajectory, and
    (b) re-integrate the original dynamics from the recovered initial
    state and compare states.  The reference run and the re-integration
    are one generated sweep of classic 4th-order steps (`compile_rk4`) on
    float lists, fed the reference inputs or the recovered ones at each
    step's start, midpoint and end.  Trials with skipped samples, or whose
    reference run or re-integration overflows or leaves the domain, count
    as singular, never as failures, but the pass bar is 80 percent of ALL
    trials, so singular trials eat into the same slack as failures.  Trial
    inputs are drawn from a narrow correlated envelope chosen to keep
    samples clear of singular loci.  A claim, or a block structure, with
    more or fewer outputs than inputs raises OutputCountMismatch at once.
    """
    import numpy as np
    td = cert.decomposition
    cs = td.system
    coords = list(cs.states) + list(cs.inputs)
    n_x, n_u = len(cs.states), len(cs.inputs)
    if len(cert.outputs) != n_u:
        raise OutputCountMismatch(
            f"{len(cert.outputs)} claimed flat outputs for {n_u} inputs")
    if len(td.flat_coords) != n_u:
        raise OutputCountMismatch(
            f"blocks list {len(td.flat_coords)} flat outputs for {n_u} inputs")
    run = compile_rk4(cs.dynamics, cs.states, cs.inputs)
    outs = compile_expr(cert.outputs, coords)
    engine = RecoveryEngine(cert)
    # branch selectors: the solved chart variables in original coordinates
    solved = [p for blk in td.blocks for p in blk.nondrv]
    chartvals = compile_expr([td.transform.inverse[p] for p in solved], coords)
    degree = max(engine.n_b, 3)
    rng = random.Random(seed)
    h = 1e-3
    half = h / 2
    n_steps = 1000
    grid = np.arange(2 * n_steps + 1) * half
    fit_ts = np.arange(0, n_steps + 1, 10) * h
    steps = np.arange(n_steps) * h

    passed = failed = singular = 0
    worst = 0.0
    # reference run and re-integration use math on floats and raise; the
    # array steps below mark non-finite values instead of warning
    with np.errstate(all="ignore"):
        for _ in range(trials):
            x0 = [rng.uniform(0.8, 1.2) for _ in range(n_x)]
            # shared base level, alternating per-input slopes: levels stay
            # below 1 and input ratios drift monotonically without nearing
            # pi/2, so samples keep clear of singular loci and rate-dependent
            # coordinates stay observable (pairwise nonvanishing input
            # Wronskians)
            base = rng.uniform(0.7, 0.8)
            ucoeff = []
            for j in range(n_u):
                sgn = 1.0 if j % 2 == 0 else -1.0
                ucoeff.append((base * (1 + sgn * rng.uniform(0.0, 0.02)),
                               sgn * rng.uniform(0.04, 0.06),
                               rng.uniform(-0.01, 0.01)))

            def uref(t):
                return np.array([c0 + c1 * t + c2 * t * t
                                 for c0, c1, c2 in ucoeff])

            # reference run of the true dynamics, sampled for curve fitting
            try:
                xs = run(x0, uref(steps).tolist(), uref(steps + half).tolist(),
                         uref(steps + h).tolist(), n_steps, h)
            except (ArithmeticError, ValueError):
                singular += 1
                continue
            xs = np.array(xs)
            fit_ys = outs(np.vstack([xs[:, ::10], uref(fit_ts)]))
            if not (np.isfinite(xs).all() and np.isfinite(fit_ys).all()):
                singular += 1
                continue
            curves = [PolyCurve.fit(fit_ts, ys, degree) for ys in fit_ys]

            xmid = np.empty((n_x, grid.size))
            xmid[:, ::2] = xs
            xmid[:, 1::2] = (xs[:, :-1] + xs[:, 1:]) / 2
            start = np.vstack([xmid, uref(grid)])
            guess = {p.name: row for p, row in zip(solved, chartvals(start))}
            _, xd, ud, failures = recover_trajectory(engine, curves, grid,
                                                     guess)
            if failures:
                singular += 1
                continue
            xr = np.array([xd[c.name] for c in cs.states])
            ur = np.array([ud[c.name] for c in cs.inputs])

            got = outs(np.vstack([xr[:, ::2], ur[:, ::2]]))
            want = np.array([c.eval(grid[::2]) for c in curves])
            if (np.abs(got - want) > 1e-7).any():
                failed += 1
                continue

            try:
                path = run(xr[:, 0].tolist(), ur[:, 0:-1:2].tolist(),
                           ur[:, 1::2].tolist(), ur[:, 2::2].tolist(),
                           n_steps, h)
            except (ArithmeticError, ValueError):
                singular += 1
                continue
            dev = np.abs(np.array(path) - xr[:, ::2])
            if not np.isfinite(dev).all():
                singular += 1
                continue
            deviation = float(dev.max())
            if deviation >= 1e-6 and _dynamics_residual(
                    engine, grid, xd, ud) > 1e-3:
                # the divided-difference defect already exceeds what a fixed
                # step can resolve: stiffness, not a dynamic inconsistency
                singular += 1
                continue
            worst = max(worst, deviation)
            if deviation < 1e-6:
                passed += 1
            else:
                failed += 1

    ok = trials > 0 and passed * 5 >= trials * 4
    return NumericVerdict(trials=trials, passed=passed, failed=failed,
                          singular=singular, worst_deviation=worst, ok=ok)
