"""Numerical ground truth: explicit finite-difference integration against
closed forms, convergence-order measurement, and the vertical-mode
eigenproblem phi'' + (N(z)/C)^2 phi = 0 with phi(-H) = 0 and phi(0) = 0.

Schemes are deliberately plain (forward Euler in time, centered second
difference, sign-aware upwind first difference when A vanishes) so their
orders are provable and the stability preconditions enforceable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    Expr, check_vars, eval_on_grid, free_vars, num, simplify, substitute,
    to_text,
)
from .symmetry import PdeSpec, _as_expr, _load_json

_UPWIND_A_THRESHOLD = 1e-14
BLOCK = 128  # time steps whose coefficients are evaluated at once


class StabilityError(ValueError):
    """Explicit-scheme stability precondition violated."""

    def __init__(self, dt: float, dt_required: float):
        self.dt = dt
        self.dt_required = dt_required
        super().__init__(
            f"time step {dt:.6g} violates the explicit stability bound; "
            f"need dt <= {dt_required:.6g}")


class BlowupError(RuntimeError):
    """Non-finite field values during time stepping."""

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"solution became non-finite at step {step} (t = {time:.6g})")


class ModeSearchError(RuntimeError):
    """N vanishes on every cell of a mode mesh, or an eigenvalue leaves
    the normal float range."""

    def __init__(self, found: int, wanted: int, reason: str):
        self.found = found
        self.wanted = wanted
        super().__init__(f"found {found} of {wanted} eigenvalues: {reason}")


@dataclass(frozen=True)
class Grid1D:
    x0: float
    x1: float
    nx: int
    t0: float
    t1: float
    nt: int

    def __post_init__(self):
        if not self.x1 > self.x0:
            raise ValueError("need x1 > x0")
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")
        if self.nx < 3:
            raise ValueError("need nx >= 3")
        if self.nt < 1:
            raise ValueError("need nt >= 1")

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.nt

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.nt + 1)


def _on_grid(e: Expr, xs, ts, what: str) -> np.ndarray:
    """e at (xs[i], ts[j]) as [j, i]; ValueError at a non-finite value,
    naming e as `what` followed by its text (rendered only then)."""
    vals = np.broadcast_to(eval_on_grid(e, {"x": xs, "t": ts[:, None]}),
                           (len(ts), len(xs)))
    if not np.isfinite(vals).all():
        j, i = np.unravel_index(np.flatnonzero(~np.isfinite(vals))[0], vals.shape)
        raise ValueError(f"{what} {to_text(e)} is not finite at "
                         f"x = {xs[i]:.6g}, t = {ts[j]:.6g}")
    return vals


def stable_dt(p: PdeSpec, xs: np.ndarray, t0: float, t1: float):
    """The explicit scheme's one stability rule: (advective, dt_max).

    A, B and C are probed on the x nodes `xs` at 64 times spanning [t0, t1].
    A < 0 is backward diffusion: ValueError (ill-posed).  With
    c = max(-C, 0), these are the forward-Euler von Neumann bounds
    (Strikwerda 2004, ch. 2): where A vanishes u_x is upwinded and
    dt <= 2 / (2 max|B| / dx + c), which is 2 / c when B vanishes too and
    inf when c is 0 as well; otherwise dt <= 2 dx^2 / (4 max|A| + c dx^2).
    Where c = 0 the upwind bound is computed as dx / max|B|; the diffusive
    one is then dx^2 / (2 max|A|) to the bit, as scaling by 2 and 4 is exact.
    """
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    ts = np.linspace(t0, t1, 64)
    a_vals, b_vals, c_vals = (_on_grid(c, xs, ts, "coefficient")
                              for c in (p.A, p.B, p.C))
    j, i = np.unravel_index(np.argmin(a_vals), a_vals.shape)
    if a_vals[j, i] < -_UPWIND_A_THRESHOLD:
        raise ValueError(
            f"A = {a_vals[j, i]:.6g} < 0 at x = {xs[i]:.6g}, t = {ts[j]:.6g}: "
            f"backward diffusion is ill-posed")
    max_a, max_b = (float(np.max(np.abs(v))) for v in (a_vals, b_vals))
    c = max(-float(np.min(c_vals)), 0.0)  # decay rate, 0 where C >= 0
    if max_a >= _UPWIND_A_THRESHOLD:
        return False, 2.0 * dx * dx / (4.0 * max_a + c * dx * dx)
    if c == 0:
        return True, dx / max_b if max_b > 0 else math.inf
    return True, 2.0 / (2.0 * max_b / dx + c)


def auto_nt(pde: PdeSpec, grid: Grid1D, bound=None) -> int:
    """The step count `solve` picks without --nt: the span over the
    `stable_dt` bound, halved for upwind (and where A and B vanish); span /
    16 where no bound holds.  `bound` is stable_dt's result on grid's nodes
    and span, when the caller has it already.  A count whose nt + 1 time
    levels no array can index is a ValueError naming the bound and the
    count."""
    span = grid.t1 - grid.t0
    if bound is None:
        bound = stable_dt(pde, grid.xs(), grid.t0, grid.t1)
    advective, dt = bound
    if math.isinf(dt):
        dt = span / 16
    elif advective:
        dt *= 0.5
    dt = float(dt)  # a float's overflow is inf, without numpy's warning
    steps = span / dt if dt > 0 else math.inf
    limit = np.iinfo(np.intp).max  # nt + 1 levels, each with an index
    if steps >= limit:  # exact: the doubles below 2**63 are integers here
        raise ValueError(
            f"the stable step dt <= {dt:.6g} needs nt = {steps:.6g} time "
            f"steps, more than a time grid can index ({limit - 1})")
    return max(1, math.ceil(steps))


def fd_solve(p: PdeSpec, ic: Expr, bc: Expr, g: Grid1D, bound=None):
    """Forward Euler with centered u_2x; u_x is upwinded (by the sign of B)
    when A vanishes uniformly, centered otherwise.  Dirichlet boundary
    values come from the closed form bc(x, t).  Yields u at t_0, ..., t_nt;
    no level is written again once it has been yielded.

    Each step is one three-point update per interior node,
    u_i <- lo u_{i-1} + mid u_i + hi u_{i+1}, with d = dt A / dx^2:
      centered, w = dt B / (2 dx):  lo = d - w, hi = d + w,
                                    mid = 1 + dt C - 2d;
      upwind, b+ = dt max(B, 0) / dx, b- = dt min(B, 0) / dx:
                                    lo = d - b-, hi = d + b+,
                                    mid = 1 + dt C - 2d - b+ + b-.
    Under upwinding the sign of B picks the side per node inside the
    weights: one of b+ and b- is zero there.  A block of steps takes its
    weights at once from the block's A, B and C, evaluated in one call
    (coefficients free of t give one set for the whole run, computed once).
    Their rows lo, mid and hi are padded to the length of a level and
    shifted right by 0, 1 and 2 places, so that lo_i, mid_i and hi_i sit
    over u_{i-1}, u_i and u_{i+1}; the run's one table of them is reused by
    every block.  A step is then one multiply of the three rows by the
    whole level, and two adds, (lo u_{i-1} + mid u_i) + hi u_{i+1}, of the
    shifted products.

    Preconditions, enforced when the first level is asked for: those of
    `stable_dt`, A >= 0 and the step bound of the scheme it picks; `bound`
    is stable_dt's result on g's nodes and span, when the caller has it
    already (and has met A >= 0 with it).  A BlowupError comes before the
    earlier levels of its block of steps are yielded.
    """
    xs, ts = g.xs(), g.ts()
    dx, dt = g.dx, g.dt
    if bound is None:
        bound = stable_dt(p, xs, g.t0, g.t1)
    advective, dt_req = bound
    if dt > dt_req:
        raise StabilityError(dt, dt_req)

    xi = xs[1:-1]
    edges = np.broadcast_to(
        eval_on_grid(bc, {"x": xs[[0, -1], None], "t": ts}), (2, g.nt + 1))
    u = np.empty(g.nx)
    u[:] = eval_on_grid(ic, {"x": xs})
    if not np.isfinite(u).all():
        raise ValueError("initial condition evaluated to non-finite values")
    yield u
    m = g.nx - 2
    prods = np.empty((3, g.nx))
    # the products that land on the interior nodes: row k of prods holds
    # the kth weight of node i times u_{i-1+k} at column i - 1 + k
    p0, p1, p2 = prods[0, :m], prods[1, 1:-1], prods[2, 2:]
    multiply, add = np.multiply, np.add  # bound once for every step
    coeffs = (p.A, p.B, p.C)
    steady = not any("t" in free_vars(c) for c in coeffs)
    # one weight table and one scratch for the whole run, since a fresh
    # table per block costs its page faults: table[n] holds (lo, mid, hi)
    # of step n0 + n as rows aligned with the level, with zeros around them
    # that no block overwrites; coefficients free of t give one set, made
    # for the first block and broadcast to every step
    sets = 1 if steady else min(BLOCK, g.nt)
    table, rows = np.zeros((sets, 3, g.nx)), np.empty((3, sets, m))
    for n0 in range(0, g.nt, BLOCK):
        n1 = min(n0 + BLOCK, g.nt)
        if n0 == 0 or not steady:
            _weights(*eval_on_grid(coeffs, {"x": xi, "t": ts[n0:n1, None]}),
                     dt, dx, advective, rows[:, :n1 - n0], table[:n1 - n0])
        weights = np.broadcast_to(table[:n1 - n0], (n1 - n0, 3, g.nx))
        # row 0 of block holds the level before the block, row n + 1 the
        # level step n makes
        block = np.empty((n1 - n0 + 1, g.nx))
        block[0] = u
        block[1:, 0], block[1:, -1] = edges[:, n0 + 1:n1 + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            for w, level, inner in zip(weights, block, block[1:, 1:-1]):
                multiply(w, level, prods)
                add(p0, p1, inner)
                add(inner, p2, inner)
        u = block[-1]
        finite = np.isfinite(block[1:]).all(axis=1)
        if not finite.all():
            n = n0 + 1 + int(np.argmin(finite))
            raise BlowupError(n, float(ts[n]))
        yield from block[1:]


def _weights(A, B, C, dt: float, dx: float, advective: bool, rows, table):
    """The update's lo, mid and hi (see `fd_solve`), computed as rows[0],
    rows[1] and rows[2] (each of shape rows.shape[1:], to which A, B and C
    broadcast) and copied into `table`: into table[..., k, :], of m + 2
    columns for m nodes, in columns k to k + m - 1, so that row k lines up
    with u_{i-1+k} of a whole level.  The columns around them are left as
    they are (zero in fd_solve's table).  d is computed in hi's row and 2d
    in lo's, and every weight in its row by the operations of the formulas
    in their order, so the rows equal the formulas to the bit."""
    lo, mid, hi = rows
    np.multiply(dt, A, out=hi)
    hi /= dx * dx  # d
    np.multiply(dt, C, out=mid)
    mid += 1.0
    np.multiply(2.0, hi, out=lo)
    mid -= lo
    if advective:
        b_plus = dt * np.maximum(B, 0.0) / dx
        b_minus = dt * np.minimum(B, 0.0) / dx
        np.subtract(hi, b_minus, out=lo)
        hi += b_plus
        mid -= b_plus
        mid += b_minus
    else:
        w = dt * B / (2.0 * dx)
        np.subtract(hi, w, out=lo)
        hi += w
    m = rows.shape[-1]
    table[..., 0, :m] = lo
    table[..., 1, 1:-1] = mid
    table[..., 2, 2:] = hi


@dataclass(frozen=True)
class ConvergenceLevel:
    dx: float
    error: float
    order: Optional[float]  # None on the coarsest level or at rounding floor


def convergence_order(p: PdeSpec, exact: Expr, g0: Grid1D, levels: int,
                      base: Optional[np.ndarray] = None, bound=None):
    """Refinement study: halve dx per level with dt scaled by 1/4 (diffusive)
    or 1/2 (pure advection); errors are L-infinity against `exact` at the
    final time, where `exact` must be finite (ValueError).  When the caller
    has run g0 already, from `exact` at g0.t0, `base` (its u at g0.t1)
    stands in for level 0's run; `bound` is stable_dt's result on g0, when
    the caller has it.  Each refined level checks its own."""
    if levels < 3:
        raise ValueError("need at least 3 levels")
    if bound is None:
        bound = stable_dt(p, g0.xs(), g0.t0, g0.t1)
    advective, _ = bound
    out = []
    prev_error = None
    for lvl in range(levels):
        factor = 2**lvl
        g = Grid1D(g0.x0, g0.x1, (g0.nx - 1) * factor + 1,
                   g0.t0, g0.t1, g0.nt * (factor if advective else factor * factor))
        ref = _on_grid(exact, g.xs(), np.array([g.t1]), "closed form")[0]
        u = base
        if lvl or base is None:
            for u in fd_solve(p, substitute(exact, {"t": g.t0}), exact, g,
                              None if lvl else bound):
                pass  # only the final level is compared
        error = float(np.max(np.abs(u - ref)))
        order = None
        if prev_error is not None and error > 1e-13 and prev_error > 1e-13:
            order = math.log2(prev_error / error)
        out.append(ConvergenceLevel(g.dx, error, order))
        prev_error = error
    return out


@dataclass(frozen=True)
class ModeProblem:
    """Vertical-mode eigenproblem on z in [-H, 0].

    pieces: tuple of (z_lo, z_hi, N-expression in z) covering [-H, 0];
    a single expression means one piece.  Boundary conditions are
    phi(-H) = 0 (floor) and phi(0) = 0 (surface), built in.
    """

    H: float
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "H", float(self.H))
        if not self.H > 0:
            raise ValueError("H: must be positive")
        norm = []
        for z_lo, z_hi, n_expr in self.pieces:
            e = _as_expr(n_expr, "N")
            check_vars(e, ("z",), "N")
            probe = eval_on_grid(e, {"z": np.linspace(float(z_lo),
                                                      float(z_hi), 33)})
            if not np.isfinite(probe).all() or np.min(probe) < -1e-12:
                raise ValueError(
                    f"N: must be finite and nonnegative on [{z_lo}, {z_hi}]")
            norm.append((float(z_lo), float(z_hi), simplify(e)))
        norm.sort(key=lambda p: p[0])
        tol = 1e-12 * self.H  # relative, so a hole is one at every scale
        if (not norm or abs(norm[0][0] + self.H) > tol
                or abs(norm[-1][1]) > tol):
            raise ValueError("N: pieces must cover [-H, 0]")
        for (_, hi, _), (lo, _, _) in zip(norm, norm[1:]):
            if abs(hi - lo) > tol:
                raise ValueError("N: pieces must be contiguous")
        object.__setattr__(self, "pieces", tuple(norm))

    @classmethod
    def constant(cls, n_bar: float, H: float) -> "ModeProblem":
        return cls(H, ((-H, 0.0, repr(float(n_bar))),))


def load_profile(source) -> ModeProblem:
    """Schema: {"H": num, "N": "<expr in z>"} or
    {"H": num, "N": [{"z": [lo, hi], "expr": "..."}]}."""
    d = _load_json(source)
    H = float(num(d["H"], "H").value)
    n = d["N"]
    if isinstance(n, str):
        return ModeProblem(H, ((-H, 0.0, n),))
    if not (isinstance(n, list) and all(
            isinstance(piece, dict) and isinstance(piece.get("z"), list)
            and len(piece["z"]) == 2 for piece in n)):
        raise ValueError('N: must be an expression or a list of '
                         '{"z": [lo, hi], "expr": ...} pieces')
    return ModeProblem(H, tuple(
        (float(num(piece["z"][0], "N.z").value),
         float(num(piece["z"][1], "N.z").value),
         piece["expr"]) for piece in n))


@dataclass(frozen=True)
class Mode:
    """One vertical mode; `nodes` is read from theta's winding at C (see
    `mode_solve`)."""

    index: int  # 1-based mode number (largest eigenvalue first)
    C: float    # eigenvalue
    k: float    # max-profile wavenumber N_max / C
    nodes: int  # zeros of phi inside (-H, 0)


NSTEPS = 2000  # cells across the column before merging
ROOT_REL = 4 * np.finfo(float).eps  # final bracket of u = 1/c, relative
MESH_REL = 1e-3  # largest relative move of C_m when the cells are halved


class _Shooter:
    """Prufer shots in nondimensional variables: zeta = z/H in [-1, 0],
    N~ = |N|/N_max and c = C/(N_max H), so phi'' + (N~/c)^2 phi = 0.

    Each piece of width w is cut into refine * max(16, NSTEPS w) cells with
    N~ at their midpoint, and adjacent cells of equal N~ are merged, so a
    constant piece is one cell.  N_max, unless given, is the largest |N| on
    the cells' nodes and midpoints.

    On a cell with k = N~/c > 0, theta is the angle of (k phi, phi') and
    advances by exactly k w; where N = 0 it is the angle of (phi, phi'),
    and tan(theta) grows by w.  A cell edge rescales phi by a positive
    factor, so theta, re-read there, keeps its quadrant and its winding:
    the multiples of pi it passes are the zeros of phi."""

    def __init__(self, problem: ModeProblem, refine: int = 1, n_max=None):
        edges, values = [], []
        for z_lo, z_hi, n_expr in problem.pieces:
            lo, hi = z_lo / problem.H, z_hi / problem.H
            count = refine * max(16, round(NSTEPS * (hi - lo)))
            # cell edges and midpoints: even and odd entries
            zeta = np.linspace(lo, hi, 2 * count + 1)
            n = np.abs(np.broadcast_to(
                eval_on_grid(n_expr, {"z": problem.H * zeta}), zeta.shape))
            if not np.isfinite(n).all():
                raise ValueError("N(z) is not finite on the mode mesh")
            edges.append(zeta[2::2] if edges else zeta[::2])
            values.append(n)
        self.n_max = n_max or max(float(np.max(n)) for n in values)
        # where N vanishes on every sample, N~ = 0 too
        mids = np.concatenate([n[1::2] for n in values]) / (self.n_max or 1.0)
        edges = np.concatenate(edges)
        starts = np.flatnonzero(np.r_[True, mids[1:] != mids[:-1]])
        self.edges = edges[np.r_[starts, len(mids)]].tolist()
        self.ns = mids[starts].tolist()
        self.widths = np.diff(self.edges).tolist()

    def shoot(self, c: float) -> float:
        """theta(0; c), from theta(-1) = 0."""
        u = 1.0 / c
        theta, scale = 0.0, 1.0  # theta = 0 is phi = 0 in any plane
        for w, n in zip(self.widths, self.ns):
            k = n * u
            prev, scale = scale, k or 1.0
            # re-read theta, as turns + r with |r| <= pi/2, in the plane
            # (k phi, phi'), or (phi, phi') where N = 0
            turns = round(theta / math.pi) * math.pi
            r = math.atan2(scale * math.sin(theta - turns),
                           prev * math.cos(theta - turns))
            if k:
                theta = turns + r + k * w
            else:
                theta = turns + math.atan2(math.sin(r) + w * math.cos(r),
                                           math.cos(r))
        return theta


def _roots(shooter: _Shooter, modes: int) -> list:
    """(c_m, theta(0; c_m)) for c_1 > ... > c_modes, where theta(0; c_m) =
    m pi, found in u = 1/c; theta is the one shot at the returned root.

    theta(0; 1/u) >= m pi exactly where u >= u_m.  The first shot lies
    below u_1, as phi has no zero on (-1, 0] for u < pi / max N~ (Sturm
    comparison).  Mode m doubles u from u_{m-1} until theta(0) reaches m pi,
    and Brent's method closes the bracket to ROOT_REL relative width.
    ModeSearchError: u overflows, so C_m underflows."""
    lo = 0.5 * math.pi / max(shooter.ns)
    theta_lo = shooter.shoot(1.0 / lo)
    roots = []
    for m in range(1, modes + 1):
        target = m * math.pi
        hi, theta_hi = lo, theta_lo
        while theta_hi < target:
            lo, theta_lo, hi = hi, theta_hi, 2.0 * hi
            if math.isinf(hi):
                raise ModeSearchError(m - 1, modes, f"C_{m} underflows: "
                                      f"theta(0) < {m} pi down to C = 0")
            theta_hi = shooter.shoot(1.0 / hi)
        lo, miss = _zeroin(lambda u: shooter.shoot(1.0 / u) - target, lo,
                           theta_lo - target, hi, theta_hi - target, ROOT_REL)
        theta_lo = target
        roots.append((1.0 / lo, target + miss))
    return roots


def mode_solve(problem: ModeProblem, modes: int):
    """Largest `modes` eigenvalues C (descending), each with its node count.

    The eigenvalues are those of the midpoint-N cells of `_Shooter`; a
    constant piece is exact.  Where N varies within a piece, the mesh
    doubled (N_max kept) gives C_2M, and C is the Richardson value
    (4 C_2M - C_M) / 3; where both meshes merge to the same cells, C_M
    stands.  A mode's zeros inside (-H, 0) are the multiples of pi that
    theta passes (Sturm oscillation), so `nodes` is round(theta(0)/pi) - 1
    at its root, the fine mesh's where the Richardson value is taken:
    phi(0) = 0 puts theta(0) on a multiple of pi.
    ModeSearchError: N vanishes, C_2M differs from C_M by more than
    MESH_REL (the mesh does not resolve N), or a C is not a normal float.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    shooter = _Shooter(problem)
    fine = _Shooter(problem, 2, shooter.n_max)
    if not (max(shooter.ns) > 0 and max(fine.ns) > 0):
        raise ModeSearchError(0, modes, "N vanishes on every cell of a mesh")
    roots = _roots(shooter, modes)
    if (fine.edges, fine.ns) != (shooter.edges, shooter.ns):
        fine_roots = _roots(fine, modes)
        for m, ((c, _), (f, _)) in enumerate(zip(roots, fine_roots), 1):
            if abs(f - c) > MESH_REL * f:
                raise ModeSearchError(m - 1, modes, f"C_{m} is not resolved: "
                                      f"halving the cells moves it by "
                                      f"{abs(f - c) / f:.2g} relative")
        roots = [((4.0 * f - c) / 3.0, theta)
                 for (c, _), (f, theta) in zip(roots, fine_roots)]
    found = []
    for m, (c, theta) in enumerate(roots, 1):
        C = c * shooter.n_max * problem.H
        if not np.finfo(float).tiny <= C < math.inf:
            raise ModeSearchError(m - 1, modes, f"C_{m} = {C:.3g} "
                                  f"{'underflows' if C < 1 else 'overflows'}"
                                  " the normal float range")
        found.append(Mode(m, C, shooter.n_max / C,
                          round(theta / math.pi) - 1))
    return found


def _zeroin(f, a: float, fa: float, b: float, fb: float, rel: float):
    """Brent's zeroin (Algorithms for Minimization without Derivatives,
    1973, ch. 4): (x, f(x)) for a zero x of f between a and b, where
    f(a) = fa and f(b) = fb differ in sign, returned once the bracket
    around it is at most rel * |x| wide.  Each step interpolates (secant
    or inverse quadratic) and falls back to bisection whenever the
    interpolated point would not shrink the bracket fast enough."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):  # b is the best estimate, c the other end
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * rel * abs(b)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b, fb
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
