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
from numpy.lib.stride_tricks import sliding_window_view

from .expr import (
    Expr, check_vars, eval_on_grid, free_vars, num, simplify, substitute,
    to_text,
)
from .symmetry import PdeSpec, _as_expr, _load_json

_UPWIND_A_THRESHOLD = 1e-14
BLOCK = 256  # time steps whose t-dependent coefficients are evaluated at once


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
    """Too few eigenvalues lie where the RK4 shooting grid resolves them."""

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
    """e at (xs[i], ts[j]) as [j, i]; ValueError at a non-finite value."""
    vals = np.broadcast_to(eval_on_grid(e, {"x": xs, "t": ts[:, None]}),
                           (len(ts), len(xs)))
    if not np.isfinite(vals).all():
        j, i = np.unravel_index(np.flatnonzero(~np.isfinite(vals))[0], vals.shape)
        raise ValueError(f"{what} is not finite at x = {xs[i]:.6g}, "
                         f"t = {ts[j]:.6g}")
    return vals


def stable_dt(p: PdeSpec, xs: np.ndarray, t0: float, t1: float):
    """The explicit scheme's one stability rule: (advective, dt_max).

    A and B are probed on the x nodes `xs` at 64 times spanning [t0, t1].
    A < 0 is backward diffusion: ValueError (ill-posed).  Where A vanishes
    u_x is upwinded and dt <= dx / max|B| (inf when B vanishes too);
    otherwise dt <= dx^2 / (2 max|A|).
    """
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    ts = np.linspace(t0, t1, 64)
    a_vals, b_vals = (_on_grid(c, xs, ts, f"coefficient {to_text(c)}")
                      for c in (p.A, p.B))
    j, i = np.unravel_index(np.argmin(a_vals), a_vals.shape)
    if a_vals[j, i] < -_UPWIND_A_THRESHOLD:
        raise ValueError(
            f"A = {a_vals[j, i]:.6g} < 0 at x = {xs[i]:.6g}, t = {ts[j]:.6g}: "
            f"backward diffusion is ill-posed")
    max_a, max_b = (float(np.max(np.abs(v))) for v in (a_vals, b_vals))
    if max_a >= _UPWIND_A_THRESHOLD:
        return False, dx * dx / (2.0 * max_a)
    return True, dx / max_b if max_b > 0 else math.inf


def auto_nt(pde: PdeSpec, grid: Grid1D) -> int:
    """The step count `solve` picks without --nt: the span over the
    `stable_dt` bound, halved for upwind; span / 16 where no bound holds."""
    span = grid.t1 - grid.t0
    advective, dt = stable_dt(pde, grid.xs(), grid.t0, grid.t1)
    if math.isinf(dt):
        dt = span / 16
    elif advective:
        dt *= 0.5
    return max(1, int(math.ceil(span / dt)))


def fd_solve(p: PdeSpec, ic: Expr, bc: Expr, g: Grid1D):
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
    weights at once from the block's A, B and C, evaluated in one call.  A
    step is one multiply of the rows (lo, mid, hi) by the rows (u_{i-1},
    u_i, u_{i+1}) and one sum over the rows, in that order.

    Preconditions, enforced when the first level is asked for: those of
    `stable_dt`, A >= 0 and the step bound of the scheme it picks.  A
    BlowupError comes before the earlier levels of its block of steps are
    yielded.
    """
    xs, ts = g.xs(), g.ts()
    dx, dt = g.dx, g.dt
    advective, dt_req = stable_dt(p, xs, g.t0, g.t1)
    if dt > dt_req:
        raise StabilityError(dt, dt_req)

    xi = xs[1:-1]
    # coefficients free of t are evaluated once, the others once per block,
    # in one call so that a subtree they share is evaluated once
    coeffs = (p.A, p.B, p.C)
    timed = tuple(c for c in coeffs if "t" in free_vars(c))
    steady = tuple(c for c in coeffs if "t" not in free_vars(c))
    values = dict(zip(map(id, steady), eval_on_grid(steady, {"x": xi})))
    edges = np.broadcast_to(
        eval_on_grid(bc, {"x": xs[[0, -1], None], "t": ts}), (2, g.nt + 1))
    u = np.empty(g.nx)
    u[:] = eval_on_grid(ic, {"x": xs})
    if not np.isfinite(u).all():
        raise ValueError("initial condition evaluated to non-finite values")
    yield u
    prods = np.empty((3, g.nx - 2))
    for n0 in range(0, g.nt, BLOCK):
        n1 = min(n0 + BLOCK, g.nt)
        if timed:
            values.update(zip(map(id, timed), eval_on_grid(
                timed, {"x": xi, "t": ts[n0:n1, None]})))
        # weights[n] is (lo, mid, hi) of step n0 + n as rows, and
        # windows[n] is (u_{i-1}, u_i, u_{i+1}) of the level before it:
        # row 0 of block holds that level, row n + 1 the level step n makes
        weights = np.broadcast_to(
            _weights(*(values[id(c)] for c in coeffs), dt, dx, advective,
                     g.nx - 2),
            (n1 - n0, 3, g.nx - 2))
        block = np.empty((n1 - n0 + 1, g.nx))
        block[0] = u
        block[1:, 0], block[1:, -1] = edges[:, n0 + 1:n1 + 1]
        windows = sliding_window_view(block, 3, axis=1).swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for w, window, inner in zip(weights, windows, block[1:, 1:-1]):
                np.multiply(w, window, out=prods)
                np.add.reduce(prods, axis=0, out=inner)
        u = block[-1]
        finite = np.isfinite(block[1:]).all(axis=1)
        if not finite.all():
            n = n0 + 1 + int(np.argmin(finite))
            raise BlowupError(n, float(ts[n]))
        yield from block[1:]


def _weights(A, B, C, dt: float, dx: float, advective: bool, m: int):
    """The update's lo, mid and hi (see `fd_solve`) as the rows of one
    array of m columns; each is written into it, so no second copy of the
    three is held."""
    shape = np.broadcast_shapes(np.shape(A), np.shape(B), np.shape(C), (m,))
    out = np.empty(shape[:-1] + (3, m))
    lo, mid, hi = np.moveaxis(out, -2, 0)
    d = dt * A / (dx * dx)
    np.subtract(1.0 + dt * C, 2.0 * d, out=mid)
    if advective:
        b_plus = dt * np.maximum(B, 0.0) / dx
        b_minus = dt * np.minimum(B, 0.0) / dx
        np.subtract(d, b_minus, out=lo)
        np.add(d, b_plus, out=hi)
        mid -= b_plus
        mid += b_minus
    else:
        w = dt * B / (2.0 * dx)
        np.subtract(d, w, out=lo)
        np.add(d, w, out=hi)
    return out


@dataclass(frozen=True)
class ConvergenceLevel:
    dx: float
    error: float
    order: Optional[float]  # None on the coarsest level or at rounding floor


def convergence_order(p: PdeSpec, exact: Expr, g0: Grid1D, levels: int,
                      base: Optional[np.ndarray] = None):
    """Refinement study: halve dx per level with dt scaled by 1/4 (diffusive)
    or 1/2 (pure advection); errors are L-infinity against `exact` at the
    final time, where `exact` must be finite (ValueError).  When the caller
    has run g0 already, from `exact` at g0.t0, `base` (its u at g0.t1)
    stands in for level 0's run."""
    if levels < 3:
        raise ValueError("need at least 3 levels")
    advective, _ = stable_dt(p, g0.xs(), g0.t0, g0.t1)
    out = []
    prev_error = None
    for lvl in range(levels):
        factor = 2**lvl
        g = Grid1D(g0.x0, g0.x1, (g0.nx - 1) * factor + 1,
                   g0.t0, g0.t1, g0.nt * (factor if advective else factor * factor))
        ref = _on_grid(exact, g.xs(), np.array([g.t1]),
                       f"closed form {to_text(exact)}")[0]
        u = base
        if lvl or base is None:
            for u in fd_solve(p, substitute(exact, {"t": g.t0}), exact, g):
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
            raise ValueError("H must be positive")
        norm = []
        for z_lo, z_hi, n_expr in self.pieces:
            e = _as_expr(n_expr)
            check_vars(e, ("z",), "N")
            probe = eval_on_grid(e, {"z": np.linspace(float(z_lo),
                                                      float(z_hi), 33)})
            if not np.isfinite(probe).all() or np.min(probe) < -1e-12:
                raise ValueError(
                    f"N must be finite and nonnegative on [{z_lo}, {z_hi}]")
            norm.append((float(z_lo), float(z_hi), simplify(e)))
        norm.sort(key=lambda p: p[0])
        if (not norm or abs(norm[0][0] + self.H) > 1e-12
                or abs(norm[-1][1]) > 1e-12):
            raise ValueError("pieces must cover [-H, 0]")
        for (_, hi, _), (lo, _, _) in zip(norm, norm[1:]):
            if abs(hi - lo) > 1e-12:
                raise ValueError("pieces must be contiguous")
        object.__setattr__(self, "pieces", tuple(norm))

    @classmethod
    def constant(cls, n_bar: float, H: float) -> "ModeProblem":
        return cls(H, ((-H, 0.0, _as_expr(repr(float(n_bar)))),))


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
        raise ValueError('N must be an expression or a list of '
                         '{"z": [lo, hi], "expr": ...} pieces')
    return ModeProblem(H, tuple(
        (float(num(piece["z"][0], "N.z").value),
         float(num(piece["z"][1], "N.z").value),
         piece["expr"]) for piece in n))


@dataclass(frozen=True)
class Mode:
    index: int          # 1-based mode number (largest eigenvalue first)
    C: float            # eigenvalue
    k: float            # max-profile wavenumber N_max / C
    zs: np.ndarray      # sample grid
    shape: np.ndarray   # phi samples on zs

    def interior_zeros(self) -> int:
        vals = self.shape[1:-1]
        scale = np.max(np.abs(self.shape))
        return _sign_changes(vals[np.abs(vals) > 1e-12 * scale])


def _sign_changes(vals: np.ndarray) -> int:
    signs = np.sign(vals[vals != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class _Shooter:
    """RK4 shooting for phi'' = -(N(z)/C)^2 phi from z = -H with phi = 0,
    phi' = 1.  N^2 is cached on the integration grid once; every shot for a
    new C is then pure arithmetic.  It runs on Python floats: the same
    arithmetic on numpy float64 scalars costs about three times as much."""

    def __init__(self, problem: ModeProblem, nsteps: int):
        self.segments = []
        grids = []
        total = problem.H
        for z_lo, z_hi, n_expr in problem.pieces:
            count = max(16, int(round(nsteps * (z_hi - z_lo) / total)))
            # nodes and RK4 midpoints: even and odd entries
            zs = np.linspace(z_lo, z_hi, 2 * count + 1)
            n2 = np.broadcast_to(eval_on_grid(n_expr, {"z": zs}), zs.shape)**2
            if not np.isfinite(n2).all():
                raise ValueError("N(z) is not finite on the integration grid")
            self.segments.append(((z_hi - z_lo) / count, n2[::2].tolist(),
                                  n2[1::2].tolist()))
            grids.append(zs[2::2] if grids else zs[::2])
        self.zs = np.concatenate(grids)

    def shoot(self, C: float, record: bool = False):
        """phi(0; C), or (phi(0; C), zs, phi on zs) when recording."""
        # n2 * (-1/C^2) is -(n2/C^2) bit for bit: a product's sign is exact
        minus_inv_c2 = -1.0 / (C * C)
        phi, psi = 0.0, 1.0
        phis = [phi]
        append = phis.append
        for h, n2_nodes, n2_mids in self.segments:
            half, sixth = 0.5 * h, h / 6.0
            k_hi = n2_nodes[0] * minus_inv_c2
            for n2_mid, n2_hi in zip(n2_mids, n2_nodes[1:]):
                k_lo = k_hi
                k_mid = n2_mid * minus_inv_c2
                k_hi = n2_hi * minus_inv_c2
                # stage slopes; the first one of phi is psi itself
                dpsi1 = k_lo * phi
                dphi2 = psi + half * dpsi1
                dpsi2 = k_mid * (phi + half * psi)
                dphi3 = psi + half * dpsi2
                dpsi3 = k_mid * (phi + half * dphi2)
                dphi4 = psi + h * dpsi3
                dpsi4 = k_hi * (phi + h * dphi3)
                phi += sixth * (psi + 2.0 * dphi2 + 2.0 * dphi3 + dphi4)
                psi += sixth * (dpsi1 + 2.0 * dpsi2 + 2.0 * dpsi3 + dpsi4)
                append(phi)
        if record:
            return phi, self.zs, np.array(phis)
        return phi


NSTEPS = 2000       # RK4 steps over the column
BISECT_REL = 1e-12  # relative width of the final eigenvalue bracket
MAX_KH = 0.5        # largest N_max h / C the RK4 grid is trusted to resolve


def mode_solve(problem: ModeProblem, modes: int):
    """Largest `modes` eigenvalues C (descending) with sampled mode shapes.

    The shot's node count Z(C), its sign changes on (-H, 0], falls from m
    to m - 1 at C_m (Sturm oscillation), and sign phi(0; C) = (-1)^Z(C).
    Every Z found is kept, so mode m starts from the tightest bracket the
    earlier modes left: the smallest C with Z <= m - 1 (at first the
    Sturm comparison bound N_max H / ((m - 1/2) pi)) and the largest C
    with Z >= m (else halving down from the upper end until Z >= m).
    Bisection on Z isolates C_m, Z(lo) = m and Z(hi) = m - 1, and Brent's
    method on phi(0; C) closes the bracket to BISECT_REL relative width.
    ModeSearchError: N vanishes, C^2 underflows at the smallest C the RK4
    grid resolves, or mode m lies below that C.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    shooter = _Shooter(problem, NSTEPS)
    n_max = math.sqrt(max(max(n2) for _, n2, _ in shooter.segments))
    if n_max == 0.0:
        raise ModeSearchError(0, modes, "N vanishes on the whole column")
    c_min = n_max * max(h for h, _, _ in shooter.segments) / MAX_KH
    if c_min * c_min == 0.0:  # every shot divides by C^2
        raise ModeSearchError(0, modes, f"C^2 underflows at C = {c_min:.3g}, "
                              "the smallest C the shooting grid resolves")
    shots = {}   # C -> (Z(C), phi(0; C)) of every C shot so far
    shapes = {}  # C -> phi on the grid, of the current mode's shots only

    def shoot(c: float) -> float:
        phi0, _, shapes[c] = shooter.shoot(c, record=True)
        return phi0

    def count(c: float) -> int:
        phi0 = shoot(c)
        shots[c] = (_sign_changes(shapes[c][1:]), phi0)
        return shots[c][0]

    found = []
    for m in range(1, modes + 1):
        shapes.clear()
        hi = min((c for c, (z, _) in shots.items() if z < m),
                 default=n_max * problem.H / ((m - 0.5) * math.pi))
        lo = max((c for c, (z, _) in shots.items() if z >= m), default=None)
        if lo is None:
            lo = max(0.5 * hi, c_min)
            while count(lo) < m:
                if lo == c_min:
                    raise ModeSearchError(
                        m - 1, modes, f"mode {m} has C < {c_min:.3g}, below "
                        f"what the {NSTEPS}-step shooting grid resolves")
                hi, lo = lo, max(0.5 * lo, c_min)
        if hi not in shots:
            count(hi)
        # isolate C_m; the width bound only ends a search whose node
        # counts never settle
        while ((shots[lo][0] > m or shots[hi][0] < m - 1)
               and hi - lo > BISECT_REL * hi):
            mid = 0.5 * (lo + hi)
            if count(mid) >= m:
                lo = mid
            else:
                hi = mid
        # one eigenvalue in [lo, hi]: phi(0) changes sign there once
        c = _zeroin(shoot, lo, shots[lo][1], hi, shots[hi][1], BISECT_REL)
        if c not in shapes:  # Brent returned an end shot for an earlier mode
            shoot(c)
        found.append(Mode(m, c, n_max / c, shooter.zs, shapes[c]))
    return found


def _zeroin(f, a: float, fa: float, b: float, fb: float, rel: float) -> float:
    """Brent's zeroin (Algorithms for Minimization without Derivatives,
    1973, ch. 4): a zero of f between a and b, where f(a) = fa and
    f(b) = fb differ in sign, returned once the bracket around it is at
    most rel * |b| wide.  Each step interpolates (secant or inverse
    quadratic) and falls back to bisection whenever the interpolated point
    would not shrink the bracket fast enough."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):  # b is the best estimate, c the other end
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * rel * abs(b)
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
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
