"""Test-only oracles: independent routes to what the program computes.

None of this is called by the program.  The jet-space residual of a
generator (prolongation, on-shell substitution, expansion) cross-checks the
determining residuals; the evaluator as it was, a plain tree walk that
evaluates a shared subtree once per parent and builds the domain masks of
every Pow and Call, cross-checks the evaluator that evaluates it once and
builds them only where a value is not finite; the grid residual of a closed form cross-checks the
sampled zero test; forward Euler written as the textbook increment
cross-checks the three-weight update of `fd_solve`; the Simpson probe shows
why wave synthesis freezes phi; a plain max |e| over a cloud checks printed
residual figures; the determining system written through P and R, as
the paper states it for the wave and oscillator families, checks those
families term by term; the raw derivative rule as it was, simplified
afterwards, checks the `diff` that builds the canonical derivative in one
pass; the product fold as it was, seeded with a fresh
exact 1, checks the `_mul` that keeps its first constant as it is; and
free_vars, node_count and substitute written with one branch per node
kind check the versions that walk `nodes.children`; the sum that rebuilds
every term and the negation that folds every product again check the
`_add` and `_negate` that keep the canonical nodes they are handed; a
mode's shape, sampled in closed form per cell, counts by its sign changes
the zeros that `mode_solve` reads from theta's winding; and the point-pair
search for equal z, which compares c1/c2 and c0/c2 at the two points of
each pair, checks the Jacobian zero tests of `z_closure`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from liewave.expr import (
    Add, Call, Const, EvalError, Expr, Mul, Neg, Pow, Var, coerce, diff,
    eval_checked, eval_numeric, eval_on_grid, expand, free_vars, num,
    sample_box, simplify, substitute,
)
from liewave.expr.nodes import FUNCTIONS, MINUS_ONE, ONE, ZERO, sort_key
from liewave.expr.sampling import _point
from liewave.expr.simplify import (
    _join_term, _mul, _negate, _pow, _split_factor, _split_term,
)
from liewave.numverify import NSTEPS, Grid1D, _on_grid, stable_dt
from liewave.reduction import ReductionResult, SeparableAnsatz
from liewave.symmetry import (
    Domain, Generator, PdeSpec, determining_residuals,
)

T = Var("t")
U = Var("u")
U_X = Var("u_x")
U_T = Var("u_t")
U_2X = Var("u_2x")

JET_RANGE = (-2.0, 2.0)


# ------------------------------------------------------------ tree walk

def tree_walk_numeric(e: Expr, bindings) -> float:
    """eval_numeric through the evaluator as it was."""
    env = {name: float(value) for name, value in bindings.items()}
    with np.errstate(all="ignore"):
        v = float(_ev(e, env, _raise))
    if not math.isfinite(v):
        raise EvalError("non-finite result", e)
    return v


def tree_walk_on_grid(e: Expr, bindings) -> np.ndarray:
    """eval_on_grid of one expression through the evaluator as it was."""
    with np.errstate(all="ignore"):
        return np.asarray(_ev(e, bindings, None), dtype=float)


def tree_walk_checked(e: Expr, bindings):
    """eval_checked through the evaluator as it was."""
    failed = np.zeros(np.broadcast(*bindings.values()).shape, dtype=bool)

    def note(mask, message, node):
        np.logical_or(failed, mask, out=failed)

    with np.errstate(all="ignore"):
        try:
            values = _ev(e, bindings, note)
        except EvalError:
            values = np.nan
    values = np.broadcast_to(values, failed.shape)
    failed |= ~np.isfinite(values)
    return values, failed


def _raise(mask, message, node):
    if mask:
        raise EvalError(message, node)


def _ev(e: Expr, env, fail):
    """The tree walker behind every entry point.  Values are floats or
    float arrays.  fail(mask, message, node) is told where a node is
    undefined, in evaluation order; with fail None nothing is checked.
    Every Pow and Call builds its masks, whatever its value."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Add):
        return reduce(operator.add, [_ev(t, env, fail) for t in e.terms])
    if isinstance(e, Mul):
        return reduce(operator.mul, [_ev(f, env, fail) for f in e.factors])
    if isinstance(e, Neg):
        return -_ev(e.child, env, fail)
    if isinstance(e, Pow):
        base, expo = _ev(e.base, env, fail), _ev(e.exponent, env, fail)
        v = np.power(base, expo)
        if fail is not None:
            finite = np.isfinite(base) & np.isfinite(expo)
            fail((base == 0) & (expo < 0), "zero raised to a negative power", e)
            fail(finite & (base < 0) & (expo != np.floor(expo)),
                 "negative base raised to a non-integer power", e)
            fail(finite & ~np.isfinite(v), "overflow", e)
        return v
    if isinstance(e, Call):
        arg = _ev(e.arg, env, fail)
        v = FUNCTIONS[e.fn](arg)
        if fail is not None:
            if e.fn == "log":
                fail(arg <= 0, "log of a nonpositive value", e)
            elif e.fn == "sqrt":
                fail(arg < 0, "sqrt of a negative value", e)
            fail(np.isfinite(arg) & ~np.isfinite(v), "overflow", e)
        return v
    raise TypeError(f"not an Expr: {e!r}")


# ------------------------------------------------------------ jet space

def jet_box(domain: Domain, u_range=JET_RANGE):
    return domain.box(u=u_range, u_x=u_range, u_2x=u_range)


def rhs_jet(p: PdeSpec) -> Expr:
    """A*u_2x + B*u_x + C*u, the elimination target for u_t."""
    return simplify(p.A * U_2X + p.B * U_X + p.C * U)


def prolong2(g: Generator):
    """Total-derivative prolongation of eta = M*u through second order in x:
    (eta_x, eta_t, eta_2x) in jet variables.  eta_x and eta_t are affine in
    (u, u_x, u_t), eta_2x in (u, u_x, u_2x); both facts follow from the
    reduced dependences."""
    Mx = diff(g.M, "x")
    Mt = diff(g.M, "t")
    M2x = diff(Mx, "x")
    xi_x = diff(g.xi, "x")
    xi_t = diff(g.xi, "t")
    xi_2x = diff(xi_x, "x")
    phi_t = diff(g.phi, "t")
    eta_x = simplify(Mx * U + (g.M - xi_x) * U_X)
    eta_t = simplify(Mt * U + g.M * U_T - xi_t * U_X - phi_t * U_T)
    eta_2x = simplify(M2x * U + (2 * Mx - xi_2x) * U_X + (g.M - 2 * xi_x) * U_2X)
    return eta_x, eta_t, eta_2x


def invariance_residual(p: PdeSpec, g: Generator) -> Expr:
    """Action of the prolonged generator on the equation, on-shell.

    The returned jet-space expression vanishes identically in
    (u, u_x, u_2x) exactly when g generates a symmetry of p.
    """
    eta_x, eta_t, eta_2x = prolong2(g)
    At, Ax = diff(p.A, "t"), diff(p.A, "x")
    Bt, Bx = diff(p.B, "t"), diff(p.B, "x")
    Ct, Cx = diff(p.C, "t"), diff(p.C, "x")
    eta = g.M * U
    res = ((g.phi * At + g.xi * Ax) * U_2X
           + (g.phi * Bt + g.xi * Bx) * U_X
           + g.phi * Ct * U + g.xi * Cx * U
           + p.C * eta + p.B * eta_x - eta_t + p.A * eta_2x)
    res = substitute(res, {"u_t": rhs_jet(p)})
    return expand(res)


@dataclass(frozen=True)
class JetPoint:
    x: float
    t: float
    u: float
    u_x: float
    u_2x: float

    def bindings(self):
        return {"x": self.x, "t": self.t, "u": self.u,
                "u_x": self.u_x, "u_2x": self.u_2x}


def sample_jets(domain: Domain, n: int, *, seed: int = 0,
                u_range=JET_RANGE):
    cols = sample_box(jet_box(domain, u_range), n, seed)
    return [JetPoint(*p) for p in zip(*(cols[k].tolist() for k in
                                         ("x", "t", "u", "u_x", "u_2x")))]


def monomial_collect_check(p: PdeSpec, g: Generator, jets, *,
                           tol: float = 1e-9) -> bool:
    """Cross-validate the monomial collection step on concrete jet points:
    the on-shell residual must equal r1*u_2x - r2*u_x - r3*u everywhere.
    """
    jets = list(jets)
    if len(jets) < 20:
        raise ValueError(f"need at least 20 jet points, got {len(jets)}")
    res = invariance_residual(p, g)
    r1, r2, r3 = determining_residuals(p, g)
    collected = expand(r1 * U_2X - r2 * U_X - r3 * U)
    for jp in jets:
        b = jp.bindings()
        lhs = eval_numeric(res, b)
        rhs = eval_numeric(collected, b)
        if abs(lhs - rhs) > tol * max(1.0, abs(lhs), abs(rhs)):
            return False
    return True


# ------------------------------------------------------ residual figures

@dataclass(frozen=True)
class GridResidual:
    max_abs: float
    x: float
    t: float


def residual_on_grid(p: PdeSpec, u: Expr, g: Grid1D) -> GridResidual:
    """Max |u_t - A u_2x - B u_x - C u| over interior x nodes and all time
    levels, with the derivatives taken symbolically."""
    extra = free_vars(u) - {"x", "t"}
    if extra:
        raise ValueError(f"u may only use x and t, found {sorted(extra)}")
    xs, ts = g.xs()[1:-1], g.ts()
    vals = np.abs(_on_grid(p.residual(u), xs, ts[:, None], "residual"))
    j, i = np.unravel_index(np.argmax(vals), vals.shape)
    return GridResidual(float(vals[j, i]), float(xs[i]), float(ts[j]))


def euler_incremental(p: PdeSpec, ic: Expr, bc: Expr, g: Grid1D):
    """Forward Euler as the textbook increment u + dt (A u_2x + B u_x + C u),
    with the scheme `fd_solve` picks (u_x upwinded by the sign of B where A
    vanishes, centered otherwise) and every coefficient evaluated per step;
    returns values[i, n], the u at x_i of the level `fd_solve` yields
    n-th."""
    xs, ts = g.xs(), g.ts()
    dx, dt = g.dx, g.dt
    advective, _ = stable_dt(p, xs, g.t0, g.t1)
    xi = xs[1:-1]
    values = np.empty((g.nx, g.nt + 1))
    values[[0, -1], :] = eval_on_grid(bc, {"x": xs[[0, -1], None], "t": ts})
    values[:, 0] = eval_on_grid(ic, {"x": xs})
    for n in range(g.nt):
        u = values[:, n]
        A, B, C = (eval_on_grid(c, {"x": xi, "t": ts[n]})
                   for c in (p.A, p.B, p.C))
        u_2x = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        if advective:
            u_x = np.where(B >= 0, (u[2:] - u[1:-1]) / dx,
                           (u[1:-1] - u[:-2]) / dx)
        else:
            u_x = (u[2:] - u[:-2]) / (2.0 * dx)
        values[1:-1, n + 1] = u[1:-1] + dt * (A * u_2x + B * u_x
                                              + C * u[1:-1])
    return values


def max_abs_sampled(e: Expr, box, *, n: int = 100, seed: int = 0):
    """Plain max |e| over a sampled cloud; returns (max, argmax point).
    Evaluation errors propagate (use is_zero_sampled for tolerant checks)."""
    cols = sample_box(box, n, seed)
    values, failed = eval_checked(e, cols)
    if failed.any():
        eval_numeric(e, _point(cols, int(np.argmax(failed))))  # raises there
    mags = np.abs(values)
    i = int(np.argmax(mags))
    return float(mags[i]), _point(cols, i)


# ------------------------------------ determining system through P and R

def wave_determining_forms(p: PdeSpec, a: SeparableAnsatz):
    """The three determining equations of the separable generator `a`
    (general phi(t)) rewritten through P and R; they equal
    P'^2 r1, -P'^4 r2 and -P'^4 r3 of `determining_residuals`."""
    q, v = num(a.q), num(a.v)
    phi = a.phi
    phit = diff(phi, "t")
    Pp = diff(a.P, "x")
    Ppp = diff(Pp, "x")
    Pppp = diff(Ppp, "x")
    Rp = diff(a.R, "x")
    Rpp = diff(Rp, "x")
    Rppp = diff(Rpp, "x")
    A, B, C = p.A, p.B, p.C
    At, Ax = diff(A, "t"), diff(A, "x")
    Bt, Bx = diff(B, "t"), diff(B, "x")
    Ct, Cx = diff(C, "t"), diff(C, "x")
    det1 = simplify(phi * At * Pp**2 + q * phi * Ax * Pp + phit * A * Pp**2
                    + 2 * q * phi * A * Ppp)
    det2 = simplify(phi * Bt * Pp**4 + q * phi * Bx * Pp**3
                    + q * phi * B * Ppp * Pp**2 + q * phit * Pp**3
                    + phit * B * Pp**4 + 2 * v * q * phi * A * Rpp * Pp**3
                    - 2 * v * q * phi * A * Rp * Ppp * Pp**2
                    + q * phi * A * Pppp * Pp**2
                    - 2 * q * phi * A * Pp * Ppp**2)
    det3 = simplify(phi * Ct * Pp**4 + q * phi * Cx * Pp**3
                    + q * v * phi * B * Rpp * Pp**3
                    - q * v * phi * B * Rp * Ppp * Pp**2
                    + phit * C * Pp**4 + v * q * phi * A * Rppp * Pp**3
                    - v * q * phi * A * Rp * Pppp * Pp**2
                    - 2 * v * q * phi * A * Rpp * Ppp * Pp**2
                    + 2 * q * v * phi * A * Rp * Pp * Ppp**2
                    - q * v * phit * Rp * Pp**3)
    return det1, det2, det3


def oscillator_determining_forms(p: PdeSpec, a: SeparableAnsatz):
    """The two determining equations (P, R form) that remain when A = 0;
    they equal -P'^4 r2 and -P'^4 r3 of `determining_residuals`."""
    q, v = num(a.q), num(a.v)
    phi = a.phi
    phit = diff(phi, "t")
    Pp = diff(a.P, "x")
    Ppp = diff(Pp, "x")
    Rp = diff(a.R, "x")
    Rpp = diff(Rp, "x")
    B, C = p.B, p.C
    Bt, Bx = diff(B, "t"), diff(B, "x")
    Ct, Cx = diff(C, "t"), diff(C, "x")
    eq1 = simplify(phi * Bt * Pp**4 + q * phi * Bx * Pp**3
                   + q * phi * B * Ppp * Pp**2 + q * phit * Pp**3
                   + phit * B * Pp**4)
    eq2 = simplify(phi * Ct * Pp**4 + q * phi * Cx * Pp**3
                   + q * v * phi * B * Rpp * Pp**3
                   - q * v * phi * B * Rp * Ppp * Pp**2
                   + phit * C * Pp**4 - q * v * phit * Rp * Pp**3)
    return eq1, eq2


# ---------------------------------------------------- wave gauge probe

def probe_gauge_time_dependence(P: Expr, phi: Expr, q: float, *,
                                x_ref: float, x_probe: float, t_values,
                                n_quad: int = 400):
    """Numeric probe for the general-phi gauge candidate.

    Integrates  [2 P''(a) phi(tau) q + P'(a)^2 phi'(tau)] /
                [P'(a) phi(tau) q],   tau = (P(a) + q t - P(x))/q
    over a in [x_ref, x_probe] by Simpson's rule, for each t.  A spread
    across t means the candidate gauge is not a function of x alone, which
    is why wave synthesis keeps phi frozen to 1.
    Returns {t: -integral}.
    """
    Pp = diff(P, "x")
    Ppp = diff(Pp, "x")
    phit = diff(phi, "t")
    qe = num(q)
    tau = simplify((substitute(P, {"x": Var("a")}) + qe * T - P) / qe)
    integrand = simplify(
        (2 * substitute(Ppp, {"x": Var("a")}) * substitute(phi, {"t": tau}) * qe
         + substitute(Pp, {"x": Var("a")})**2 * substitute(phit, {"t": tau}))
        / (substitute(Pp, {"x": Var("a")}) * substitute(phi, {"t": tau}) * qe))
    if n_quad % 2:
        n_quad += 1
    h = (x_probe - x_ref) / n_quad
    out = {}
    for t in t_values:
        total = 0.0
        for i in range(n_quad + 1):
            a_i = x_ref + i * h
            w = 1 if i in (0, n_quad) else (4 if i % 2 else 2)
            total += w * eval_numeric(integrand, {"a": a_i, "x": x_probe, "t": t})
        out[t] = -total * h / 3.0
    return out


# ------------------------------------------------------ raw derivative

def raw_derivative(e: Expr, var: str) -> Expr:
    """The derivative as `diff` built it before simplifying it, without
    its table: unsimplified, or the ZERO node itself where it is
    structurally zero (a constant, another variable, or a node none of
    whose children depend on `var`).  The product rule writes no term for
    a factor whose derivative is ZERO."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    return _raw_rule(e, var)


def _raw_rule(e: Expr, var: str) -> Expr:
    """The derivative rule for branch node e; children go through
    raw_derivative."""
    if isinstance(e, Add):
        terms = tuple(d for d in (raw_derivative(t, var) for t in e.terms)
                      if d is not ZERO)
        return Add(terms) if terms else ZERO
    if isinstance(e, Neg):
        d = raw_derivative(e.child, var)
        return ZERO if d is ZERO else Neg(d)
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            d = raw_derivative(f, var)
            if d is not ZERO:
                terms.append(Mul(e.factors[:i] + (d,) + e.factors[i + 1:]))
        return Add(tuple(terms)) if terms else ZERO
    if isinstance(e, Pow):
        b, x = e.base, e.exponent
        db, dx = raw_derivative(b, var), raw_derivative(x, var)
        if isinstance(x, Const):
            if db is ZERO:
                return ZERO
            return Mul((x, Pow(b, Const(x.value - 1)), db))
        if isinstance(b, Const):
            return ZERO if dx is ZERO else Mul((e, Call("log", b), dx))
        # general exponent: b^x * (x' log b + x b'/b)
        terms = []
        if dx is not ZERO:
            terms.append(Mul((dx, Call("log", b))))
        if db is not ZERO:
            terms.append(Mul((x, db, Pow(b, MINUS_ONE))))
        return Mul((e, Add(tuple(terms)))) if terms else ZERO
    if isinstance(e, Call):
        u, du = e.arg, raw_derivative(e.arg, var)
        if du is ZERO:
            return ZERO
        if e.fn == "exp":
            return Mul((e, du))
        if e.fn == "log":
            return Mul((du, Pow(u, MINUS_ONE)))
        if e.fn == "sin":
            return Mul((Call("cos", u), du))
        if e.fn == "cos":
            return Neg(Mul((Call("sin", u), du)))
        if e.fn == "sqrt":
            return Mul((du, Pow(Mul((Const(Fraction(2)), e)), MINUS_ONE)))
    raise TypeError(f"not an Expr: {e!r}")


# ------------------------------------------------------------ product fold

def unit_seeded_mul(factors: tuple) -> Expr:
    """`simplify._mul` as it was: the coefficient starts as a new
    Fraction(1) and every constant is multiplied into it."""
    coeff = Fraction(1)
    negative = False
    raw = []
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Neg):
            negative = not negative
            stack.append(f.child)
        elif isinstance(f, Const):
            coeff = coeff * f.value
        else:
            raw.append(f)
    if coeff == 0:
        return ZERO
    if coeff < 0:
        negative = not negative
        coeff = -coeff
    powers = {}
    single = {}
    rest = []
    for f in raw:
        split = _split_factor(f)
        if split is None:
            rest.append(f)
            continue
        base, expo = split
        if base in powers:
            powers[base] += expo
            single.pop(base, None)
        else:
            powers[base] = expo
            single[base] = f
    for base, expo in powers.items():
        f = single.get(base)
        if f is not None and not isinstance(base, (Const, Mul)):
            rest.append(f)
            continue
        merged = _pow(base, Const(Fraction(expo)))
        if isinstance(merged, Const):
            coeff = coeff * abs(merged.value)
            if merged.value < 0:
                negative = not negative
            continue
        if isinstance(merged, Neg):
            negative = not negative
            merged = merged.child
        rest.append(merged)
    if coeff == 0:
        return ZERO
    if any(isinstance(r, Mul) for r in rest):
        out = unit_seeded_mul(tuple([Const(coeff)] + rest))
        return _negate(out) if negative else out
    rest.sort(key=sort_key)
    if not rest:
        body = Const(coeff)
        return Const(-coeff) if negative else body
    if coeff != 1:
        rest.insert(0, Const(coeff))
    body = rest[0] if len(rest) == 1 else Mul(tuple(rest))
    if not negative:
        return body
    return _negate(body) if isinstance(body, Add) else Neg(body)


# ------------------------------------------------------ sum and negation

def rebuilding_add(terms: tuple) -> Expr:
    """`simplify._add` as it was: every term split and joined again, with
    parallel dicts for the coefficient and the first-seen sort key."""
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    groups = {}
    order = {}
    for t in flat:
        coeff, rest = _split_term(t)
        if rest in groups:
            groups[rest] = groups[rest] + coeff
        else:
            groups[rest] = coeff
            order[rest] = tuple(sort_key(f) for f in rest)
    merged = [(order[rest], rest, c) for rest, c in groups.items() if c != 0]
    merged.sort(key=lambda item: (len(item[1]) > 0, item[0]))
    out = tuple(_join_term(c, rest) for _, rest, c in merged)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def refolding_negate(e: Expr) -> Expr:
    """`simplify._negate` as it was: a product with a leading constant is
    folded again by `_mul` with that constant negated."""
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    if isinstance(e, Add):
        return rebuilding_add(tuple(refolding_negate(t) for t in e.terms))
    if isinstance(e, Mul) and isinstance(e.factors[0], Const):
        return _mul((Const(-e.factors[0].value),) + e.factors[1:])
    return Neg(e)


# ------------------------------------------------------- per-kind walks

def free_vars_by_kind(e: Expr) -> frozenset:
    """`free_vars` as it was, one branch per node kind."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Add):
        out = frozenset()
        for t in e.terms:
            out |= free_vars_by_kind(t)
        return out
    if isinstance(e, Mul):
        out = frozenset()
        for f in e.factors:
            out |= free_vars_by_kind(f)
        return out
    if isinstance(e, Pow):
        return free_vars_by_kind(e.base) | free_vars_by_kind(e.exponent)
    if isinstance(e, Neg):
        return free_vars_by_kind(e.child)
    if isinstance(e, Call):
        return free_vars_by_kind(e.arg)
    raise TypeError(f"not an Expr: {e!r}")


def node_count_by_kind(e: Expr) -> int:
    """`node_count` as it was, one branch per node kind."""
    if isinstance(e, (Const, Var)):
        return 1
    if isinstance(e, Add):
        return 1 + sum(node_count_by_kind(t) for t in e.terms)
    if isinstance(e, Mul):
        return 1 + sum(node_count_by_kind(f) for f in e.factors)
    if isinstance(e, Pow):
        return 1 + node_count_by_kind(e.base) + node_count_by_kind(e.exponent)
    if isinstance(e, (Neg, Call)):
        child = e.child if isinstance(e, Neg) else e.arg
        return 1 + node_count_by_kind(child)
    raise TypeError(f"not an Expr: {e!r}")


def substitute_by_kind(e: Expr, bindings) -> Expr:
    """`substitute` as it was, one branch per node kind."""
    table = {name: coerce(value) for name, value in bindings.items()}
    return _sub_by_kind(e, table) if table else e


def _sub_by_kind(e: Expr, table) -> Expr:
    if isinstance(e, Var):
        return table.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return Add(tuple(_sub_by_kind(t, table) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_sub_by_kind(f, table) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_sub_by_kind(e.base, table), _sub_by_kind(e.exponent, table))
    if isinstance(e, Neg):
        return Neg(_sub_by_kind(e.child, table))
    if isinstance(e, Call):
        return Call(e.fn, _sub_by_kind(e.arg, table))
    raise TypeError(f"not an Expr: {e!r}")


def mode_shape(shooter, c: float) -> np.ndarray:
    """phi on NSTEPS + 1 equally spaced zeta of a `_Shooter`'s cells, in
    closed form per cell, for phi(-1) = 0 and phi'(-1) = 1."""
    u = 1.0 / c
    cells = []  # lower edge, k, phi and phi' of each cell
    phi, dphi = 0.0, 1.0
    for edge, w, n in zip(shooter.edges, shooter.widths, shooter.ns):
        k = n * u
        cells.append((edge, k, phi, dphi))
        cos, sin = math.cos(k * w), math.sin(k * w)
        phi, dphi = (phi * cos + dphi * (sin / k if k else w),
                     dphi * cos - k * phi * sin)
    zeta = np.linspace(-1.0, 0.0, NSTEPS + 1)
    edge, k, phi0, dphi0 = np.array(cells)[
        np.searchsorted(shooter.edges[1:-1], zeta, side="right")].T
    s = zeta - edge
    # sin(k s) / k, and s where k = 0
    sin_k = np.divide(np.sin(k * s), k, out=s.copy(), where=k > 0)
    return phi0 * np.cos(k * s) + dphi0 * sin_k


def interior_zeros(shape: np.ndarray) -> int:
    """Sign changes of a sampled shape between its end points, ignoring
    samples below 1e-12 of its largest |value|: its interior zeros while
    every half-wave holds a sample."""
    vals = shape[1:-1]
    scale = np.max(np.abs(shape))
    signs = np.sign(vals[np.abs(vals) > 1e-12 * scale])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# ----------------------------------------------------- closure in z

def check_z_closure(r: ReductionResult, domain: Domain, *, n: int = 20,
                    tol: float = 1e-8, seed: int = 0) -> bool:
    """Equal-z consistency: at point pairs sharing the same z, the
    normalized coefficients c1/c2 and c0/c2 must agree (where c2 != 0).

    z is exactly exponential in t, so the matching t2 for a chosen x2 is
    computed in closed form from sampled values of z.
    """
    x0, x1 = domain.x
    t0, t1 = domain.t
    # z(x, t) = z(x, t0) * exp(-q (t - t0)): recover q from two t-samples
    xm = 0.5 * (x0 + x1)
    q = math.log(eval_numeric(r.z_expr, {"x": xm, "t": t0})
                 / eval_numeric(r.z_expr, {"x": xm, "t": t0 + 1.0}))
    pairs = []
    cloud = sample_box({"x1": (x0, x1), "t1": (t0, t1), "x2": (x0, x1)},
                       50 * n, seed)
    for xa, ta, xb in zip(cloud["x1"].tolist(), cloud["t1"].tolist(),
                          cloud["x2"].tolist()):
        z1v = eval_numeric(r.z_expr, {"x": xa, "t": ta})
        z2v = eval_numeric(r.z_expr, {"x": xb, "t": ta})
        t2 = ta + math.log(z2v / z1v) / q
        if t0 <= t2 <= t1:
            pairs.append(((xa, ta), (xb, t2)))
        if len(pairs) == n:
            break
    if len(pairs) < n:
        raise ValueError(f"could only construct {len(pairs)} equal-z pairs")
    for (xa, ta), (xb, tb) in pairs:
        pa = {"x": xa, "t": ta}
        pb = {"x": xb, "t": tb}
        za = eval_numeric(r.z_expr, pa)
        zb = eval_numeric(r.z_expr, pb)
        if abs(za - zb) > 1e-12 * max(1.0, abs(za)):
            continue
        c2a, c2b = eval_numeric(r.c2, pa), eval_numeric(r.c2, pb)
        if min(abs(c2a), abs(c2b)) < 1e-12:
            continue
        for coeff in (r.c1, r.c0):
            va = eval_numeric(coeff, pa) / c2a
            vb = eval_numeric(coeff, pb) / c2b
            if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
                return False
    return True
