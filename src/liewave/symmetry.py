"""Point-symmetry machinery for linear evolution equations
u_t = A(x,t) u_2x + B(x,t) u_x + C(x,t) u.

Generators carry the reduced dependences phi(t), xi(x,t), eta = M(x,t)*u;
their second prolongation and the resulting determining residuals are
computed symbolically.  u_t is always eliminated through the equation, so
jet space is (x, t, u, u_x, u_2x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .expr import (
    Expr, Var, diff, eval_numeric, expand, free_vars, is_zero_sampled, num,
    parse, sample_box, simplify, substitute, to_text,
)

X = Var("x")
T = Var("t")
U = Var("u")
U_X = Var("u_x")
U_T = Var("u_t")
U_2X = Var("u_2x")

JET_RANGE = (-2.0, 2.0)


def _as_expr(e: Union[Expr, str, int, float]) -> Expr:
    if isinstance(e, Expr):
        return e
    if isinstance(e, str):
        return parse(e)
    return num(e)


@dataclass(frozen=True)
class Domain:
    """Rectangle [x0,x1] x [t0,t1] on which a problem lives."""

    x: tuple
    t: tuple

    def __post_init__(self):
        for name in ("x", "t"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
                raise ValueError(f"domain {name} must be [lo, hi], got {bounds!r}")
            lo, hi = (float(num(b, f"domain.{name}").value) for b in bounds)
            if not hi > lo:
                raise ValueError(
                    f"degenerate {name}-interval [{bounds[0]}, {bounds[1]}]")
            object.__setattr__(self, name, (lo, hi))

    def box(self, **extra):
        out = {"x": self.x, "t": self.t}
        out.update(extra)
        return out

    def jet_box(self, u_range=JET_RANGE):
        return self.box(u=u_range, u_x=u_range, u_2x=u_range)

    @classmethod
    def from_dict(cls, d) -> "Domain":
        if not isinstance(d, dict):
            raise ValueError(f"domain must be an object, got {type(d).__name__}")
        return cls(d["x"], d["t"])


@dataclass(frozen=True)
class PdeSpec:
    """The coefficient triple (A, B, C) plus the domain box."""

    A: Expr
    B: Expr
    C: Expr
    domain: Domain

    def __post_init__(self):
        for name in ("A", "B", "C"):
            extra = free_vars(getattr(self, name)) - {"x", "t"}
            if extra:
                raise ValueError(
                    f"coefficient {name} has free variables {sorted(extra)}; "
                    "only x and t are allowed (substitute params first)")

    def residual(self, u: Expr) -> Expr:
        """u_t - A u_2x - B u_x - C u: zero exactly when u solves the PDE."""
        u_x = diff(u, "x")
        return simplify(diff(u, "t") - self.A * diff(u_x, "x") - self.B * u_x
                        - self.C * u)

    def rhs_jet(self) -> Expr:
        """A*u_2x + B*u_x + C*u, the elimination target for u_t."""
        return simplify(self.A * U_2X + self.B * U_X + self.C * U)

    def to_dict(self):
        return {"A": to_text(self.A), "B": to_text(self.B), "C": to_text(self.C),
                "domain": {"x": list(self.domain.x), "t": list(self.domain.t)}}


def load_pde(source) -> PdeSpec:
    """Build a PdeSpec from a dict or a JSON file path.

    Schema: {"A": "...", "B": "...", "C": "...",
             "domain": {"x": [x0,x1], "t": [t0,t1]}, "params": {...}}
    params are substituted into A, B, C at load time.
    """
    d = _load_json(source)
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {type(params).__name__}")
    params = {k: num(v, f"params.{k}") for k, v in params.items()}
    coeffs = {}
    for name in ("A", "B", "C"):
        coeffs[name] = simplify(substitute(_as_expr(d[name]), params))
    return PdeSpec(coeffs["A"], coeffs["B"], coeffs["C"],
                   Domain.from_dict(d["domain"]))


def _load_json(source):
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"{source}: expected a JSON object, "
                         f"got {type(d).__name__}")
    return d


@dataclass(frozen=True)
class Generator:
    """Infinitesimals (phi(t), xi(x,t), M(x,t)); eta = M*u."""

    phi: Expr
    xi: Expr
    M: Expr

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_expr(self.phi))
        object.__setattr__(self, "xi", _as_expr(self.xi))
        object.__setattr__(self, "M", _as_expr(self.M))
        bad = free_vars(self.phi) - {"t"}
        if bad:
            raise ValueError(f"phi must depend on t only, found {sorted(bad)}")
        for name in ("xi", "M"):
            bad = free_vars(getattr(self, name)) - {"x", "t"}
            if bad:
                raise ValueError(
                    f"{name} must depend on x and t only, found {sorted(bad)}")

    def to_dict(self):
        return {"phi": to_text(self.phi), "xi": to_text(self.xi),
                "M": to_text(self.M)}


def load_generator(source) -> Generator:
    """Schema: {"phi": "<expr in t>", "xi": "<expr in x,t>", "M": "<expr in x,t>"}."""
    d = _load_json(source)
    return Generator(d["phi"], d["xi"], d["M"])


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
    res = substitute(res, {"u_t": p.rhs_jet()})
    return expand(res)


def determining_residuals(p: PdeSpec, g: Generator):
    """The three determining expressions in (x, t); all vanish iff g is a
    symmetry of p.  Note r2 and r3 carry the conventional opposite sign of
    the direct jet-monomial coefficients: the residual identity is
    invariance_residual == r1*u_2x - r2*u_x - r3*u.

    Each is simplified, not expanded, so it stays a sum of the equation's
    named terms (phi*A_t, xi*A_x, A*phi_t, -2*A*xi_x, ...) with like terms
    merged.  The sampled zero test scales by the largest of those terms at
    each point, not by the largest monomial.
    """
    At, Ax = diff(p.A, "t"), diff(p.A, "x")
    Bt, Bx = diff(p.B, "t"), diff(p.B, "x")
    Ct, Cx = diff(p.C, "t"), diff(p.C, "x")
    Mx = diff(g.M, "x")
    M2x = diff(Mx, "x")
    Mt = diff(g.M, "t")
    xi_x = diff(g.xi, "x")
    xi_t = diff(g.xi, "t")
    xi_2x = diff(xi_x, "x")
    phi_t = diff(g.phi, "t")
    r1 = simplify(g.phi * At + g.xi * Ax + p.A * phi_t - 2 * p.A * xi_x)
    r2 = simplify(-g.phi * Bt - g.xi * Bx + p.B * xi_x - xi_t - p.B * phi_t
                  - 2 * p.A * Mx + p.A * xi_2x)
    r3 = simplify(-g.phi * Ct - g.xi * Cx - p.B * Mx + Mt - phi_t * p.C
                  - p.A * M2x)
    return r1, r2, r3


def symmetry_check(p: PdeSpec, g: Generator, *, n: int = 100,
                   tol: float = 1e-9, seed: int = 0):
    """Sampled zero test of all three determining residuals on p's domain."""
    box = p.domain.box()
    return tuple(is_zero_sampled(r, box, n=n, tol=tol, seed=seed)
                 for r in determining_residuals(p, g))


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
    cols = sample_box(domain.jet_box(u_range), n, seed)
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
