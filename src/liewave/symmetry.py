"""Point-symmetry machinery for linear evolution equations
u_t = A(x,t) u_2x + B(x,t) u_x + C(x,t) u.

Generators carry the reduced dependences phi(t), xi(x,t), eta = M(x,t)*u;
the determining residuals of their second prolongation, with u_t
eliminated through the equation, are computed symbolically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .expr import (
    Canon, Expr, check_vars, diff, is_zero_sampled, num, parse, simplify,
    substitute, to_text,
)


def _as_expr(e: Union[Expr, str, int, float], name: str) -> Expr:
    """An expression from a tree, a text or a number; a malformed value is
    a ValueError prefixed with `name` (the field being read), as in num."""
    if isinstance(e, Expr):
        return e
    if isinstance(e, str):
        try:
            return parse(e)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from err
    return num(e, name)


def _read(obj, exprs, numbers=()):
    """Read a frozen input's fields in place: each (field, variables) pair
    of `exprs` as an expression in those variables, then each field of
    `numbers` as a float.  Every error names its field."""
    for name, allowed in exprs:
        e = _as_expr(getattr(obj, name), name)
        check_vars(e, allowed, name)
        object.__setattr__(obj, name, e)
    for name in numbers:
        object.__setattr__(obj, name, float(num(getattr(obj, name), name).value))


@dataclass(frozen=True)
class Domain:
    """Rectangle [x0,x1] x [t0,t1] on which a problem lives."""

    x: tuple
    t: tuple

    def __post_init__(self):
        for name in ("x", "t"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
                raise ValueError(
                    f"domain.{name}: must be [lo, hi], got {bounds!r}")
            lo, hi = (float(num(b, f"domain.{name}").value) for b in bounds)
            if not hi > lo:
                raise ValueError(f"domain.{name}: degenerate interval "
                                 f"[{bounds[0]}, {bounds[1]}]")
            object.__setattr__(self, name, (lo, hi))

    def box(self, **extra):
        out = {"x": self.x, "t": self.t}
        out.update(extra)
        return out

    @classmethod
    def from_dict(cls, d) -> "Domain":
        if not isinstance(d, dict):
            raise ValueError(
                f"domain: must be an object, got {type(d).__name__}")
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
            check_vars(getattr(self, name), ("x", "t"), name,
                       " after params are substituted")

    def residual(self, u: Expr) -> Expr:
        """u_t - A u_2x - B u_x - C u: zero exactly when u solves the PDE."""
        A, B, C = map(Canon, (self.A, self.B, self.C))
        u_x = diff(u, "x")
        return (Canon(diff(u, "t")) - A * diff(u_x, "x") - B * u_x
                - C * u).e

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
        raise ValueError(
            f"params: must be an object, got {type(params).__name__}")
    params = {k: num(v, f"params.{k}") for k, v in params.items()}
    coeffs = {}
    for name in ("A", "B", "C"):
        coeffs[name] = simplify(substitute(_as_expr(d[name], name), params))
    return PdeSpec(coeffs["A"], coeffs["B"], coeffs["C"],
                   Domain.from_dict(d["domain"]))


def _load_json(source):
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    return d


@dataclass(frozen=True)
class Generator:
    """Infinitesimals (phi(t), xi(x,t), M(x,t)); eta = M*u."""

    phi: Expr
    xi: Expr
    M: Expr

    def __post_init__(self):
        _read(self, (("phi", ("t",)), ("xi", ("x", "t")), ("M", ("x", "t"))))

    def to_dict(self):
        return {"phi": to_text(self.phi), "xi": to_text(self.xi),
                "M": to_text(self.M)}


def load_generator(source) -> Generator:
    """Schema: {"phi": "<expr in t>", "xi": "<expr in x,t>", "M": "<expr in x,t>"}."""
    d = _load_json(source)
    return Generator(d["phi"], d["xi"], d["M"])


def determining_residuals(p: PdeSpec, g: Generator):
    """The three determining expressions in (x, t); all vanish iff g is a
    symmetry of p.  Note r2 and r3 carry the conventional opposite sign of
    the direct jet-monomial coefficients: the on-shell action of the
    prolonged generator on the equation is r1*u_2x - r2*u_x - r3*u.

    Each is simplified, not expanded, so it stays a sum of the equation's
    named terms (phi*A_t, xi*A_x, A*phi_t, -2*A*xi_x, ...) with like terms
    merged.  The sampled zero test scales by the largest of those terms at
    each point, not by the largest monomial.
    """
    phi, xi, A, B = map(Canon, (g.phi, g.xi, p.A, p.B))
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
    r1 = phi * At + xi * Ax + A * phi_t - 2 * A * xi_x
    r2 = (-phi * Bt - xi * Bx + B * xi_x - xi_t - B * phi_t - 2 * A * Mx
          + A * xi_2x)
    r3 = -phi * Ct - xi * Cx - B * Mx + Mt - Canon(phi_t) * p.C - A * M2x
    return r1.e, r2.e, r3.e


def symmetry_check(p: PdeSpec, g: Generator, *, n: int = 100,
                   tol: float = 1e-9, seed: int = 0):
    """Sampled zero test of all three determining residuals on p's domain."""
    box = p.domain.box()
    return tuple(is_zero_sampled(r, box, n=n, tol=tol, seed=seed)
                 for r in determining_residuals(p, g))


