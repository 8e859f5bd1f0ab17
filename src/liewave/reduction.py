"""Similarity reduction for separable generators.

With the separable choices collapsed to constants q and v, the group
invariants are z = exp(P(x) - q t) and u * exp(-v R(x)).  Substituting
u = E(x) Phi(z) with E = exp(v R), the chain rule gives (E_t = 0, as R
depends on x only) u_t = E z_t Phi', u_x = E_x Phi + E z_x Phi' and
u_2x = E_2x Phi + (2 E_x z_x + E z_2x) Phi' + E z_x^2 Phi'', so
A u_2x + B u_x + C u - u_t = c2 Phi'' + c1 Phi' + c0 Phi with

    c2 = A E z_x^2
    c1 = A (2 E_x z_x + E z_2x) + B E z_x - E z_t
    c0 = A E_2x + B E_x + C E,

each expanded once.  The target shapes are classified by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    Canon, Exp, Expr, Var, check_nonvanishing, diff, eval_checked,
    eval_numeric, expand, is_zero_sampled, num, sample_box, to_text,
)
from .symmetry import Domain, Generator, PdeSpec, _load_json, _read

WAVE = "WAVE"
OSCILLATOR = "OSCILLATOR"
IDENTITY = "IDENTITY"
OTHER = "OTHER"


@dataclass(frozen=True)
class SeparableAnsatz:
    """Separable symmetry data (phi(t), P(x), R(x), q, v).

    The separable factors are recovered as xi = q*phi/P' and
    M = q*v*phi*R'/P' and are not stored.
    """

    phi: Expr
    P: Expr
    R: Expr
    q: float
    v: float

    def __post_init__(self):
        _read(self, (("phi", ("t",)), ("P", ("x",)), ("R", ("x",))), ("q", "v"))
        if self.q == 0.0:
            raise ValueError("q: must be nonzero")

    def xi(self) -> Expr:
        return (Canon(num(self.q)) * self.phi / diff(self.P, "x")).e

    def M(self) -> Expr:
        return (Canon(num(self.q)) * num(self.v) * self.phi
                * diff(self.R, "x") / diff(self.P, "x")).e

    def generator(self) -> Generator:
        return Generator(self.phi, self.xi(), self.M())

    def profile_derivatives(self):
        """P', P'', R', R''."""
        Pp, Rp = diff(self.P, "x"), diff(self.R, "x")
        return Pp, diff(Pp, "x"), Rp, diff(Rp, "x")

    def relations(self, p: PdeSpec):
        """The normalized relations c1/(E z) and c0/E of `similarity_reduce`
        on p, term by term:
            r1 = q + 2 v A R' P' + A P'' + A P'^2 + B P',
            r2 = v^2 A R'^2 + v A R'' + v B R' + C."""
        q, v = Canon(num(self.q)), Canon(num(self.v))
        Pp, Ppp, Rp, Rpp = map(Canon, self.profile_derivatives())
        A, B = Canon(p.A), Canon(p.B)
        return ((q + 2 * v * A * Rp * Pp + A * Ppp + A * Pp**2 + B * Pp).e,
                (v**2 * A * Rp**2 + v * A * Rpp + v * B * Rp + p.C).e)

    def validate_on(self, domain: Domain):
        """Reject the ansatz if P' vanishes on the x-interval or phi on the
        t-interval (both checked by sampling)."""
        check_nonvanishing(diff(self.P, "x"), {"x": domain.x}, "dP/dx")
        check_nonvanishing(self.phi, {"t": domain.t}, "phi")


def load_ansatz(source) -> SeparableAnsatz:
    """Schema: {"phi": "<expr in t>", "P": "<expr in x>", "R": "<expr in x>",
    "q": num, "v": num}."""
    d = _load_json(source)
    return SeparableAnsatz(d["phi"], d["P"], d["R"], d["q"], d["v"])


def invariants(a: SeparableAnsatz):
    """The two first integrals of the characteristic system:
    I1 = exp(P - q*t), I2 = u * exp(-v*R)."""
    i1 = Canon(Exp((Canon(a.P) - Canon(num(a.q)) * Var("t")).e))
    i2 = Canon(Var("u")) * Exp((-(Canon(num(a.v)) * a.R)).e)
    return i1.e, i2.e


def generator_annihilation_check(a: SeparableAnsatz, domain: Domain, *,
                                 u_range=(0.5, 2.0), n: int = 100,
                                 tol: float = 1e-10, seed: int = 0) -> bool:
    """True iff phi*d_t I + xi*d_x I + M*u*d_u I vanishes (sampled) for
    both invariants; they are first integrals, so this is a theorem."""
    xi = a.xi()
    M = a.M()
    box = domain.box(u=u_range)
    for inv in invariants(a):
        applied = (Canon(a.phi) * diff(inv, "t") + Canon(xi) * diff(inv, "x")
                   + Canon(M) * Var("u") * diff(inv, "u")).e
        if not is_zero_sampled(applied, box, n=n, tol=tol, seed=seed).passed:
            return False
    return True


@dataclass(frozen=True)
class ReductionResult:
    """Raw reduction output: similarity variable and the
    (x,t)-coefficients of Phi'', Phi', Phi in
    A u_2x + B u_x + C u - u_t after the substitution."""

    z_expr: Expr
    c2: Expr
    c1: Expr
    c0: Expr

    def to_dict(self):
        return {"z": to_text(self.z_expr), "c2": to_text(self.c2),
                "c1": to_text(self.c1), "c0": to_text(self.c0)}


def similarity_reduce(p: PdeSpec, a: SeparableAnsatz) -> ReductionResult:
    """Substitute u = exp(v R) Phi(z), z = exp(P - q t) and collect the
    Phi'', Phi', Phi coefficients by the chain rule (module docstring)."""
    a.validate_on(p.domain)
    z, _ = invariants(a)
    z_x = Canon(diff(z, "x"))
    E = Canon(Exp((Canon(num(a.v)) * a.R).e))
    E_x = Canon(diff(E.e, "x"))
    A, B = Canon(p.A), Canon(p.B)
    c2 = expand((A * E * z_x**2).e)
    c1 = expand((A * (2 * E_x * z_x + E * diff(z_x.e, "x")) + B * E * z_x
                 - E * diff(z, "t")).e)
    c0 = expand((A * diff(E_x.e, "x") + B * E_x + Canon(p.C) * E).e)
    return ReductionResult(z, c2, c1, c0)


@dataclass(frozen=True)
class Classification:
    kind: str                 # WAVE | OSCILLATOR | IDENTITY | OTHER
    k: Optional[float] = None  # oscillator frequency, when kind == OSCILLATOR

    def __str__(self):
        return f"{self.kind}(k={self.k:.12g})" if self.k is not None else self.kind


def classify_target(r: ReductionResult, domain: Domain, *, n: int = 100,
                    tol: float = 1e-9, seed: int = 0) -> Classification:
    """WAVE if only c2 survives, OSCILLATOR(k) if c0/c2 is a positive
    constant k^2 and c1 dies, IDENTITY if everything dies, OTHER else."""
    box = domain.box()
    z2 = is_zero_sampled(r.c2, box, n=n, tol=tol, seed=seed).passed
    z1 = is_zero_sampled(r.c1, box, n=n, tol=tol, seed=seed).passed
    z0 = is_zero_sampled(r.c0, box, n=n, tol=tol, seed=seed).passed
    if z2 and z1 and z0:
        return Classification(IDENTITY)
    if not z2 and z1:
        if z0:
            return Classification(WAVE)
        ratio = _constant_ratio(r.c0, r.c2, box, n=n, tol=tol, seed=seed)
        if ratio is not None and ratio > 0:
            return Classification(OSCILLATOR, math.sqrt(ratio))
    return Classification(OTHER)


def _constant_ratio(numer: Expr, denom: Expr, box, *, n: int, tol: float,
                    seed: int):
    """Sampled value of numer/denom if constant over the box, else None;
    points where either is undefined, or denom is near zero, are skipped."""
    cols = sample_box(box, n, seed)
    (num_v, den_v), failed = eval_checked((numer, denom), cols)
    keep = ~failed & (np.abs(den_v) >= 1e-12)
    values = (num_v[keep] / den_v[keep]).tolist()
    if len(values) < max(10, n // 4):
        return None
    lo, hi = min(values), max(values)
    mid = values[len(values) // 2]
    if hi - lo > tol * max(1.0, abs(mid)):
        return None
    return sum(values) / len(values)


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
