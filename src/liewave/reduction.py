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

each expanded once.  The target shapes, and whether c1/c2 and c0/c2
depend on z alone, are decided by the sampled zero test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .expr import (
    Exp, Expr, Var, check_nonvanishing, diff, eval_numeric, expand,
    is_zero_sampled, num, simplify, to_text,
)
from .symmetry import Domain, Generator, PdeSpec, _load_json, _read, _zero

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
        return num(self.q) * self.phi / diff(self.P, "x")

    def M(self) -> Expr:
        return (num(self.q) * num(self.v) * self.phi
                * diff(self.R, "x") / diff(self.P, "x"))

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
        q, v = num(self.q), num(self.v)
        Pp, Ppp, Rp, Rpp = self.profile_derivatives()
        A, B = simplify(p.A), simplify(p.B)
        return (q + 2 * v * A * Rp * Pp + A * Ppp + A * Pp**2 + B * Pp,
                v**2 * A * Rp**2 + v * A * Rpp + v * B * Rp + p.C)

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
    i1 = simplify(Exp(a.P - num(a.q) * Var("t")))
    i2 = Var("u") * Exp(-(num(a.v) * a.R))
    return i1, i2


def generator_annihilation_check(a: SeparableAnsatz, domain: Domain, *,
                                 u_range=(0.5, 2.0), n: int = 100,
                                 tol: float = 1e-10, seed: int = 0) -> bool:
    """True iff phi*d_t I + xi*d_x I + M*u*d_u I vanishes (sampled) for
    both invariants; they are first integrals, so this is a theorem."""
    phi, xi, M = simplify(a.phi), a.xi(), a.M()
    box = domain.box(u=u_range)
    for inv in invariants(a):
        applied = (phi * diff(inv, "t") + xi * diff(inv, "x")
                   + M * Var("u") * diff(inv, "u"))
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
    z_x = diff(z, "x")
    E = simplify(Exp(num(a.v) * a.R))
    E_x = diff(E, "x")
    A, B = simplify(p.A), simplify(p.B)
    c2 = expand(A * E * z_x**2)
    c1, c0 = B * E * z_x, B * E_x
    if not _zero(p.A):  # else z_2x and E_2x are not built (see _zero)
        c1 = A * (2 * E_x * z_x + E * diff(z_x, "x")) + c1
        c0 = A * diff(E_x, "x") + c0
    return ReductionResult(z, c2, expand(c1 - E * diff(z, "t")),
                           expand(c0 + p.C * E))


@dataclass(frozen=True)
class Classification:
    kind: str                 # WAVE | OSCILLATOR | IDENTITY | OTHER
    k: Optional[float] = None  # oscillator frequency, when kind == OSCILLATOR

    def __str__(self):
        return f"{self.kind}(k={self.k:.12g})" if self.k is not None else self.kind


def classify_target(r: ReductionResult, domain: Domain, *, n: int = 100,
                    tol: float = 1e-9, seed: int = 0) -> Classification:
    """WAVE if only c2 survives, OSCILLATOR(k) if c1 dies and c0/c2 is a
    positive constant k^2, IDENTITY if everything dies, OTHER else.

    Every decision is a zero test on the same cloud.  c0/c2 is constant
    exactly when its x- and t-derivatives vanish; k^2 is its value at the
    x-derivative test's witness.  A coefficient undefined at a sample point
    is a ValueError; a ratio test that fails by evaluation (c2 vanishing at
    a point) only means the target is not an oscillator.
    """
    box = domain.box()
    opts = dict(n=n, tol=tol, seed=seed)
    shapes = [is_zero_sampled(c, box, **opts) for c in (r.c2, r.c1, r.c0)]
    for name, zs in zip(("c2", "c1", "c0"), shapes):
        if zs.failure:
            where = ", ".join(f"{k} = {v:.6g}" for k, v in zs.witness.items())
            raise ValueError(f"{name} is undefined at {where}: {zs.failure}")
    z2, z1, z0 = (zs.passed for zs in shapes)
    if z2 and z1 and z0:
        return Classification(IDENTITY)
    if not z2 and z1:
        if z0:
            return Classification(WAVE)
        ratio = r.c0 / r.c2
        d_x = is_zero_sampled(diff(ratio, "x"), box, **opts)
        if d_x and is_zero_sampled(diff(ratio, "t"), box, **opts):
            k2 = eval_numeric(ratio, d_x.witness)
            if k2 > 0:
                return Classification(OSCILLATOR, math.sqrt(k2))
    return Classification(OTHER)


def z_closure(r: ReductionResult, domain: Domain, *, n: int = 100,
              tol: float = 1e-9, seed: int = 0):
    """The zero tests of J(c1/c2) and J(c0/c2), J(f) = f_x z_t - f_t z_x:
    f depends on z alone exactly when J(f) vanishes, as z_t = -q z != 0."""
    z_x, z_t = diff(r.z_expr, "x"), diff(r.z_expr, "t")
    box = domain.box()
    tests = []
    for c in (r.c1, r.c0):
        f = c / r.c2
        jac = diff(f, "x") * z_t - diff(f, "t") * z_x
        tests.append(is_zero_sampled(jac, box, n=n, tol=tol, seed=seed))
    return tuple(tests)
