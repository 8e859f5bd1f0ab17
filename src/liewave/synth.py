"""Coefficient families with closed-form solutions, and their residual
exhibits.

Three families are synthesized:
  * wave:        the equation class whose similarity reduction is Phi'' = 0,
                 built with the time part of the generator frozen to 1 so
                 the gauge factor is closed-form (exp G = 1/P'^2);
  * oscillator:  the advection class (A = 0) whose closed form oscillates
                 along exp(P - q t); its defining relations hold for any
                 phi(t);
  * rossby:      coefficients invariant under phi = c t + c1,
                 xi = c x + c2, eta = -3 c u.  Two readings are exposed:
                 DERIVED (solved by characteristics; passes the determining
                 system) and AS_PRINTED (kept as a falsification exhibit;
                 fails it for c != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from .expr import (
    Cos, Exp, Expr, Sin, Var, check_nonvanishing, diff, free_vars,
    is_zero_sampled, num, parse, simplify, substitute,
)
from .reduction import SeparableAnsatz
from .symmetry import (
    Domain, Generator, PdeSpec, _as_expr, _load_json, determining_residuals,
)

X = Var("x")
T = Var("t")

DERIVED = "DERIVED"
AS_PRINTED = "AS_PRINTED"


def _check_profile_vars(e: Expr, allowed: str, what: str):
    bad = free_vars(e) - {allowed}
    if bad:
        raise ValueError(f"{what} may only use {allowed!r}, found {sorted(bad)}")


@dataclass(frozen=True)
class WaveFamilyInput:
    """Data for the Phi''=0 family: profiles P(x), R(x), constants q, v,
    free shape F (expression in the placeholder s), and the solution
    constants a, b."""

    P: Expr
    R: Expr
    q: float
    v: float
    F: Expr
    a: float
    b: float
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "P", _as_expr(self.P))
        object.__setattr__(self, "R", _as_expr(self.R))
        object.__setattr__(self, "F", _as_expr(self.F))
        for name in ("q", "v", "a", "b"):
            object.__setattr__(self, name,
                               float(num(getattr(self, name), name).value))
        if self.q == 0.0:
            raise ValueError("q must be nonzero")
        _check_profile_vars(self.P, "x", "P")
        _check_profile_vars(self.R, "x", "R")
        _check_profile_vars(self.F, "s", "F")
        check_nonvanishing(diff(self.P, "x"), {"x": self.domain.x}, "dP/dx")

    def ansatz(self) -> SeparableAnsatz:
        return SeparableAnsatz(parse("1"), self.P, self.R, self.q, self.v)

    def generator(self) -> Generator:
        return self.ansatz().generator()


def synth_wave(inp: WaveFamilyInput) -> PdeSpec:
    """Coefficients built so the closed form solves the equation for all
    (a, b) and the separable generator is a symmetry.

    A is F evaluated along the drift coordinate times 1/P'^2; B and then C
    come from solving the two solution-residual equations, which are
    triangular in (B, C).
    """
    q, v = num(inp.q), num(inp.v)
    Pp = diff(inp.P, "x")
    Ppp = diff(Pp, "x")
    Rp = diff(inp.R, "x")
    Rpp = diff(Rp, "x")
    s_arg = simplify(T - inp.P / q)
    A = simplify(substitute(inp.F, {"s": s_arg}) / Pp**2)
    B = simplify(-(q + A * (Pp**2 + Ppp + 2 * v * Rp * Pp)) / Pp)
    C = simplify(-(v * (A * (v * Rp**2 + Rpp) + B * Rp)))
    return PdeSpec(A, B, C, inp.domain)


def wave_solution(inp: WaveFamilyInput) -> Expr:
    """u = [a exp(P - q t) + b] exp(v R)."""
    return simplify((num(inp.a) * Exp(inp.P - num(inp.q) * T) + num(inp.b))
                    * Exp(num(inp.v) * inp.R))


def wave_consistency_residuals(p: PdeSpec, a: SeparableAnsatz):
    """The five residual expressions characterizing membership in the wave
    family with symmetry data `a`: two from the solution-substitution
    system, three from the determining system rewritten through P and R
    (general phi(t) supported here).
    """
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
    sol1 = simplify(q + 2 * v * A * Rp * Pp + v**2 * A * Rp**2 + A * Ppp
                    + A * Pp**2 + v * A * Rpp + B * Pp + v * B * Rp + C)
    sol2 = simplify(v**2 * A * Rp**2 + v * A * Rpp + v * B * Rp + C)
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
    return sol1, sol2, det1, det2, det3


@dataclass(frozen=True)
class OscFamilyInput:
    """Data for the Phi'' + k^2 Phi = 0 family (degenerate reduction)."""

    P: Expr
    R: Expr
    q: float
    v: float
    a: float
    b: float
    k: float
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "P", _as_expr(self.P))
        object.__setattr__(self, "R", _as_expr(self.R))
        for name in ("q", "v", "a", "b", "k"):
            object.__setattr__(self, name,
                               float(num(getattr(self, name), name).value))
        if self.q == 0.0:
            raise ValueError("q must be nonzero")
        if not self.k > 0:
            raise ValueError("k must be positive")
        _check_profile_vars(self.P, "x", "P")
        _check_profile_vars(self.R, "x", "R")
        check_nonvanishing(diff(self.P, "x"), {"x": self.domain.x}, "dP/dx")

    def ansatz(self, phi="1") -> SeparableAnsatz:
        return SeparableAnsatz(_as_expr(phi), self.P, self.R, self.q, self.v)

    def generator(self, phi="1") -> Generator:
        return self.ansatz(phi).generator()


def synth_oscillator(inp: OscFamilyInput) -> PdeSpec:
    """A = 0, B = -q/P', C = v q R'/P'; the symmetry holds for any phi(t)."""
    q, v = num(inp.q), num(inp.v)
    Pp = diff(inp.P, "x")
    Rp = diff(inp.R, "x")
    B = simplify(-(q / Pp))
    C = simplify(v * q * Rp / Pp)
    return PdeSpec(parse("0"), B, C, inp.domain)


def oscillator_solution(inp: OscFamilyInput) -> Expr:
    """u = [a sin(k exp(P - q t)) + b cos(k exp(P - q t))] exp(v R); k sits
    inside the trig arguments."""
    phase = num(inp.k) * Exp(inp.P - num(inp.q) * T)
    return simplify((num(inp.a) * Sin(phase) + num(inp.b) * Cos(phase))
                    * Exp(num(inp.v) * inp.R))


def oscillator_defining_relations(p: PdeSpec, a: SeparableAnsatz):
    """The pointwise relations forced by the solution substitution:
    A = 0, q + B P' = 0, v B R' + C = 0."""
    q, v = num(a.q), num(a.v)
    Pp = diff(a.P, "x")
    Rp = diff(a.R, "x")
    return (p.A,
            simplify(q + p.B * Pp),
            simplify(v * p.B * Rp + p.C))


def oscillator_consistency_residuals(p: PdeSpec, a: SeparableAnsatz):
    """The two determining-system residuals (in P, R form) that remain when
    A = 0; they vanish for every phi(t) in the synthesized family."""
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


@dataclass(frozen=True)
class RossbyFamilyInput:
    """Free shapes F, G, H (expressions in the placeholder w) and the
    symmetry constants (c, c1, c2); mode picks the family reading."""

    F: Expr
    G: Expr
    H: Expr
    c: float
    c1: float
    c2: float
    mode: str
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "F", _as_expr(self.F))
        object.__setattr__(self, "G", _as_expr(self.G))
        object.__setattr__(self, "H", _as_expr(self.H))
        for name in ("c", "c1", "c2"):
            object.__setattr__(self, name,
                               float(num(getattr(self, name), name).value))
        mode = str(self.mode).upper()
        if mode not in (DERIVED, AS_PRINTED):
            raise ValueError(f"mode must be DERIVED or AS_PRINTED, got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        if self.c == 0.0 and self.c1 == 0.0:
            raise ValueError("(c, c1) must not both vanish")
        for e, name in ((self.F, "F"), (self.G, "G"), (self.H, "H")):
            _check_profile_vars(e, "w", name)
        t0, t1 = self.domain.t
        if self.c != 0.0:
            t_zero = -self.c1 / self.c
            if t0 <= t_zero <= t1:
                raise ValueError(
                    f"c*t + c1 vanishes at t = {t_zero:.6g} inside the domain")

    def generator(self) -> Generator:
        return Generator(num(self.c) * T + num(self.c1),
                         num(self.c) * X + num(self.c2),
                         num(-3.0 * self.c))

    def with_mode(self, mode: str) -> "RossbyFamilyInput":
        return RossbyFamilyInput(self.F, self.G, self.H, self.c, self.c1,
                                 self.c2, mode, self.domain)


def synth_rossby(inp: RossbyFamilyInput) -> PdeSpec:
    """Coefficient family with the imposed symmetry.

    DERIVED solves the determining system by characteristics:
    for c != 0, w = (c x + c2)/(c t + c1) and
    (A, B, C) = ((c t + c1) F(w), G(w), H(w)/(c t + c1));
    for c = 0, w = c1 x - c2 t and (A, B, C) = (F(w), G(w), H(w)).
    AS_PRINTED keeps w = x (c t + c1) - c2 t with the powers
    (phi^-3, phi^-2, phi^-1); it fails the determining system for c != 0
    and is retained as a falsification exhibit.
    """
    c, c1, c2 = num(inp.c), num(inp.c1), num(inp.c2)
    phi = simplify(c * T + c1)
    if inp.mode == AS_PRINTED:
        w = simplify(X * phi - c2 * T)
        A = simplify(substitute(inp.F, {"w": w}) / phi**3)
        B = simplify(substitute(inp.G, {"w": w}) / phi**2)
        C = simplify(substitute(inp.H, {"w": w}) / phi)
    elif inp.c != 0.0:
        w = simplify((c * X + c2) / phi)
        A = simplify(phi * substitute(inp.F, {"w": w}))
        B = simplify(substitute(inp.G, {"w": w}))
        C = simplify(substitute(inp.H, {"w": w}) / phi)
    else:
        w = simplify(c1 * X - c2 * T)
        A = simplify(substitute(inp.F, {"w": w}))
        B = simplify(substitute(inp.G, {"w": w}))
        C = simplify(substitute(inp.H, {"w": w}))
    return PdeSpec(A, B, C, inp.domain)


@dataclass(frozen=True)
class RossbyModeReport:
    mode: str
    pde: PdeSpec
    residuals: tuple  # three ZeroSample results, one per determining equation

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.residuals)


@dataclass(frozen=True)
class RossbyReport:
    derived: RossbyModeReport
    as_printed: RossbyModeReport


def rossby_residual_report(inp: RossbyFamilyInput, *, n: int = 100,
                           tol: float = 1e-9, seed: int = 0) -> RossbyReport:
    """Sampled determining residuals of both readings against the imposed
    generator; the DERIVED mode is expected to pass."""
    g = inp.generator()
    reports = {}
    for mode in (DERIVED, AS_PRINTED):
        pde = synth_rossby(inp.with_mode(mode))
        box = pde.domain.box()
        rs = tuple(is_zero_sampled(r, box, n=n, tol=tol, seed=seed)
                   for r in determining_residuals(pde, g))
        reports[mode] = RossbyModeReport(mode, pde, rs)
    return RossbyReport(reports[DERIVED], reports[AS_PRINTED])


def load_family(source):
    """Family JSON -> input dataclass.  Schema (one of):
      {"family": "wave", "P": .., "R": .., "q": .., "v": .., "F": ..,
       "a": .., "b": .., "domain": {...}}
      {"family": "oscillator", "P", "R", "q", "v", "a", "b", "k", "domain"}
      {"family": "rossby", "F", "G", "H", "c", "c1", "c2", "mode", "domain"}
    """
    d = _load_json(source)
    kind = d.get("family")
    dom = Domain.from_dict(d["domain"])
    if kind == "wave":
        return WaveFamilyInput(d["P"], d.get("R", "0"), d["q"], d.get("v", 0.0),
                               d.get("F", "1"), d.get("a", 1.0), d.get("b", 0.0),
                               dom)
    if kind == "oscillator":
        return OscFamilyInput(d["P"], d.get("R", "0"), d["q"], d.get("v", 0.0),
                              d.get("a", 1.0), d.get("b", 0.0), d.get("k", 1.0),
                              dom)
    if kind == "rossby":
        return RossbyFamilyInput(d.get("F", "w"), d.get("G", "w"), d.get("H", "w"),
                                 d["c"], d["c1"], d.get("c2", 0.0),
                                 d.get("mode", DERIVED), dom)
    raise ValueError(f"unknown family {kind!r}")
