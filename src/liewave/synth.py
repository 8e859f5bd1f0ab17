"""Coefficient families with closed-form solutions, and their residual
exhibits.

Three families are synthesized:
  * wave:        the equation class whose similarity reduction is Phi'' = 0,
                 built with the time part of the generator frozen to 1 so
                 the gauge factor is closed-form (exp G = 1/P'^2);
  * oscillator:  the wave construction at A = 0 (the advection class); its
                 closed form oscillates along exp(P - q t), and its
                 relations hold for any phi(t);
  * rossby:      coefficients invariant under phi = c t + c1,
                 xi = c x + c2, eta = -3 c u.  Two readings are exposed:
                 DERIVED (solved by characteristics; passes the determining
                 system) and AS_PRINTED (kept as a falsification exhibit;
                 fails it for c != 0).

Whether the imposed generator is a symmetry is decided by
`symmetry.symmetry_check` alone, for every family.  The rows `synth`
reports are, for the wave family, solution_residual, solution_system_1/2
(`WaveFamilyInput.rows`) and symmetry_A..C; for the oscillator family,
solution_residual, defining_A..C (`OscFamilyInput.rows`) and
symmetry_A..C; for the rossby family, rossby_<reading>_determining_1..3 for
both readings (`rossby_residual_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from .expr import (
    ONE, ZERO, Canon, Cos, Exp, Expr, Sin, Var, num, substitute,
)
from .reduction import SeparableAnsatz
from .symmetry import (
    Domain, Generator, PdeSpec, _load_json, _read, symmetry_check,
)

X = Var("x")
T = Var("t")

DERIVED = "DERIVED"
AS_PRINTED = "AS_PRINTED"


@dataclass(frozen=True)
class _SeparableFamily:
    """Profiles P(x), R(x) and constants q, v of the separable generator
    with phi frozen to 1; validated by the SeparableAnsatz they make."""

    P: Expr
    R: Expr
    q: float
    v: float

    def _validate(self, exprs, numbers):
        """Read P, R, q, v and the subclass's own fields, then reject the
        ansatz where it is not valid on `self.domain`."""
        _read(self, exprs + (("P", ("x",)), ("R", ("x",))),
              ("q", "v") + numbers)
        self.ansatz().validate_on(self.domain)

    def ansatz(self) -> SeparableAnsatz:
        return SeparableAnsatz(ONE, self.P, self.R, self.q, self.v)

    def generator(self) -> Generator:
        return self.ansatz().generator()

    def synth(self) -> PdeSpec:
        """The family's A, then B from r1 = 0 and C from r2 = 0, the
        ansatz's relations (`SeparableAnsatz.relations`)."""
        q, v = Canon(num(self.q)), Canon(num(self.v))
        Pp, Ppp, Rp, Rpp = map(Canon, self.ansatz().profile_derivatives())
        A = Canon(self._A(Pp))
        B = -(q + A * (Pp**2 + Ppp + 2 * v * Rp * Pp)) / Pp
        C = -(v * (A * (v * Rp**2 + Rpp) + B * Rp))
        return PdeSpec(A.e, B.e, C.e, self.domain)


@dataclass(frozen=True)
class WaveFamilyInput(_SeparableFamily):
    """Data for the Phi''=0 family: profiles P(x), R(x), constants q, v,
    free shape F (expression in the placeholder s), and the solution
    constants a, b."""

    F: Expr
    a: float
    b: float
    domain: Domain

    ROWS = ("solution_system_1", "solution_system_2")

    def __post_init__(self):
        self._validate((("F", ("s",)),), ("a", "b"))

    def _A(self, Pp: Canon) -> Expr:
        """F along the drift coordinate s = t - P/q, times 1/P'^2."""
        s_arg = (Canon(T) - Canon(self.P) / num(self.q)).e
        return (Canon(substitute(self.F, {"s": s_arg})) / Pp**2).e

    def solution(self) -> Expr:
        """u = [a exp(P - q t) + b] exp(v R)."""
        z = Exp((Canon(self.P) - Canon(num(self.q)) * T).e)
        return ((Canon(num(self.a)) * z + num(self.b))
                * Exp((Canon(num(self.v)) * self.R).e)).e

    def rows(self, p: PdeSpec):
        """The two relations the closed form imposes on p: its residual at
        u is minus r1 + r2 times a exp(P - q t + v R), minus r2 times
        b exp(v R)."""
        r1, r2 = self.ansatz().relations(p)
        return (Canon(r1) + r2).e, r2


@dataclass(frozen=True)
class OscFamilyInput(_SeparableFamily):
    """Data for the oscillator family: the advection class (A = 0).

    Its closed form oscillates in k exp(P - q t), but the reduction is not
    Phi'' + k^2 Phi = 0: A = 0 gives c2 = c1 = c0 = 0, so `reduce`
    classifies the family IDENTITY (every Phi solves it)."""

    a: float
    b: float
    k: float
    domain: Domain

    ROWS = ("defining_A", "defining_B", "defining_C")

    def __post_init__(self):
        self._validate((), ("a", "b", "k"))
        if not self.k > 0:
            raise ValueError("k: must be positive")

    def _A(self, Pp: Canon) -> Expr:
        return ZERO

    def solution(self) -> Expr:
        """u = [a sin(k exp(P - q t)) + b cos(k exp(P - q t))] exp(v R); k
        sits inside the trig arguments."""
        a, b, k = (Canon(num(c)) for c in (self.a, self.b, self.k))
        phase = (k * Exp((Canon(self.P) - Canon(num(self.q)) * T).e)).e
        return ((a * Sin(phase) + b * Cos(phase))
                * Exp((Canon(num(self.v)) * self.R).e)).e

    def rows(self, p: PdeSpec):
        """A = 0, and the relations at A = 0: q + B P' = 0, v B R' + C = 0."""
        return (p.A, *self.ansatz().relations(p))


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
        _read(self, (("F", ("w",)), ("G", ("w",)), ("H", ("w",))),
              ("c", "c1", "c2"))
        mode = str(self.mode).upper()
        if mode not in (DERIVED, AS_PRINTED):
            raise ValueError(
                f"mode: must be DERIVED or AS_PRINTED, got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        if self.c == 0.0 and self.c1 == 0.0:
            raise ValueError("(c, c1) must not both vanish")
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
    c, c1, c2 = (Canon(num(k)) for k in (inp.c, inp.c1, inp.c2))
    phi = c * T + c1
    # (A, B, C) = scales * (F, G, H)(w); phi**-k would print differently
    if inp.mode == AS_PRINTED:
        w, scales = Canon(X) * phi - c2 * T, (1 / phi**3, 1 / phi**2, 1 / phi)
    elif inp.c != 0.0:
        w, scales = (c * X + c2) / phi, (phi, ONE, 1 / phi)
    else:
        w, scales = c1 * X - c2 * T, (ONE, ONE, ONE)
    A, B, C = ((Canon(substitute(f, {"w": w.e})) * s).e
               for f, s in zip((inp.F, inp.G, inp.H), scales))
    return PdeSpec(A, B, C, inp.domain)


def rossby_residual_report(inp: RossbyFamilyInput, *, n: int = 100,
                           tol: float = 1e-9, seed: int = 0) -> dict:
    """{reading: (pde, symmetry_check of it against the imposed
    generator)} for DERIVED, then AS_PRINTED; DERIVED is expected to pass."""
    g = inp.generator()
    report = {}
    for mode in (DERIVED, AS_PRINTED):
        pde = synth_rossby(replace(inp, mode=mode))
        report[mode] = (pde, symmetry_check(pde, g, n=n, tol=tol, seed=seed))
    return report


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
