"""Seeded inputs and known answers for the benchmark workloads.

Every input is generated here from the workload seed and written as JSON
before the first timed job; the program receives only those files and argv.
Each job carries the answer it must produce, derived from how its input was
constructed (a family member solves its own equation, a classical heat
symmetry is a symmetry, a constant-N mode has C_m = N H / (m pi), ...), never
from bytes written by an earlier version of the program.

Seeds choose numbers, not shapes: every draw of a workload has the same
expression templates and grid sizes, so the work per job is the same from
seed to seed and only the coefficients move.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-sampled", "derive-symbolic", "fd-modes")

UNIT_DOMAIN = {"x": [0, 1], "t": [0, 1]}


@dataclass
class Job:
    """One `liewave.cli.main(argv)` call and the verdict it must give."""

    name: str              # stable label, e.g. "synth-wave-1"
    argv: list             # subcommand and arguments (without --out/--seed)
    exit_code: int         # expected return value of main()
    expect: dict = field(default_factory=dict)  # see oracle.verify


def _r(value) -> str:
    """Exact rational as expression text, e.g. 3/2 -> "(3/2)"."""
    f = Fraction(value)
    if f.denominator == 1:
        return f"({f.numerator})"
    return f"({f.numerator}/{f.denominator})"


def _pick(rng: random.Random, choices):
    return Fraction(rng.choice(choices))


# Coefficient pools.  Dyadic values keep the JSON floats exact, so the
# program's float parameters and the runner's rational text agree.  No pool
# holds 1, and q and P's linear coefficient come from disjoint pools, so no
# draw lets a factor or the ratio P/q collapse to 1: such draws simplify to
# smaller trees and made single jobs up to 30 % cheaper than other seeds.
# (Rossby's c and c1 are drawn from Q and P1 for the same reason.)
POS = ("1/2", "3/4", "5/4", "3/2")
SMALL = ("1/8", "3/16", "1/4")
SIGNED = ("-3/4", "-1/2", "1/2", "3/4")
Q = ("3/4", "5/4")
P1 = ("1/2", "3/2")


@dataclass(frozen=True)
class Poly:
    """c1 x + c2 x^2."""

    c1: Fraction
    c2: Fraction = Fraction(0)

    def text(self) -> str:
        if self.c2 == 0:
            return f"{_r(self.c1)}*x"
        return f"({_r(self.c1)}*x + {_r(self.c2)}*x^2)"

    def d1(self) -> str:
        if self.c2 == 0:
            return _r(self.c1)
        return f"({_r(self.c1)} + {_r(2 * self.c2)}*x)"

    def d2(self) -> str:
        return _r(2 * self.c2)

    def value(self, x: float) -> float:
        return float(self.c1) * x + float(self.c2) * x * x


@dataclass(frozen=True)
class Wave:
    """The Phi''=0 family: u = (a e^{P - q t} + b) e^{v R}; F holds the
    coefficients of the polynomial shape F(s)."""

    P: Poly
    R: Poly
    q: Fraction
    v: Fraction
    F: tuple
    a: Fraction
    b: Fraction

    def family(self) -> dict:
        return {"family": "wave", "P": self.P.text(), "R": self.R.text(),
                "q": float(self.q), "v": float(self.v), "F": _shape(self.F, "s"),
                "a": float(self.a), "b": float(self.b), "domain": UNIT_DOMAIN}

    def pde(self, domain=UNIT_DOMAIN) -> dict:
        # A = F(t - P/q) / P'^2, then B and C from the two solution equations
        q, v = _r(self.q), _r(self.v)
        Pp, Ppp, Rp, Rpp = self.P.d1(), self.P.d2(), self.R.d1(), self.R.d2()
        A = f"({_shape(self.F, f'(t - {self.P.text()}/{q})')})/({Pp})^2"
        B = f"-({q} + ({A})*(({Pp})^2 + {Ppp} + 2*{v}*{Rp}*{Pp}))/({Pp})"
        C = f"-{v}*(({A})*({v}*({Rp})^2 + {Rpp}) + ({B})*{Rp})"
        return {"A": A, "B": B, "C": C, "domain": domain}

    def solution(self, q_shift=Fraction(0)) -> str:
        q = _r(self.q + q_shift)
        return (f"({_r(self.a)}*exp({self.P.text()} - {q}*t) + {_r(self.b)})"
                f"*exp({_r(self.v)}*{self.R.text()})")

    def solution_fn(self):
        a, b, q, v = (float(c) for c in (self.a, self.b, self.q, self.v))
        return lambda x, t: ((a * math.exp(self.P.value(x) - q * t) + b)
                             * math.exp(v * self.R.value(x)))

    def ansatz(self) -> dict:
        return {"phi": "1", "P": self.P.text(), "R": self.R.text(),
                "q": float(self.q), "v": float(self.v)}

    def generator(self) -> dict:
        q, v = _r(self.q), _r(self.v)
        return {"phi": "1", "xi": f"{q}/({self.P.d1()})",
                "M": f"{q}*{v}*{self.R.d1()}/({self.P.d1()})"}


@dataclass(frozen=True)
class Oscillator:
    """The advection family A = 0, B = -q/P', C = v q R'/P' with
    u = (a sin(k e^{P - q t}) + b cos(k e^{P - q t})) e^{v R}."""

    P: Poly
    R: Poly
    q: Fraction
    v: Fraction
    a: Fraction
    b: Fraction
    k: Fraction

    def family(self) -> dict:
        return {"family": "oscillator", "P": self.P.text(), "R": self.R.text(),
                "q": float(self.q), "v": float(self.v), "a": float(self.a),
                "b": float(self.b), "k": float(self.k), "domain": UNIT_DOMAIN}

    def pde(self) -> dict:
        q, v, Pp = _r(self.q), _r(self.v), self.P.d1()
        return {"A": "0", "B": f"-{q}/({Pp})",
                "C": f"{v}*{q}*{self.R.d1()}/({Pp})", "domain": UNIT_DOMAIN}

    def solution(self, q_shift=Fraction(0)) -> str:
        phase = f"{_r(self.k)}*exp({self.P.text()} - {_r(self.q + q_shift)}*t)"
        return (f"({_r(self.a)}*sin({phase}) + {_r(self.b)}*cos({phase}))"
                f"*exp({_r(self.v)}*{self.R.text()})")

    def solution_fn(self):
        a, b, q, v, k = (float(c) for c in
                         (self.a, self.b, self.q, self.v, self.k))

        def u(x, t):
            phase = k * math.exp(self.P.value(x) - q * t)
            return ((a * math.sin(phase) + b * math.cos(phase))
                    * math.exp(v * self.R.value(x)))
        return u

    def ansatz(self) -> dict:
        return {"phi": "1", "P": self.P.text(), "R": self.R.text(),
                "q": float(self.q), "v": float(self.v)}

    def generator(self, phi: str) -> dict:
        # the defining relations hold for any phi(t)
        q, v = _r(self.q), _r(self.v)
        return {"phi": phi, "xi": f"{q}*({phi})/({self.P.d1()})",
                "M": f"{q}*{v}*({phi})*{self.R.d1()}/({self.P.d1()})"}


@dataclass(frozen=True)
class Rossby:
    """Coefficients invariant under phi = c t + c1, xi = c x + c2,
    eta = -3 c u, with cubic shapes F, G, H in w."""

    F: tuple
    G: tuple
    H: tuple
    c: Fraction
    c1: Fraction
    c2: Fraction

    def family(self) -> dict:
        return {"family": "rossby", "F": _shape(self.F, "w"),
                "G": _shape(self.G, "w"), "H": _shape(self.H, "w"),
                "c": float(self.c), "c1": float(self.c1), "c2": float(self.c2),
                "mode": "DERIVED", "domain": UNIT_DOMAIN}

    def pde(self, mode="DERIVED") -> dict:
        c, c1, c2 = _r(self.c), _r(self.c1), _r(self.c2)
        phi = f"({c}*t + {c1})"
        if mode == "DERIVED":
            w = f"(({c}*x + {c2})/{phi})"
            A = f"{phi}*({_shape(self.F, w)})"
            B = _shape(self.G, w)
            C = f"({_shape(self.H, w)})/{phi}"
        else:
            w = f"(x*{phi} - {c2}*t)"
            A = f"({_shape(self.F, w)})/{phi}^3"
            B = f"({_shape(self.G, w)})/{phi}^2"
            C = f"({_shape(self.H, w)})/{phi}"
        return {"A": A, "B": B, "C": C, "domain": UNIT_DOMAIN}

    def generator(self) -> dict:
        c, c1, c2 = _r(self.c), _r(self.c1), _r(self.c2)
        return {"phi": f"{c}*t + {c1}", "xi": f"{c}*x + {c2}",
                "M": _r(-3 * self.c)}


def _shape(coeffs, arg: str) -> str:
    """c0 + c1 arg + c2 arg^2 + c3 arg^3 as text (zero terms dropped)."""
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(_r(c))
        elif power == 1:
            terms.append(f"{_r(c)}*{arg}")
        else:
            terms.append(f"{_r(c)}*{arg}^{power}")
    return " + ".join(terms)


def _wave(rng, *, F_powers) -> Wave:
    """Quadratic P, linear R, F with nonzero coefficients at F_powers."""
    P = Poly(_pick(rng, P1), _pick(rng, SMALL))
    R = Poly(_pick(rng, SIGNED))
    F = [Fraction(0)] * (max(F_powers) + 1)
    for power in F_powers:
        F[power] = _pick(rng, POS)
    return Wave(P, R, _pick(rng, Q), _pick(rng, SIGNED), tuple(F),
                _pick(rng, POS), _pick(rng, SIGNED))


def _oscillator(rng) -> Oscillator:
    """Quadratic P and R."""
    P = Poly(_pick(rng, P1), _pick(rng, SMALL))
    R = Poly(_pick(rng, SIGNED), _pick(rng, SMALL))
    return Oscillator(P, R, _pick(rng, Q), _pick(rng, SIGNED),
                      _pick(rng, POS), _pick(rng, SIGNED), _pick(rng, POS))


def _rossby(rng, *, dense: bool) -> Rossby:
    """Cubic shapes: every power of w when dense, else two powers each."""
    def cubic(powers):
        return tuple(_pick(rng, POS) if p in powers else Fraction(0)
                     for p in range(4))
    if dense:
        F, G, H = (cubic((0, 1, 2, 3)) for _ in range(3))
    else:
        F, G, H = cubic((0, 3)), cubic((1, 3)), cubic((1, 3))
    # c, c1 > 0 keeps c t + c1 away from zero on t in [0, 1]
    return Rossby(F, G, H, _pick(rng, Q), _pick(rng, P1), _pick(rng, SIGNED))


# Heat equation u_t = u_xx and its six classical point symmetries, written
# as (phi(t), xi(x, t), M(x, t)) with eta = M u.  Any nonzero multiple of a
# symmetry is one, so each draw scales them by a seeded factor.
HEAT = {"A": "1", "B": "0", "C": "0", "domain": UNIT_DOMAIN}
HEAT_GENERATORS = (
    ("time", ("1", "0", "0")),
    ("space", ("0", "1", "0")),
    ("amplitude", ("0", "0", "1")),
    ("galilean", ("0", "2*t", "-x")),
    ("scaling", ("2*t", "x", "0")),
    ("projective", ("4*t^2", "4*t*x", "-(x^2 + 2*t)")),
)


def _scaled(lam: Fraction, gen) -> dict:
    return {key: f"{_r(lam)}*({text})"
            for key, text in zip(("phi", "xi", "M"), gen)}


class _Inputs:
    """Writes input files under one directory and names them."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, payload) -> str:
        path = self.root / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return str(path)


def build(workload: str, seed: int, root: Path) -> list:
    """Write the workload's inputs under `root`; return its job list."""
    rng = random.Random(f"{workload}:{seed}")
    files = _Inputs(root)
    if workload == "verify-sampled":
        return _verify_sampled(rng, files)
    if workload == "derive-symbolic":
        return _derive_symbolic(rng, files)
    if workload == "fd-modes":
        return _fd_modes(rng, files)
    raise ValueError(f"unknown workload {workload!r}")


PASS_ALL = {"checks": {"": "PASS"}}


def _synth_job(files, tag, family_json, *, derived_rossby=False) -> Job:
    path = files.write(f"{tag}.json", family_json)
    if derived_rossby:
        return Job(tag, ["synth", path], 1,
                   {"checks": {"rossby_derived_": "PASS",
                               "rossby_as_printed_": "FAIL"}})
    return Job(tag, ["synth", path], 0, PASS_ALL)


def _synth_jobs(files, waves, oscs, rossbys) -> list:
    return ([_synth_job(files, f"synth-wave-{i}", fam.family())
             for i, fam in enumerate(waves, 1)]
            + [_synth_job(files, f"synth-oscillator-{i}", fam.family())
               for i, fam in enumerate(oscs, 1)]
            + [_synth_job(files, f"synth-rossby-{i}", fam.family(),
                          derived_rossby=True)
               for i, fam in enumerate(rossbys, 1)])


def _verify_sampled(rng, files) -> list:
    waves = [_wave(rng, F_powers=(0,)) for _ in range(3)]
    oscs = [_oscillator(rng) for _ in range(3)]
    rossbys = [_rossby(rng, dense=False) for _ in range(2)]
    jobs = _synth_jobs(files, waves, oscs, rossbys)
    heat = files.write("heat.json", HEAT)
    for label, gen in HEAT_GENERATORS:
        path = files.write(f"gen-{label}.json", _scaled(_pick(rng, SIGNED), gen))
        jobs.append(Job(f"check-gen-{label}", ["check", heat, "--gen", path], 0,
                        PASS_ALL))
    # phi = t alone violates the first determining equation A phi_t = 2 A xi_x
    # and no other
    wrong = files.write("gen-wrong.json", _scaled(_pick(rng, POS), ("t", "0", "0")))
    jobs.append(Job("check-gen-wrong", ["check", heat, "--gen", wrong], 1,
                    {"checks": {"determining_A": "FAIL", "determining_B": "PASS",
                                "determining_C": "PASS"}}))
    # the oscillator relations hold for any phi(t)
    osc_pde = files.write("pde-oscillator.json", oscs[0].pde())
    osc_gen = files.write("gen-oscillator.json",
                          oscs[0].generator(f"1 + {_r(_pick(rng, POS))}*t"))
    jobs.append(Job("check-gen-oscillator", ["check", osc_pde, "--gen", osc_gen],
                    0, PASS_ALL))
    wave_pde = files.write("pde-wave.json", waves[0].pde())
    for label, pde, fam in (("wave", wave_pde, waves[0]),
                            ("oscillator", osc_pde, oscs[0])):
        jobs.append(Job(f"check-solution-{label}",
                        ["check", pde, "--solution", fam.solution()], 0,
                        {"checks": {"solution_residual": "PASS"}}))
    # q -> q + 1/4 in the closed form leaves u_t wrong everywhere
    perturbed = waves[0].solution(q_shift=Fraction(1, 4))
    jobs.append(Job("check-solution-wave-perturbed",
                    ["check", wave_pde, "--solution", perturbed], 1,
                    {"checks": {"solution_residual": "FAIL"}}))
    return jobs


def _derive_symbolic(rng, files) -> list:
    waves = [_wave(rng, F_powers=(0, 2)) for _ in range(2)]
    oscs = [_oscillator(rng) for _ in range(2)]
    rossbys = [_rossby(rng, dense=True) for _ in range(2)]
    jobs = []
    for i, fam in enumerate(waves, 1):
        pde = files.write(f"pde-wave-{i}.json", fam.pde())
        ans = files.write(f"ansatz-wave-{i}.json", fam.ansatz())
        gen = files.write(f"gen-wave-{i}.json", fam.generator())
        jobs.append(Job(f"reduce-wave-{i}", ["reduce", pde, ans], 0,
                        {"classification": "WAVE"}))
        jobs.append(Job(f"check-gen-wave-{i}", ["check", pde, "--gen", gen], 0,
                        PASS_ALL))
    for i, fam in enumerate(oscs, 1):
        pde = files.write(f"pde-oscillator-{i}.json", fam.pde())
        ans = files.write(f"ansatz-oscillator-{i}.json", fam.ansatz())
        # with A = 0, u = e^{vR} Phi(z) solves the equation for every Phi:
        # c2, c1 and c0 all vanish
        jobs.append(Job(f"reduce-oscillator-{i}", ["reduce", pde, ans], 0,
                        {"classification": "IDENTITY"}))
    gens = []
    for i, fam in enumerate(rossbys, 1):
        gens.append(files.write(f"gen-rossby-{i}.json", fam.generator()))
        pde = files.write(f"pde-rossby-{i}.json", fam.pde())
        jobs.append(Job(f"check-gen-rossby-{i}", ["check", pde, "--gen", gens[-1]],
                        0, PASS_ALL))
    printed = files.write("pde-rossby-printed.json", rossbys[0].pde("AS_PRINTED"))
    jobs.append(Job("check-gen-rossby-printed", ["check", printed, "--gen", gens[0]],
                    1, {"checks": {"determining_": "FAIL"}}))
    jobs += _synth_jobs(files, waves, oscs, rossbys)
    for job in jobs:
        job.argv = ["--samples", "10"] + job.argv
    return jobs


# Vertical-mode profiles: the constant one has C_m = N H / (m pi); the
# piecewise one (N = 0 below z = -d, N0 above) has k_m = N0 / C_m at the m-th
# positive root of sin(k d) + k L cos(k d) = 0, with L = H - d.
MODES_CONSTANT = {"H": 300, "N": "0.0002"}
MODES_PIECEWISE = {"H": 1000.0, "N": [{"z": [-1000, -300], "expr": "0"},
                                      {"z": [-300, 0], "expr": "0.0002"}]}
MODES = 5


def constant_eigenvalues(n_bar: float, H: float, modes: int) -> list:
    return [n_bar * H / (m * math.pi) for m in range(1, modes + 1)]


def piecewise_eigenvalues(n0: float, d: float, L: float, modes: int) -> list:
    def f(k):
        return math.sin(k * d) + k * L * math.cos(k * d)
    out = []
    for m in range(1, modes + 1):
        # f changes sign between k d = (m - 1/2) pi and k d = m pi
        lo, hi = (m - 0.5) * math.pi / d, m * math.pi / d
        lo_positive = f(lo) > 0
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:          # bisect to the last representable k
            if (f(mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out.append(n0 / mid)
    return out


def _fd_modes(rng, files) -> list:
    jobs = []
    # static diffusive: u_t = u_xx - 2 u_x has u = a e^{k x + (k^2 - 2k) t} + b
    for i in range(2):
        a, b, k = _pick(rng, POS), _pick(rng, SIGNED), _pick(rng, SIGNED)
        pde = files.write(f"pde-drift-{i + 1}.json",
                          {"A": "1", "B": "-2", "C": "0",
                           "domain": {"x": [0, 1], "t": [0, 0.0625]}})
        closed = f"{_r(a)}*exp({_r(k)}*x + {_r(k * k - 2 * k)}*t) + {_r(b)}"
        fa, fb, fk = float(a), float(b), float(k)
        fn = (lambda x, t, fa=fa, fb=fb, fk=fk:
              fa * math.exp(fk * x + (fk * fk - 2 * fk) * t) + fb)
        jobs.append(_solve_job(f"solve-drift-{i + 1}", pde, closed, fn,
                               (1.7, 2.3)))
    # upwind: oscillator member, A = 0; P and q fixed so dt (hence the step
    # count) does not depend on the seed
    for i in range(3):
        fam = Oscillator(Poly(Fraction(1)), Poly(_pick(rng, SIGNED)), Fraction(1),
                         _pick(rng, SIGNED), _pick(rng, POS), _pick(rng, SIGNED),
                         _pick(rng, POS))
        pde = files.write(f"pde-upwind-{i + 1}.json", fam.pde())
        jobs.append(_solve_job(f"solve-upwind-{i + 1}", pde, fam.solution(),
                               fam.solution_fn(), (0.7, 1.3)))
    # time-dependent coefficients: wave member with F = 1 + s^2
    fam = Wave(Poly(Fraction(1)), Poly(_pick(rng, SIGNED)), Fraction(1),
               _pick(rng, SIGNED), (Fraction(1), Fraction(0), Fraction(1)),
               _pick(rng, POS), _pick(rng, SIGNED))
    pde = files.write("pde-timedep.json",
                      fam.pde({"x": [0, 1], "t": [0, 0.1]}))
    jobs.append(_solve_job("solve-timedep", pde, fam.solution(),
                           fam.solution_fn(), (1.7, 2.3)))
    for label, profile, eigenvalues in (
            ("constant", MODES_CONSTANT,
             constant_eigenvalues(0.0002, 300.0, MODES)),
            ("piecewise", MODES_PIECEWISE,
             piecewise_eigenvalues(0.0002, 300.0, 700.0, MODES))):
        path = files.write(f"profile-{label}.json", profile)
        jobs.append(Job(f"modes-{label}", ["modes", path, "--modes", str(MODES)],
                        0, {"eigenvalues": eigenvalues}))
    return jobs


def _solve_job(name, pde, closed, fn, order_range) -> Job:
    return Job(name, ["solve", pde, "--ic", closed, "--levels", "3"], 0,
               {"orders": order_range, "closed_fn": fn})
