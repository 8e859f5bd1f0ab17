"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line.  Run alone with `pytest -s tests/test_acceptance.py`
to see the lines as they go."""

import json
import math
import random

import numpy as np

from liewave.cli import main as cli_main
from liewave.expr import diff, is_zero_sampled, parse, simplify
from liewave.numverify import (
    Grid1D, ModeProblem, _Shooter, convergence_order, mode_solve,
)
from liewave.reduction import (
    IDENTITY, WAVE, SeparableAnsatz, classify_target,
    generator_annihilation_check, similarity_reduce,
)
from liewave.symmetry import Domain, Generator, PdeSpec, symmetry_check
from liewave.synth import (
    AS_PRINTED, DERIVED, OscFamilyInput, RossbyFamilyInput, WaveFamilyInput,
    rossby_residual_report, synth_rossby,
)

from oracles import (
    interior_zeros, max_abs_sampled, mode_shape, oscillator_determining_forms,
    wave_determining_forms,
)

UNIT = Domain((0.0, 1.0), (0.0, 1.0))
SEED = 42


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _pde_residual(p, u):
    return simplify(diff(u, "t") - p.A * diff(diff(u, "x"), "x")
                    - p.B * diff(u, "x") - p.C * u)


def test_criterion_1_heat_symmetry_oracle():
    heat = PdeSpec(parse("1"), parse("0"), parse("0"), UNIT)
    generators = [
        Generator("1", "0", "0"),
        Generator("0", "1", "0"),
        Generator("0", "0", "1"),
        Generator("0", "2*t", "-x"),
        Generator("2*t", "x", "0"),
        Generator("4*t^2", "4*t*x", "-(x^2 + 2*t)"),
    ]
    worst = 0.0
    for g in generators:
        for zs in symmetry_check(heat, g, n=100, tol=1e-12, seed=SEED):
            worst = max(worst, zs.max_residual)
    wrong = symmetry_check(heat, Generator("t", "0", "0"), n=100, seed=SEED)
    wrong_max = max(z.max_residual for z in wrong)
    ok = worst <= 1e-12 and wrong_max >= 0.9
    _report(1, ok, f"six classical generators max {worst:.2e} (<= 1e-12), "
                   f"wrong generator {wrong_max:.2f} (>= 0.9)")


def _wave_draws(count):
    rng = random.Random(SEED)
    for _ in range(count):
        yield (rng.choice(["x", "2*x", "x + 0.1*x^2"]),
               rng.choice(["0", "x"]),
               rng.uniform(0.5, 2.0),
               rng.uniform(-1.0, 1.0),
               rng.choice(["1", "s", "s^2"]))


def test_criterion_2_wave_family_closure():
    box = UNIT.box()
    worst_sol = worst_sys = 0.0
    all_wave = True
    for P, R, q, v, F in _wave_draws(10):
        inp = WaveFamilyInput(P, R, q, v, F, 1.0, 1.0, UNIT)
        p = inp.synth()
        sol = is_zero_sampled(_pde_residual(p, inp.solution()), box,
                              tol=1e-10, seed=SEED)
        worst_sol = max(worst_sol, sol.max_residual)
        for r in inp.rows(p) + wave_determining_forms(p, inp.ansatz()):
            zs = is_zero_sampled(r, box, tol=1e-9, seed=SEED)
            worst_sys = max(worst_sys, zs.max_residual)
        cls = classify_target(similarity_reduce(p, inp.ansatz()), UNIT,
                              seed=SEED)
        all_wave = all_wave and cls.kind == WAVE
    ok = worst_sol <= 1e-10 and worst_sys <= 1e-9 and all_wave
    _report(2, ok, f"10 draws: solution residual {worst_sol:.2e} (<= 1e-10), "
                   f"system residuals {worst_sys:.2e} (<= 1e-9), "
                   f"all classified WAVE: {all_wave}")


def test_criterion_3_oscillator_family_closure():
    box = UNIT.box()
    rng = random.Random(SEED + 1)
    worst_sol = worst_sys = 0.0
    all_identity = True
    for _ in range(10):
        inp = OscFamilyInput(rng.choice(["x", "2*x", "x + 0.1*x^2"]),
                             rng.choice(["0", "x"]),
                             rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                             1.0, 1.0, rng.choice([1.0, 2.0]), UNIT)
        p = inp.synth()
        sol = is_zero_sampled(_pde_residual(p, inp.solution()), box,
                              tol=1e-10, seed=SEED)
        worst_sol = max(worst_sol, sol.max_residual)
        for phi in ("1", "t + 2", "exp(t)"):
            ansatz = SeparableAnsatz(phi, inp.P, inp.R, inp.q, inp.v)
            for r in oscillator_determining_forms(p, ansatz):
                zs = is_zero_sampled(r, box, tol=1e-9, seed=SEED)
                worst_sys = max(worst_sys, zs.max_residual)
        cls = classify_target(similarity_reduce(p, inp.ansatz()), UNIT,
                              seed=SEED)
        all_identity = all_identity and cls.kind == IDENTITY
    ok = worst_sol <= 1e-10 and worst_sys <= 1e-9 and all_identity
    _report(3, ok, f"10 draws x 3 phi: solution residual {worst_sol:.2e} "
                   f"(<= 1e-10), system residuals {worst_sys:.2e} (<= 1e-9), "
                   f"all classified IDENTITY: {all_identity}")


def test_criterion_4_rossby_equivalence():
    rdom = Domain((1.0, 2.0), (1.0, 2.0))
    rng = random.Random(SEED + 2)
    worst = 0.0
    for _ in range(10):
        while True:
            c = rng.uniform(0.5, 2.0)
            c1 = rng.uniform(-1.0, 1.0)
            c2 = rng.uniform(-1.0, 1.0)
            low = min(abs(c * 1.0 + c1), abs(c * 2.0 + c1))
            if (c + c1) * (2 * c + c1) > 0 and low > 0.2:
                break
        shapes = []
        for _ in range(3):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
            shapes.append(" + ".join(f"({a:.6f})*w^{i}"
                                     for i, a in enumerate(coeffs)))
        inp = RossbyFamilyInput(shapes[0], shapes[1], shapes[2], c, c1, c2,
                                DERIVED, rdom)
        rep = rossby_residual_report(inp, tol=1e-9, seed=SEED)
        worst = max(worst, *(r.max_residual for r in rep[DERIVED][1]))
    printed = synth_rossby(RossbyFamilyInput("w", "w", "w", 1.0, 0.0, 0.0,
                                             AS_PRINTED, rdom))
    from liewave.symmetry import determining_residuals
    gen = Generator("t", "x", "-3")
    r1 = determining_residuals(printed, gen)[0]
    printed_max, _ = max_abs_sampled(r1, rdom.box(), n=100, seed=SEED)
    ok = worst <= 1e-9 and printed_max >= 0.1
    _report(4, ok, f"10 derived draws max residual {worst:.2e} (<= 1e-9); "
                   f"printed family r1 max {printed_max:.2f} (>= 0.1)")


def test_criterion_5_convergence_orders():
    dom = Domain((0.0, 1.0), (0.0, 0.1))
    wave = WaveFamilyInput("x", "0", 1, 0, "1", 1, 0, dom).synth()
    dx0 = 1.0 / 20
    nt0 = int(math.ceil(0.1 / (dx0 * dx0 / 2.0)))
    diffusive = convergence_order(wave, parse("exp(x - t)"),
                                  Grid1D(0, 1, 21, 0, 0.1, nt0), 4)
    d_orders = [lv.order for lv in diffusive[1:]]
    adv = OscFamilyInput("x", "0", 1, 0, 1, 0, 1, dom).synth()
    upwind = convergence_order(adv, parse("sin(exp(x - t))"),
                               Grid1D(0, 1, 41, 0, 0.1, 8), 4)
    u_orders = [lv.order for lv in upwind[1:]]
    ok = (all(1.7 <= o <= 2.3 for o in d_orders)
          and all(0.7 <= o <= 1.3 for o in u_orders))
    _report(5, ok, f"diffusive orders {[round(o, 2) for o in d_orders]} in "
                   f"[1.7, 2.3]; upwind orders {[round(o, 2) for o in u_orders]} "
                   f"in [0.7, 1.3]")


def test_criterion_6_vertical_modes():
    n_bar, depth = 2e-4, 300.0
    problem = ModeProblem.constant(n_bar, depth)
    found = mode_solve(problem, 5)
    shooter = _Shooter(problem)
    worst = 0.0
    zeros_ok = True
    for m in found:
        exact = n_bar * depth / (m.index * math.pi)
        worst = max(worst, abs(m.C - exact) / exact)
        # the winding's count, and the sign changes of the sampled shape
        shape = mode_shape(shooter, m.C / (shooter.n_max * depth))
        zeros_ok = (zeros_ok and m.nodes == m.index - 1
                    and interior_zeros(shape) == m.index - 1)
    ok = worst <= 1e-6 and zeros_ok
    _report(6, ok, f"constant profile m=1..5 worst relative error "
                   f"{worst:.2e} (<= 1e-6), node counts correct: {zeros_ok}")


def test_criterion_7_invariant_annihilation():
    rng = random.Random(SEED + 3)
    all_ok = True
    for _ in range(20):
        a = SeparableAnsatz(rng.choice(["1", "t + 2", "exp(t)"]),
                            rng.choice(["x", "2*x", "x + 0.1*x^2"]),
                            rng.choice(["0", "x", "2*x"]),
                            rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        all_ok = all_ok and generator_annihilation_check(
            a, UNIT, tol=1e-10, seed=SEED)
    _report(7, all_ok, "20 seeded instances: generator annihilates both "
                       "invariants at 1e-10")


def _run_suite(base, out):
    files = {
        "wave.json": {"family": "wave", "P": "x", "R": "x", "q": 1.0,
                      "v": 0.5, "F": "s", "a": 1.0, "b": 1.0,
                      "domain": {"x": [0, 1], "t": [0, 1]}},
        "osc.json": {"family": "oscillator", "P": "x", "R": "x", "q": 1.0,
                     "v": 1.0, "a": 1.0, "b": 0.0, "k": 2.0,
                     "domain": {"x": [0, 1], "t": [0, 1]}},
        "rossby.json": {"family": "rossby", "F": "w", "G": "w", "H": "w",
                        "c": 1.0, "c1": 0.0, "c2": 0.0, "mode": "AS_PRINTED",
                        "domain": {"x": [1, 2], "t": [1, 2]}},
        "heat.json": {"A": "1", "B": "0", "C": "0",
                      "domain": {"x": [0, 1], "t": [0, 1]}},
        "boost.json": {"phi": "0", "xi": "2*t", "M": "-x"},
        "drift.json": {"A": "1", "B": "-2", "C": "0",
                       "domain": {"x": [0, 1], "t": [0, 0.1]}},
        "ansatz.json": {"phi": "1", "P": "x", "R": "0", "q": 1.0, "v": 0.0},
        "profile.json": {"H": 300.0, "N": "0.0002"},
    }
    for name, payload in files.items():
        path = base / name
        if not path.exists():
            path.write_text(json.dumps(payload))
    seed = ["--seed", "42"]
    cli_main(seed + ["--out", str(out / "wave"), "synth", str(base / "wave.json")])
    cli_main(seed + ["--out", str(out / "osc"), "synth", str(base / "osc.json")])
    cli_main(seed + ["--out", str(out / "rossby"), "synth", str(base / "rossby.json")])
    cli_main(seed + ["--out", str(out / "check"), "check", str(base / "heat.json"),
                     "--gen", str(base / "boost.json")])
    cli_main(seed + ["--out", str(out / "reduce"), "reduce",
                     str(base / "drift.json"), str(base / "ansatz.json")])
    cli_main(seed + ["--out", str(out / "solve"), "solve", str(base / "drift.json"),
                     "--ic", "exp(x - t)", "--nx", "21"])
    cli_main(seed + ["--out", str(out / "modes"), "modes",
                     str(base / "profile.json"), "--modes", "3"])
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_criterion_8_determinism(tmp_path, capsys):
    out = tmp_path / "suite"
    first = _run_suite(tmp_path, out)
    second = _run_suite(tmp_path, out)
    capsys.readouterr()  # the CLI chatter is not under test
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    _report(8, same, f"two --seed 42 runs produced byte-identical artifacts "
                     f"({len(first)} files)")
