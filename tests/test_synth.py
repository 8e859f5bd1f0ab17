import math
from dataclasses import replace

import pytest

from liewave.expr import diff, eval_numeric, is_zero_sampled, parse, simplify
from liewave.reduction import (
    IDENTITY, WAVE, SeparableAnsatz, classify_target, similarity_reduce,
)
from liewave.symmetry import Domain, PdeSpec, determining_residuals, symmetry_check
from liewave.synth import (
    AS_PRINTED, DERIVED, OscFamilyInput, RossbyFamilyInput, WaveFamilyInput,
    load_family, rossby_residual_report, synth_rossby,
)

from oracles import (
    max_abs_sampled, oscillator_determining_forms, probe_gauge_time_dependence,
    wave_determining_forms,
)

DOM = Domain((0.0, 1.0), (0.0, 1.0))
RDOM = Domain((1.0, 2.0), (1.0, 2.0))


def pde_residual(p, u):
    return simplify(diff(u, "t") - p.A * diff(diff(u, "x"), "x")
                    - p.B * diff(u, "x") - p.C * u)


def sampled_equal(e1, e2, box, tol=1e-9):
    return is_zero_sampled(simplify(e1 - e2), box, tol=tol).passed


def passed(report, mode):
    return all(z.passed for z in report[mode][1])


# ------------------------------------------------------------ wave family

def test_wave_plain_drift_coefficients():
    p = WaveFamilyInput("x", "0", 1, 0, "1", 1, 0, DOM).synth()
    assert (p.A, p.B, p.C) == (parse("1"), parse("-2"), parse("0"))


def test_wave_gauge_coefficients_match_closed_forms():
    q, v = 0.7, 0.3
    p = WaveFamilyInput("x", "x", q, v, "1", 1, 1, DOM).synth()
    box = DOM.box()
    assert sampled_equal(p.A, parse("1"), box)
    assert sampled_equal(p.B, parse(f"-({1 + 2 * v + q:.17g})"), box)
    assert sampled_equal(p.C, parse(f"{v * (v + 1 + q):.17g}"), box)


def test_wave_stretched_profile_coefficients():
    p = WaveFamilyInput("2*x", "0", 2, 0, "1", 1, 0, DOM).synth()
    box = DOM.box()
    assert sampled_equal(p.A, parse("0.25"), box)
    assert sampled_equal(p.B, parse("-1.5"), box)
    assert p.C == parse("0")


def test_wave_solution_shapes():
    u = WaveFamilyInput("x", "0", 1, 0, "1", 1, 0, DOM).solution()
    assert u == simplify(parse("exp(x - t)"))
    u = WaveFamilyInput("x", "x", 1, 1, "1", 0, 1, DOM).solution()
    assert u == simplify(parse("exp(x)"))
    u = WaveFamilyInput("x", "x", 1, 1, "1", 1, 1, DOM).solution()
    assert sampled_equal(u, parse("(exp(x - t) + 1)*exp(x)"), DOM.box())


def test_wave_rejects_critical_profile():
    with pytest.raises(ValueError, match="dP/dx"):
        WaveFamilyInput("x^2", "0", 1, 0, "1", 1, 0,
                        Domain((-1.0, 1.0), (0.0, 1.0)))


def test_wave_solution_solves_the_equation():
    inp = WaveFamilyInput("x + 0.1*x^2", "x", 1.3, -0.5, "s^2", 0.8, -0.4, DOM)
    p = inp.synth()
    zs = is_zero_sampled(pde_residual(p, inp.solution()), DOM.box(),
                         tol=1e-10)
    assert zs.passed


def test_wave_generator_is_symmetry():
    inp = WaveFamilyInput("2*x", "x", 0.9, 0.6, "s", 1, 1, DOM)
    p = inp.synth()
    assert all(z.passed for z in symmetry_check(p, inp.generator()))


def test_wave_consistency_residuals_vanish_for_own_family():
    inp = WaveFamilyInput("x + 0.1*x^2", "x", 0.8, 0.5, "s^2", 1, 1, DOM)
    p = inp.synth()
    a = inp.ansatz()
    for r in inp.rows(p) + wave_determining_forms(p, a):
        assert is_zero_sampled(r, DOM.box(), tol=1e-9).passed


def test_wave_consistency_detects_heat_mismatch():
    heat = PdeSpec(parse("1"), parse("0"), parse("0"), DOM)
    residuals = WaveFamilyInput("x", "0", 1.0, 0.0, "1", 1, 0, DOM).rows(heat)
    assert residuals[0] == parse("2")  # q + A*P'^2 = 1 + 1


def test_wave_consistency_detects_corrupted_q():
    p = WaveFamilyInput("x", "0", 1, 0, "1", 1, 0, DOM).synth()
    residuals = WaveFamilyInput("x", "0", 2.0, 0.0, "1", 1, 0, DOM).rows(p)
    assert residuals[0] == parse("1")  # affine in q: off by q_bad - q


def test_wave_reduces_to_wave_target():
    inp = WaveFamilyInput("2*x", "x", 1.5, -0.8, "s", 1, 1, DOM)
    p = inp.synth()
    assert classify_target(similarity_reduce(p, inp.ansatz()), DOM).kind == WAVE


def test_solution_closure_over_random_constants(rng):
    # every synthesized equation is solved by its closed form for any
    # (a, b) (and k for the oscillating family): 10 seeded draws
    for _ in range(10):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        k = rng.choice([1.0, 2.0])
        w = WaveFamilyInput("2*x", "x", 1.2, 0.4, "s", a, b, DOM)
        pw = w.synth()
        assert is_zero_sampled(pde_residual(pw, w.solution()), DOM.box(),
                               tol=1e-10).passed
        o = OscFamilyInput("2*x", "x", 1.2, 0.4, a, b, k, DOM)
        po = o.synth()
        assert is_zero_sampled(pde_residual(po, o.solution()), DOM.box(),
                               tol=1e-10).passed


def test_wave_solution_superposition():
    # residual is linear in u and the solution affine in (a, b): the two
    # basis solutions passing implies every (a, b) passes; spot-check one
    base = dict(P="x", R="x", q=1.1, v=0.4, F="s", domain=DOM)
    p = WaveFamilyInput(base["P"], base["R"], base["q"], base["v"],
                        base["F"], 1, 0, DOM).synth()
    for a, b in ((1, 0), (0, 1), (3.7, -1.2)):
        u = WaveFamilyInput(base["P"], base["R"], base["q"], base["v"],
                            base["F"], a, b, DOM).solution()
        assert is_zero_sampled(pde_residual(p, u), DOM.box(), tol=1e-10).passed


def test_gauge_probe_flags_nonconstant_phi():
    # for phi = 1 the candidate gauge is t-independent (and for exp(t),
    # whose log-derivative is constant); for phi = t + 2 it drifts with t,
    # which is why general-phi synthesis is not offered
    ts = [1.0, 2.0, 3.0]
    flat = probe_gauge_time_dependence(parse("x + 0.1*x^2"), parse("1"), 1.0,
                                       x_ref=0.0, x_probe=1.0, t_values=ts)
    spread = max(flat.values()) - min(flat.values())
    assert spread < 1e-12
    drifting = probe_gauge_time_dependence(parse("x + x^2"), parse("t + 2"),
                                           1.0, x_ref=0.0, x_probe=1.0,
                                           t_values=ts)
    # closed form of the drifting part: -log((2 + t)/t), spread ~ 0.59
    assert max(drifting.values()) - min(drifting.values()) > 0.5


# ------------------------------------------------------ oscillator family

def test_oscillator_drift_plus_growth():
    p = OscFamilyInput("x", "x", 1, 1, 1, 0, 1, DOM).synth()
    assert (p.A, p.B, p.C) == (parse("0"), parse("-1"), parse("1"))


def test_oscillator_pure_advection():
    p = OscFamilyInput("x", "0", 2, 0, 1, 0, 1, DOM).synth()
    assert (p.A, p.B, p.C) == (parse("0"), parse("-2"), parse("0"))


def test_oscillator_stretched():
    p = OscFamilyInput("2*x", "x", 2, 3, 1, 0, 1, DOM).synth()
    assert (p.B, p.C) == (parse("-1"), parse("3"))


def test_oscillator_solution_shapes():
    u = OscFamilyInput("x", "0", 1, 0, 1, 0, 1, DOM).solution()
    assert u == simplify(parse("sin(exp(x - t))"))
    u = OscFamilyInput("x", "x", 1, 1, 1, 1, 2, DOM).solution()
    assert sampled_equal(
        u, parse("(sin(2*exp(x - t)) + cos(2*exp(x - t)))*exp(x)"), DOM.box())


def test_oscillator_solution_limit_is_gauge():
    # as the phase argument tends to 0+, cos dominates: u -> b*exp(vR)
    inp = OscFamilyInput("x", "x", 1, 1, 0, 1, 1, DOM)
    u = inp.solution()
    got = eval_numeric(u, {"x": 0.5, "t": 40.0})
    assert got == pytest.approx(math.exp(0.5), rel=1e-10)


def test_oscillator_solution_solves_the_equation():
    inp = OscFamilyInput("x + 0.1*x^2", "x", 1.3, -0.5, 1.2, 0.7, 2, DOM)
    p = inp.synth()
    zs = is_zero_sampled(pde_residual(p, inp.solution()), DOM.box(),
                         tol=1e-10)
    assert zs.passed


def test_oscillator_requires_positive_k():
    with pytest.raises(ValueError, match="k"):
        OscFamilyInput("x", "0", 1, 0, 1, 0, 0.0, DOM)


def test_oscillator_rejects_critical_profile():
    with pytest.raises(ValueError, match="dP/dx"):
        OscFamilyInput("x^2", "0", 1, 0, 1, 0, 1,
                       Domain((-1.0, 1.0), (0.0, 1.0)))


def test_oscillator_defining_relations_hold():
    inp = OscFamilyInput("2*x", "x", 2, 3, 1, 0, 1, DOM)
    p = inp.synth()
    for r in inp.rows(p):
        assert r == parse("0")


def test_oscillator_symmetry_for_any_phi():
    inp = OscFamilyInput("x + 0.1*x^2", "x", 0.8, -0.6, 1, 1, 1, DOM)
    p = inp.synth()
    for phi in ("1", "t + 2", "exp(t)"):
        a = SeparableAnsatz(phi, inp.P, inp.R, inp.q, inp.v)
        for r in oscillator_determining_forms(p, a):
            assert is_zero_sampled(r, DOM.box(), tol=1e-9).passed
        assert all(z.passed for z in symmetry_check(p, a.generator()))


@pytest.mark.parametrize("phi", ["1", "t + 2", "exp(t)"])
def test_pr_forms_are_scaled_determining_residuals(phi):
    # the P, R forms of the determining system are the general residuals
    # times a power of P' (nonzero on the domain), checked here on
    # equations in neither family; the oscillator forms assume A = 0
    a = SeparableAnsatz(phi, "x + 0.3*x^2", "x^2 - x", 0.8, 0.6)
    g = a.generator()
    Pp = diff(a.P, "x")
    B, C = parse("sin(x) - t"), parse("x^2 + exp(t)")
    wave = PdeSpec(parse("1 + x*t"), B, C, DOM)
    r1, r2, r3 = determining_residuals(wave, g)
    osc = PdeSpec(parse("0"), B, C, DOM)
    _, s2, s3 = determining_residuals(osc, g)
    pairs = (list(zip(wave_determining_forms(wave, a),
                      (Pp**2 * r1, -Pp**4 * r2, -Pp**4 * r3)))
             + list(zip(oscillator_determining_forms(osc, a),
                        (-Pp**4 * s2, -Pp**4 * s3))))
    for form, scaled in pairs:
        assert not is_zero_sampled(form, DOM.box()).passed
        assert sampled_equal(form, scaled, DOM.box())


@pytest.mark.parametrize("P, R, q, v", [
    ("x", "0", 1.0, 0.0), ("x", "x", 1.0, 1.0), ("2*x", "x", 2.0, 3.0),
    ("x + 0.1*x^2", "x", 0.8, -0.6), ("x + 0.1*x^2", "x^2", 1.3, -0.5),
])
def test_oscillator_is_the_wave_construction_at_A_zero(P, R, q, v):
    # F = 0 makes the wave family's A zero, and with it the same B and C;
    # each family names every row it reports
    wave = WaveFamilyInput(P, R, q, v, "0", 1, 0, DOM)
    osc = OscFamilyInput(P, R, q, v, 1, 0, 1, DOM)
    p = osc.synth()
    assert wave.synth() == p
    assert len(osc.rows(p)) == len(osc.ROWS) == 3
    assert len(wave.rows(p)) == len(wave.ROWS) == 2


def test_oscillator_reduces_to_identity():
    inp = OscFamilyInput("x", "x", 1, 1, 1, 0, 2, DOM)
    p = inp.synth()
    got = classify_target(similarity_reduce(p, inp.ansatz()), DOM)
    assert got.kind == IDENTITY


# ---------------------------------------------------------- rossby family

def test_rossby_autonomous_case_agrees_between_modes():
    inp = RossbyFamilyInput("w", "w", "w", 0, 1, 0, DERIVED, RDOM)
    derived = synth_rossby(inp)
    printed = synth_rossby(replace(inp, mode=AS_PRINTED))
    assert (derived.A, derived.B, derived.C) == (
        parse("x"), parse("x"), parse("x"))
    assert (printed.A, printed.B, printed.C) == (
        parse("x"), parse("x"), parse("x"))


def test_rossby_autonomous_case_passes_in_both_modes():
    inp = RossbyFamilyInput("w^2", "w", "w + 1", 0, 1, 0.5, DERIVED, RDOM)
    rep = rossby_residual_report(inp)
    assert passed(rep, DERIVED) and passed(rep, AS_PRINTED)


def test_rossby_derived_linear_shapes():
    inp = RossbyFamilyInput("w", "w", "w", 1, 0, 0, DERIVED, RDOM)
    p = synth_rossby(inp)
    box = RDOM.box()
    assert sampled_equal(p.A, parse("x"), box)
    assert sampled_equal(p.B, parse("x/t"), box)
    assert sampled_equal(p.C, parse("x/t^2"), box)
    assert all(z.passed for z in symmetry_check(p, inp.generator()))


def test_rossby_as_printed_fails_first_equation():
    inp = RossbyFamilyInput("w", "w", "w", 1, 0, 0, AS_PRINTED, RDOM)
    p = synth_rossby(inp)
    r1 = determining_residuals(p, inp.generator())[0]
    box = RDOM.box()
    assert sampled_equal(r1, parse("-(2*x/t^2)"), box)
    worst, _ = max_abs_sampled(r1, box)
    assert worst >= 0.1


def test_rossby_report_splits_modes():
    inp = RossbyFamilyInput("w", "w", "w", 1, 0, 0, DERIVED, RDOM)
    rep = rossby_residual_report(inp)
    assert passed(rep, DERIVED)
    assert not passed(rep, AS_PRINTED)


def test_rossby_printed_coincidence_shapes_pass():
    # F = w^2, G = w, H = 1 happens to satisfy the determining system in the
    # printed reading too (r1 scales like (2n - 4) A for F = w^n)
    inp = RossbyFamilyInput("w^2", "w", "1", 1, 0, 0, AS_PRINTED, RDOM)
    rep = rossby_residual_report(inp)
    assert passed(rep, DERIVED) and passed(rep, AS_PRINTED)


def test_rossby_rejects_singular_domain():
    with pytest.raises(ValueError, match="vanishes"):
        RossbyFamilyInput("w", "w", "w", 1.0, -1.5, 0, DERIVED, RDOM)


def test_rossby_rejects_doubly_zero_constants():
    with pytest.raises(ValueError):
        RossbyFamilyInput("w", "w", "w", 0.0, 0.0, 0, DERIVED, RDOM)


def test_rossby_derived_random_shapes(rng):
    for _ in range(3):
        coeffs = [rng.uniform(-1, 1) for _ in range(4)]
        poly = " + ".join(f"({c:.6f})*w^{i}" for i, c in enumerate(coeffs))
        c = rng.uniform(0.5, 2.0)
        c1 = rng.uniform(0.3, 1.0)
        c2 = rng.uniform(-1.0, 1.0)
        inp = RossbyFamilyInput(poly, "w", "w^3", c, c1, c2, DERIVED, RDOM)
        p = synth_rossby(inp)
        assert all(z.passed for z in symmetry_check(p, inp.generator()))


# ------------------------------------------------------------ family JSON

def test_load_family_wave():
    inp = load_family({"family": "wave", "P": "x", "R": "0", "q": 1.0,
                       "v": 0.0, "F": "1", "a": 1.0, "b": 0.0,
                       "domain": {"x": [0, 1], "t": [0, 1]}})
    assert isinstance(inp, WaveFamilyInput)
    assert inp.synth().B == parse("-2")


def test_load_family_oscillator_defaults():
    inp = load_family({"family": "oscillator", "P": "x", "q": 2.0,
                       "domain": {"x": [0, 1], "t": [0, 1]}})
    assert isinstance(inp, OscFamilyInput)
    assert inp.k == 1.0 and inp.v == 0.0


def test_load_family_rossby():
    inp = load_family({"family": "rossby", "c": 0.0, "c1": 1.0,
                       "domain": {"x": [1, 2], "t": [1, 2]}})
    assert isinstance(inp, RossbyFamilyInput)
    assert inp.mode == DERIVED


def test_load_family_unknown():
    with pytest.raises(ValueError, match="family"):
        load_family({"family": "nope", "domain": {"x": [0, 1], "t": [0, 1]}})
