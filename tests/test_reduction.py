import random

import pytest

from liewave.expr import (
    Cos, Exp, Sin, Var, ZERO, diff, is_zero_sampled, num, parse, simplify,
)
from liewave.reduction import (
    IDENTITY, OSCILLATOR, OTHER, WAVE, Classification, ReductionResult,
    SeparableAnsatz, check_z_closure, classify_target,
    generator_annihilation_check, invariants, load_ansatz, similarity_reduce,
)
from liewave.symmetry import Domain, PdeSpec, load_pde
from liewave.synth import OscFamilyInput, WaveFamilyInput

from test_acceptance import SEED as ACCEPTANCE_SEED
from test_acceptance import _wave_draws as acceptance_wave_draws


def pde(a, b, c, dom):
    return PdeSpec(parse(a), parse(b), parse(c), dom)


def sampled_equal(e1, e2, box, tol=1e-9):
    return is_zero_sampled(simplify(e1 - e2), box, tol=tol).passed


# -------------------------------------------------------------- the type

def test_ansatz_rejects_zero_q():
    with pytest.raises(ValueError, match="q"):
        SeparableAnsatz("1", "x", "0", 0.0, 1.0)


def test_ansatz_rejects_wrong_variables():
    with pytest.raises(ValueError):
        SeparableAnsatz("x", "x", "0", 1.0, 0.0)
    with pytest.raises(ValueError):
        SeparableAnsatz("1", "t", "0", 1.0, 0.0)


def test_ansatz_validate_on_rejects_critical_point(unit_domain):
    # P = x^2 has P' = 0 at x = 0
    a = SeparableAnsatz("1", "x^2", "0", 1.0, 0.0)
    with pytest.raises(ValueError, match="dP/dx"):
        a.validate_on(Domain((-1.0, 1.0), (0.0, 1.0)))


def test_ansatz_generator_factors(unit_domain):
    a = SeparableAnsatz("1", "x", "x", 2.0, 3.0)
    g = a.generator()
    assert g.xi == parse("2")
    assert g.M == parse("6")


def test_load_ansatz_schema():
    a = load_ansatz({"phi": "1", "P": "x", "R": "0", "q": 1.0, "v": 0.0})
    assert a.q == 1.0 and a.P == Var("x")


# ------------------------------------------------------------- invariants

def test_invariants_plain():
    i1, i2 = invariants(SeparableAnsatz("1", "x", "0", 1.0, 0.0))
    assert i1 == simplify(Exp(parse("x - t")))
    assert i2 == Var("u")


def test_invariants_with_gauge():
    i1, i2 = invariants(SeparableAnsatz("1", "x", "x", 1.0, 1.0))
    assert i1 == simplify(Exp(parse("x - t")))
    assert i2 == simplify(parse("u*exp(-x)"))


def test_invariants_log_profile_collapses():
    i1, _ = invariants(SeparableAnsatz("1", "log(x)", "0", 2.0, 0.0))
    assert i1 == simplify(parse("x*exp(-(2*t))"))


# -------------------------------------------------------- annihilation

def test_annihilation_plain(unit_domain):
    assert generator_annihilation_check(
        SeparableAnsatz("1", "x", "0", 1.0, 0.0), unit_domain)


def test_annihilation_with_gauge(unit_domain):
    assert generator_annihilation_check(
        SeparableAnsatz("1", "x", "x", 1.0, 1.0), unit_domain)


def test_annihilation_rejects_corrupted_invariant(unit_domain):
    # exp(P - 2qt) is not a first integral: U applied to it leaves q*I1
    a = SeparableAnsatz("1", "x", "0", 1.0, 0.0)
    bad = simplify(Exp(a.P - num(2.0) * Var("t")))
    applied = simplify(a.phi * diff(bad, "t") + a.xi() * diff(bad, "x"))
    assert not is_zero_sampled(applied, unit_domain.box()).passed


def test_annihilation_nonconstant_phi(unit_domain):
    assert generator_annihilation_check(
        SeparableAnsatz("exp(t)", "x + 0.1*x^2", "x", 1.3, -0.7, ), unit_domain)


# ------------------------------------------------------------- reduction

def test_reduce_drift_family_gives_plain_wave(unit_domain):
    p = load_pde({"A": "1", "B": "-(1 + q)", "C": "0",
                  "domain": {"x": [0, 1], "t": [0, 1]}, "params": {"q": 1.0}})
    a = SeparableAnsatz("1", "x", "0", 1.0, 0.0)
    r = similarity_reduce(p, a)
    box = unit_domain.box()
    assert sampled_equal(r.c2, r.z_expr**2, box)
    assert r.c1 == parse("0")
    assert r.c0 == parse("0")
    assert classify_target(r, unit_domain).kind == WAVE


def test_reduce_advection_family_is_identity(unit_domain):
    p = pde("0", "-1", "1", unit_domain)
    a = SeparableAnsatz("1", "x", "x", 1.0, 1.0)
    r = similarity_reduce(p, a)
    assert (r.c2, r.c1, r.c0) == (parse("0"), parse("0"), parse("0"))
    assert classify_target(r, unit_domain).kind == IDENTITY


def test_reduce_heat_keeps_first_order_term(unit_domain):
    p = pde("1", "0", "0", unit_domain)
    a = SeparableAnsatz("1", "x", "0", 1.0, 0.0)
    r = similarity_reduce(p, a)
    box = unit_domain.box()
    assert sampled_equal(r.c2, r.z_expr**2, box)
    assert sampled_equal(r.c1, 2 * r.z_expr, box)
    assert r.c0 == parse("0")
    assert classify_target(r, unit_domain).kind == OTHER


def _wave_draws():
    # the ten draws of acceptance criterion 2
    for P, R, q, v, F in acceptance_wave_draws(10):
        inp = WaveFamilyInput(P, R, q, v, F, 1.0, 1.0,
                              Domain((0.0, 1.0), (0.0, 1.0)))
        yield inp.synth(), inp.ansatz()


def _oscillator_draws():
    # the ten draws of acceptance criterion 3, which draws them inline
    rng = random.Random(ACCEPTANCE_SEED + 1)
    for _ in range(10):
        inp = OscFamilyInput(rng.choice(["x", "2*x", "x + 0.1*x^2"]),
                             rng.choice(["0", "x"]),
                             rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                             1.0, 1.0, rng.choice([1.0, 2.0]),
                             Domain((0.0, 1.0), (0.0, 1.0)))
        yield inp.synth(), inp.ansatz()


def _reduction_cases():
    unit = Domain((0.0, 1.0), (0.0, 1.0))
    plain = SeparableAnsatz("1", "x", "0", 1.0, 0.0)
    cases = [
        pytest.param(pde("1", "0", "0", unit), plain, id="heat"),
        pytest.param(pde("1", "-2", "0", unit), plain, id="drift"),
        pytest.param(pde("0", "-1", "1", unit),
                     SeparableAnsatz("1", "x", "x", 1.0, 1.0), id="advection"),
        # quadratic R with v != 0 (E_2x != 0) on a PDE with no symmetry
        pytest.param(pde("1 + x^2/4", "x*t", "sin(x)", unit),
                     SeparableAnsatz("1", "x + 0.1*x^2", "x^2", 1.3, -0.7),
                     id="quadratic-R"),
    ]
    cases += [pytest.param(p, a, id=f"criterion-2-{i}")
              for i, (p, a) in enumerate(_wave_draws())]
    cases += [pytest.param(p, a, id=f"criterion-3-{i}")
              for i, (p, a) in enumerate(_oscillator_draws())]
    return cases


@pytest.mark.parametrize("p, a", _reduction_cases())
def test_chain_rule_coefficients_match_direct_substitution(p, a):
    # independent of the chain rule: substitute u = E Phi(z) for two concrete
    # Phi into the PDE residual u_t - A u_2x - B u_x - C u, which must equal
    # -(c2 Phi'' + c1 Phi' + c0 Phi)
    r = similarity_reduce(p, a)
    z = r.z_expr
    E = Exp(num(a.v) * a.R)
    for phi, d1, d2 in ((Sin(z), Cos(z), -Sin(z)),
                        (z**3, 3 * z**2, 6 * z)):
        total = p.residual(E * phi) + r.c2 * d2 + r.c1 * d1 + r.c0 * phi
        assert is_zero_sampled(total, p.domain.box(), n=30).passed


@pytest.mark.parametrize("p, a", _reduction_cases())
def test_relations_are_the_normalized_reduction(p, a):
    # r1 = c1/(E z) and r2 = c0/E on wave and oscillator members and on
    # equations outside both families (heat, drift, quadratic R)
    r = similarity_reduce(p, a)
    E = Exp(num(a.v) * a.R)
    r1, r2 = a.relations(p)
    box = p.domain.box()
    assert is_zero_sampled(r1 * E * r.z_expr - r.c1, box, n=30).passed
    assert is_zero_sampled(r2 * E - r.c0, box, n=30).passed


@pytest.mark.parametrize("P, R, q, v, F", [
    ("1/2*x + 3/16*x^2", "-3/4*x", 1.25, 0.5, "3/4 + 5/4*s^2"),
    ("3/2*x + 1/8*x^2", "1/2*x", 0.75, -0.75, "1/2 + 3/2*s^2"),
])
def test_wave_member_coefficients_cancel_exactly(unit_domain, P, R, q, v, F):
    # quadratic P, linear R, F = f0 + f2 s^2: the Phi' and Phi coefficients
    # cancel symbolically, not only to sampling accuracy
    inp = WaveFamilyInput(P, R, q, v, F, 1.0, 1.0, unit_domain)
    r = similarity_reduce(inp.synth(), inp.ansatz())
    assert (r.c1, r.c0) == (ZERO, ZERO)
    assert classify_target(r, unit_domain).kind == WAVE


def test_reduce_rejects_degenerate_profile():
    p = pde("1", "0", "0", Domain((-1.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        similarity_reduce(p, SeparableAnsatz("1", "x^2", "0", 1.0, 0.0))


# ---------------------------------------------------------- classification

def test_classify_wave_shape(unit_domain):
    r = ReductionResult(parse("exp(x - t)"),
                        parse("exp(x - t)^2"), parse("0"), parse("0"))
    assert classify_target(r, unit_domain) == Classification(WAVE)


def test_classify_oscillator_with_frequency(unit_domain):
    r = ReductionResult(parse("exp(x - t)"),
                        parse("1"), parse("0"), parse("4"))
    got = classify_target(r, unit_domain)
    assert got.kind == OSCILLATOR
    assert got.k == pytest.approx(2.0, abs=1e-12)


def test_classify_identity(unit_domain):
    r = ReductionResult(parse("exp(x - t)"),
                        parse("0"), parse("0"), parse("0"))
    assert classify_target(r, unit_domain) == Classification(IDENTITY)


def test_classify_other_on_negative_ratio(unit_domain):
    r = ReductionResult(parse("exp(x - t)"),
                        parse("1"), parse("0"), parse("-4"))
    assert classify_target(r, unit_domain).kind == OTHER


def test_classify_other_on_varying_ratio(unit_domain):
    r = ReductionResult(parse("exp(x - t)"),
                        parse("1"), parse("0"), parse("x + 1"))
    assert classify_target(r, unit_domain).kind == OTHER


# --------------------------------------------------------------- closure

def test_z_closure_heat(unit_domain):
    p = pde("1", "0", "0", unit_domain)
    r = similarity_reduce(p, SeparableAnsatz("1", "x", "0", 1.0, 0.0))
    assert check_z_closure(r, unit_domain, n=20)


def test_z_closure_flags_non_invariant_coefficients(unit_domain):
    # c1/c2 depends on x alone, not on z: closure must fail
    r = ReductionResult(parse("exp(x - t)"),
                        parse("1"), parse("x"), parse("0"))
    assert not check_z_closure(r, unit_domain, n=20)


def test_z_closure_on_synthesized_wave_family(unit_domain):
    inp = WaveFamilyInput("x + 0.1*x^2", "x", 1.4, -0.6, "s", 1, 1,
                          unit_domain)
    p = inp.synth()
    r = similarity_reduce(p, inp.ansatz())
    assert classify_target(r, unit_domain).kind == WAVE
    assert check_z_closure(r, unit_domain, n=20)
