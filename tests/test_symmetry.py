import pytest

from liewave.expr import Const, is_zero_sampled, parse, simplify
from liewave.expr.sampling import _cloud
from liewave.symmetry import (
    Generator, PdeSpec, determining_residuals, load_generator, load_pde,
    symmetry_check,
)

from oracles import (
    JetPoint, invariance_residual, jet_box, monomial_collect_check, prolong2,
    sample_jets,
)

ZERO = parse("0")
ONE = parse("1")


@pytest.fixture
def heat(unit_domain):
    return PdeSpec(ONE, ZERO, ZERO, unit_domain)


# the six classical symmetries of u_t = u_2x
HEAT_GENERATORS = [
    ("time_translation", Generator("1", "0", "0")),
    ("space_translation", Generator("0", "1", "0")),
    ("scaling_in_u", Generator("0", "0", "1")),
    ("galilean_boost", Generator("0", "2*t", "-x")),
    ("dilation", Generator("2*t", "x", "0")),
    ("projective", Generator("4*t^2", "4*t*x", "-(x^2 + 2*t)")),
]


# ----------------------------------------------------------- generators

def test_generator_rejects_phi_with_x():
    with pytest.raises(ValueError, match="phi"):
        Generator("x", "0", "0")


def test_generator_rejects_u_dependence():
    with pytest.raises(ValueError):
        Generator("t", "u", "0")
    with pytest.raises(ValueError):
        Generator("t", "0", "u*x")


def test_pde_spec_rejects_stray_parameters(unit_domain):
    with pytest.raises(ValueError, match="params"):
        PdeSpec(parse("q*x"), ZERO, ZERO, unit_domain)


def test_load_pde_substitutes_params():
    p = load_pde({"A": "1", "B": "-(1 + q)", "C": "0",
                  "domain": {"x": [0, 1], "t": [0, 1]}, "params": {"q": 1.0}})
    assert p.B == parse("-2")


def test_load_generator_schema():
    g = load_generator({"phi": "2*t", "xi": "x", "M": "0"})
    assert g.phi == parse("2*t")


# ---------------------------------------------------------- prolongation

def test_prolong2_identity_scaling():
    assert prolong2(Generator("0", "0", "1")) == (
        parse("u_x"), parse("u_t"), parse("u_2x"))


def test_prolong2_time_translation_vanishes():
    assert prolong2(Generator("1", "0", "0")) == (ZERO, ZERO, ZERO)


def test_prolong2_space_dilation():
    # hand total-derivative computation for xi = x
    eta_x, eta_t, eta_2x = prolong2(Generator("0", "x", "0"))
    assert eta_x == simplify(parse("-u_x"))
    assert eta_t == ZERO
    assert eta_2x == simplify(parse("-(2*u_2x)"))


def test_prolongation_affine_in_jets(heat):
    # eta_x, eta_t affine in (u, u_x, u_t); eta_2x affine in (u, u_x, u_2x)
    from liewave.expr import diff, free_vars
    eta_x, eta_t, eta_2x = prolong2(Generator("t + 1", "x*t", "x^2"))
    for e, jets in ((eta_x, ("u", "u_x", "u_t")),
                    (eta_t, ("u", "u_x", "u_t")),
                    (eta_2x, ("u", "u_x", "u_2x"))):
        for j in jets:
            second = diff(diff(e, j), j)
            assert second == ZERO
        assert not free_vars(e) & {"u_2x" if "u_2x" not in jets else "u_t"}


# ---------------------------------------------------- invariance residual

def test_invariance_residual_time_translation(heat):
    assert invariance_residual(heat, Generator("1", "0", "0")) == ZERO


def test_invariance_residual_galilean(heat, unit_domain):
    res = invariance_residual(heat, Generator("0", "2*t", "-x"))
    assert is_zero_sampled(res, jet_box(unit_domain), n=50).passed


def test_invariance_residual_nonsymmetry(heat, unit_domain):
    res = invariance_residual(heat, Generator("0", "0", "x"))
    zs = is_zero_sampled(res, jet_box(unit_domain), n=50)
    assert not zs.passed
    assert zs.max_residual > 0.1


# --------------------------------------------------- determining residuals

@pytest.mark.parametrize("name,gen", HEAT_GENERATORS)
def test_heat_generators_are_symmetries(heat, name, gen):
    assert determining_residuals(heat, gen) == (ZERO, ZERO, ZERO)


def test_determining_scaling_example(heat):
    # phi = 2t, xi = x: r1 = A*phi_t - 2A*xi_x = 2 - 2
    assert determining_residuals(heat, Generator("2*t", "x", "0")) == (
        ZERO, ZERO, ZERO)


def test_determining_constant_coefficient_translations():
    p = load_pde({"A": "1", "B": "-(1 + q)", "C": "0",
                  "domain": {"x": [0, 1], "t": [0, 1]}, "params": {"q": 1.0}})
    assert determining_residuals(p, Generator("1", "1", "0")) == (
        ZERO, ZERO, ZERO)


def test_determining_wrong_generator(heat):
    r1, r2, r3 = determining_residuals(heat, Generator("t", "0", "0"))
    assert r1 == ONE
    assert (r2, r3) == (ZERO, ZERO)


def test_symmetry_check_wraps_sampling(heat):
    good = symmetry_check(heat, Generator("0", "2*t", "-x"))
    assert all(z.passed for z in good)
    bad = symmetry_check(heat, Generator("t", "0", "0"))
    assert not bad[0].passed
    assert bad[0].max_residual >= 0.9


def test_symmetry_check_samples_one_cloud(heat):
    # the three residuals share one domain, n and seed: one cloud.  phi is
    # exp(2t) - exp(t)^2, zero but not to simplify, so no residual is a
    # constant (the boost's are all 0, decided without a cloud)
    _cloud.cache_clear()
    results = symmetry_check(heat, Generator("0", "2*t", "-x"), n=37, seed=11)
    assert len(results) == 3 and all(results)
    assert _cloud.cache_info().misses == 0
    g = Generator("exp(2*t) - exp(t)^2", "2*t", "(exp(2*t) - exp(t)^2)*x^2 - x")
    assert not any(isinstance(r, Const) for r in determining_residuals(heat, g))
    results = symmetry_check(heat, g, n=37, seed=11)
    assert len(results) == 3 and all(results)
    info = _cloud.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_determining_additive_in_generator(heat, unit_domain, rng):
    # the determining system is linear in (phi, xi, M)
    g1 = Generator("2*t", "x", "x*t")
    g2 = Generator("t^2 - 1", "x^2 + t", "x + 3")
    g12 = Generator("2*t + t^2 - 1", "x + x^2 + t", "x*t + x + 3")
    combined = determining_residuals(heat, g12)
    separate = [simplify(a + b) for a, b in
                zip(determining_residuals(heat, g1),
                    determining_residuals(heat, g2))]
    for got, want in zip(combined, separate):
        diffe = simplify(got - want)
        assert is_zero_sampled(diffe, unit_domain.box(), n=50).passed


# --------------------------------------------------- monomial collection

def test_monomial_collect_galilean(heat, unit_domain):
    jets = sample_jets(unit_domain, 50, seed=3)
    assert monomial_collect_check(heat, Generator("0", "2*t", "-x"), jets)


def test_monomial_collect_nonsymmetry_still_consistent(heat, unit_domain):
    # both sides equal u_2x for phi = t
    jets = sample_jets(unit_domain, 50, seed=3)
    assert monomial_collect_check(heat, Generator("t", "0", "0"), jets)


def test_monomial_collect_zero_generator(heat, unit_domain):
    jets = sample_jets(unit_domain, 25, seed=1)
    assert monomial_collect_check(heat, Generator("0", "0", "0"), jets)


def test_monomial_collect_sign_sensitive_case(heat, unit_domain):
    # r2 = -1 here; the residual equals +u_x, catching sign slips in the
    # collection identity
    jets = sample_jets(unit_domain, 30, seed=9)
    g = Generator("0", "t", "0")
    assert determining_residuals(heat, g)[1] == parse("-1")
    assert invariance_residual(heat, g) == parse("u_x")
    assert monomial_collect_check(heat, g, jets)


def test_monomial_collect_requires_twenty_jets(heat, unit_domain):
    with pytest.raises(ValueError, match="20"):
        monomial_collect_check(heat, Generator("1", "0", "0"),
                               sample_jets(unit_domain, 19))


def test_monomial_collect_random_instances(unit_domain, rng):
    # residual affinity with coefficients (r1, -r2, -r3), random pde and gen
    for _ in range(5):
        p = PdeSpec(parse(rng.choice(["1", "x", "t + 1", "x^2 + 1"])),
                    parse(rng.choice(["0", "-1", "x*t", "2"])),
                    parse(rng.choice(["0", "1", "x + t"])),
                    unit_domain)
        g = Generator(parse(rng.choice(["0", "1", "t", "t^2"])),
                      parse(rng.choice(["0", "x", "2*t", "x*t"])),
                      parse(rng.choice(["0", "1", "-x", "x + t"])))
        jets = sample_jets(unit_domain, 25, seed=rng.randrange(1000))
        assert monomial_collect_check(p, g, jets)


def test_jet_point_bindings(unit_domain):
    jp = JetPoint(0.1, 0.2, 0.3, 0.4, 0.5)
    assert jp.bindings() == {"x": 0.1, "t": 0.2, "u": 0.3, "u_x": 0.4,
                             "u_2x": 0.5}
    jets = sample_jets(unit_domain, 30, seed=5)
    assert len(jets) == 30
    assert all(0 <= j.x <= 1 and 0 <= j.t <= 1 for j in jets)
