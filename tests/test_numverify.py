import importlib
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from liewave.expr import (
    Expr, eval_checked, eval_numeric, free_vars, memo_scope, parse, simplify,
    substitute,
)
from liewave.expr.calculus import _shared
from liewave.numverify import (
    BLOCK, NSTEPS, BlowupError, Grid1D, ModeProblem, ModeSearchError,
    StabilityError, _Shooter, _weights, auto_nt, convergence_order,
    eval_on_grid, fd_solve, load_profile, mode_solve, stable_dt,
)
from liewave.symmetry import Domain, PdeSpec
from liewave.synth import OscFamilyInput, WaveFamilyInput

from oracles import (
    euler_incremental, interior_zeros, mode_shape, residual_on_grid,
)

simplify_module = importlib.import_module("liewave.expr.simplify")

DOM = Domain((0.0, 1.0), (0.0, 0.1))
WAVE_PDE = WaveFamilyInput("x", "0", 1, 0, "1", 1, 0, DOM).synth()
ADV_PDE = OscFamilyInput("x", "0", 1, 0, 1, 0, 1, DOM).synth()


def stable_grid(nx, diffusive=True):
    dx = 1.0 / (nx - 1)
    if diffusive:
        nt = int(math.ceil(0.1 / (dx * dx / 2.0)))
    else:
        nt = int(math.ceil(0.1 / (0.5 * dx)))
    return Grid1D(0.0, 1.0, nx, 0.0, 0.1, nt)


# ------------------------------------------------------------------ grid

def test_grid_spacing():
    g = Grid1D(0, 1, 41, 0, 0.1, 100)
    assert g.dx == pytest.approx(0.025)
    assert g.dt == pytest.approx(0.001)
    assert len(g.xs()) == 41 and len(g.ts()) == 101


@pytest.mark.parametrize("kwargs", [
    dict(x0=1, x1=0, nx=11, t0=0, t1=1, nt=10),
    dict(x0=0, x1=1, nx=2, t0=0, t1=1, nt=10),
    dict(x0=0, x1=1, nx=11, t0=0, t1=0, nt=10),
    dict(x0=0, x1=1, nx=11, t0=0, t1=1, nt=0),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        Grid1D(**kwargs)


def test_eval_on_grid_matches_scalar_eval():
    e = parse("exp(x - q*t)*sin(x) + x^2/3")
    xs = np.linspace(0.1, 0.9, 7)
    grid_vals = eval_on_grid(e, {"x": xs, "t": 0.3, "q": 1.2})
    for x, v in zip(xs, grid_vals):
        assert v == eval_numeric(e, {"x": x, "t": 0.3, "q": 1.2})


# -------------------------------------------------------------- residual

def test_residual_exact_wave_solution():
    g = Grid1D(0, 1, 41, 0, 0.1, 50)
    r = residual_on_grid(WAVE_PDE, parse("exp(x - t)"), g)
    assert r.max_abs <= 1e-12


def test_residual_exact_oscillator_solution():
    g = Grid1D(0, 1, 41, 0, 0.1, 50)
    r = residual_on_grid(ADV_PDE, parse("sin(exp(x - t))"), g)
    assert r.max_abs <= 1e-12


def test_residual_detects_wrong_solution():
    heat = PdeSpec(parse("1"), parse("0"), parse("0"), DOM)
    g = Grid1D(0, 1, 41, 0, 0.1, 50)
    r = residual_on_grid(heat, parse("exp(x - t)"), g)
    # u_t - u_2x = -2 exp(x - t); the max sits at the largest interior x, t0
    assert r.max_abs == pytest.approx(2.0 * math.exp(r.x - r.t), rel=1e-12)
    assert r.x == pytest.approx(1.0 - g.dx)
    assert r.t == 0.0


def test_residual_rejects_stray_variables():
    with pytest.raises(ValueError):
        residual_on_grid(WAVE_PDE, parse("exp(x - q*t)"),
                         Grid1D(0, 1, 11, 0, 0.1, 10))


# -------------------------------------------------------------- fd_solve

def test_fd_solve_yields_every_level():
    p = PdeSpec(parse("1 + t*x"), parse("x*cos(t)"), parse("t"), DOM)
    ic, bc = parse("cos(3*x) + x"), parse("exp(-t)*cos(3*x) + x")
    g = Grid1D(0.0, 1.0, 11, 0.0, 0.1, BLOCK + 3)
    us = list(fd_solve(p, ic, bc, g))
    assert len(us) == g.nt + 1
    assert all(u.shape == (g.nx,) for u in us)
    assert np.array_equal(us[0], eval_on_grid(ic, {"x": g.xs()}))
    # the boundary values are bc at each level's time, up to how numpy and
    # the scalar evaluator round exp and cos
    for u, t in zip(us[1:], g.ts()[1:]):
        ends = [eval_numeric(bc, {"x": x, "t": t}) for x in (g.x0, g.x1)]
        np.testing.assert_allclose(u[[0, -1]], ends, rtol=4e-16, atol=0)


def test_fd_solve_wave_accuracy():
    g = stable_grid(41)
    *_, u = fd_solve(WAVE_PDE, parse("exp(x)"), parse("exp(x - t)"), g)
    ref = eval_on_grid(parse("exp(x - t)"), {"x": g.xs(), "t": 0.1})
    assert float(np.max(np.abs(u - ref))) <= 1e-3


def test_fd_solve_upwind_error_decreases():
    errors = []
    for nx in (21, 41, 81):
        g = stable_grid(nx, diffusive=False)
        *_, u = fd_solve(ADV_PDE, parse("sin(exp(x))"),
                         parse("sin(exp(x - t))"), g)
        ref = eval_on_grid(parse("sin(exp(x - t))"), {"x": g.xs(), "t": 0.1})
        errors.append(float(np.max(np.abs(u - ref))))
    assert errors[0] > errors[1] > errors[2]


def test_fd_solve_zero_pde_preserves_initial_data():
    zero = PdeSpec(parse("0"), parse("0"), parse("0"), DOM)
    g = Grid1D(0, 1, 21, 0, 0.1, 40)
    us = list(fd_solve(zero, parse("sin(3*x)"), parse("sin(3*x)"), g))
    assert np.array_equal(us[0], us[-1])


def test_fd_solve_rejects_unstable_step():
    with pytest.raises(StabilityError) as err:
        list(fd_solve(WAVE_PDE, parse("exp(x)"), parse("exp(x - t)"),
                      Grid1D(0, 1, 41, 0, 0.1, 10)))
    assert err.value.dt_required == pytest.approx(0.025**2 / 2.0)


def test_fd_solve_cfl_bound_for_advection():
    # dt > dx / max|B| must be rejected when A == 0
    with pytest.raises(StabilityError):
        list(fd_solve(ADV_PDE, parse("sin(exp(x))"), parse("sin(exp(x - t))"),
                      Grid1D(0, 1, 41, 0, 0.1, 2)))


def test_fd_solve_reports_blowup_step():
    # under u_t = u_2x + 10000 u the field grows about 50-fold a step and
    # leaves the float range, while its boundary values sin(0) and sin(1)
    # stay finite; the step bound holds throughout
    growth = PdeSpec(parse("1"), parse("0"), parse("10000"),
                     Domain((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(BlowupError) as err:
        list(fd_solve(growth, parse("sin(x)"), parse("sin(x)"),
                      Grid1D(0, 1, 11, 0, 1.0, 200)))
    assert err.value.step >= 1
    assert "non-finite" in str(err.value)


def test_fd_solve_rejects_boundary_values_not_finite():
    # u = exp(999 t) sin(x) solves u_t = u_2x + 1000 u and leaves the
    # float range at t = 709/999: the boundary values are input, and the
    # first one that is not finite is named before any level is yielded
    growth = PdeSpec(parse("1"), parse("0"), parse("1000"),
                     Domain((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match=r"^closed form exp\(999\*t\)\*sin"
                       r"\(x\) is not finite at x = 0, t = 0\.715$"):
        next(fd_solve(growth, parse("sin(x)"), parse("exp(999*t)*sin(x)"),
                      Grid1D(0, 1, 11, 0, 1.0, 200)))
    with pytest.raises(ValueError, match=r"^initial condition 1/x is not "
                       r"finite at x = 0, t = 0$"):
        next(fd_solve(growth, parse("1/x"), parse("sin(x)"),
                      Grid1D(0, 1, 11, 0, 1.0, 200)))


def test_fd_solve_rejects_backward_diffusion():
    backward = PdeSpec(parse("x - 1/2"), parse("0"), parse("0"), DOM)
    with pytest.raises(ValueError, match="ill-posed") as err:
        list(fd_solve(backward, parse("sin(3*x)"), parse("0"),
                      Grid1D(0, 1, 11, 0, 0.1, 2000)))
    assert "A = -0.5 < 0 at x = 0," in str(err.value)


def test_stable_dt_names_the_first_coefficient_not_finite():
    # A is finite; B and C are not finite at x = 0: the probe checks A, B
    # and C in that order, so B is named
    p = PdeSpec(parse("1"), parse("1/x"), parse("log(x)"), DOM)
    with pytest.raises(ValueError, match=r"^coefficient 1/x is not finite "
                       r"at x = 0, t = 0$"):
        stable_dt(p, np.linspace(0.0, 1.0, 11), 0.0, 0.1)


def _per_coefficient_bound(p, xs, t0, t1):
    """stable_dt's diffusive bound with A, B and C each evaluated in a
    call of its own."""
    dx = (xs[-1] - xs[0]) / (len(xs) - 1)
    ts = np.linspace(t0, t1, 64)
    a, b, c = (np.broadcast_to(eval_on_grid(e, {"x": xs, "t": ts[:, None]}),
                               (64, len(xs))) for e in (p.A, p.B, p.C))
    max_a = float(np.max(np.abs(a)))
    decay = max(-float(np.min(c)), 0.0)
    return False, 2.0 * dx * dx / (4.0 * max_a + decay * dx * dx)


def test_stable_dt_one_pass_is_the_per_coefficient_bound():
    # B and C of the wave-type member hold A's tree, which the one pass
    # evaluates once for all three
    p = _blocked_case(WAVE_TYPE, False)[0]
    xs = np.linspace(0.0, 1.0, 41)
    expected = _per_coefficient_bound(p, xs, 0.0, 0.1)
    assert stable_dt(p, xs, 0.0, 0.1) == expected
    with memo_scope():
        for _ in range(2):
            assert stable_dt(p, xs, 0.0, 0.1) == expected


def test_stable_dt_is_one_rule_for_both_schemes():
    xs = np.linspace(0.0, 1.0, 41)
    assert stable_dt(WAVE_PDE, xs, 0.0, 0.1) == (False, 0.025**2 / 2.0)
    assert stable_dt(ADV_PDE, xs, 0.0, 0.1) == (True, 0.025)
    zero = PdeSpec(parse("0"), parse("0"), parse("0"), DOM)
    assert stable_dt(zero, xs, 0.0, 0.1) == (True, math.inf)


DX = 0.025  # the spacing of 41 nodes on [0, 1]


@pytest.mark.parametrize("coeffs, expected", [
    # c = max(-C, 0) in the von Neumann bounds of both schemes
    (("1", "0", "-100000"), (False, 2 * DX * DX / (4 + 100000 * DX * DX))),
    (("2", "1", "x - 1/2"), (False, 2 * DX * DX / (8 + 0.5 * DX * DX))),
    (("0", "2", "-50"), (True, 2 / (2 * 2 / DX + 50))),
    (("0", "0", "-8"), (True, 2 / 8)),
    # C = -1000 t is most negative at the last probe, t = 0.1
    (("1", "0", "-1000*t"), (False, 2 * DX * DX / (4 + 100 * DX * DX))),
    # C >= 0 keeps the bounds without C, as the same floats
    (("2", "0", "5"), (False, DX * DX / (2 * 2))),
    (("0", "3", "x"), (True, DX / 3)),
    (("0", "0", "1"), (True, math.inf)),
])
def test_stable_dt_sees_decay_rate(coeffs, expected):
    p = PdeSpec(*(parse(c) for c in coeffs), DOM)
    assert stable_dt(p, np.linspace(0.0, 1.0, 41), 0.0, 0.1) == expected


def test_auto_nt_takes_the_bound_halved_for_upwind():
    g = Grid1D(0.0, 1.0, 41, 0.0, 0.1, 1)
    assert auto_nt(WAVE_PDE, g) == math.ceil(0.1 / (0.025**2 / 2.0))
    assert auto_nt(ADV_PDE, g) == math.ceil(0.1 / (0.5 * 0.025))
    zero = PdeSpec(parse("0"), parse("0"), parse("0"), DOM)
    assert auto_nt(zero, g) == 16  # no bound: a sixteenth of the span
    # A = B = 0 and C = -100: dt <= 2 / 100, halved
    decay = PdeSpec(parse("0"), parse("0"), parse("-100"), DOM)
    assert auto_nt(decay, g) == math.ceil(0.1 / (0.5 * 2 / 100))


def _per_step_reference(p, ic, bc, g):
    """fd_solve as it was written before blocks: every coefficient that
    depends on t evaluated at every step, levels written into one array.
    The update is fd_solve's three-weight form, so the two agree bit for
    bit; `oracles.euler_incremental` keeps the textbook increment."""
    xs, ts = g.xs(), g.ts()
    dx, dt = g.dx, g.dt
    advective, _ = stable_dt(p, xs, g.t0, g.t1)
    xi = xs[1:-1]
    coeffs = [c if "t" in free_vars(c) else eval_on_grid(c, {"x": xi})
              for c in (p.A, p.B, p.C)]
    values = np.empty((g.nx, g.nt + 1))
    values[[0, -1], :] = eval_on_grid(bc, {"x": xs[[0, -1], None], "t": ts})
    values[:, 0] = eval_on_grid(ic, {"x": xs})
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(g.nt):
            u = values[:, n]
            A, B, C = (eval_on_grid(c, {"x": xi, "t": ts[n]})
                       if isinstance(c, Expr) else c for c in coeffs)
            d = dt * A / (dx * dx)
            mid = 1.0 + dt * C - 2.0 * d
            if advective:
                b_plus = dt * np.maximum(B, 0.0) / dx
                b_minus = dt * np.minimum(B, 0.0) / dx
                lo, hi = d - b_minus, d + b_plus
                mid = mid - b_plus + b_minus
            else:
                w = dt * B / (2.0 * dx)
                lo, hi = d - w, d + w
            values[1:-1, n + 1] = mid * u[1:-1] + lo * u[:-2] + hi * u[2:]
            if not np.isfinite(values[:, n + 1]).all():
                raise BlowupError(n + 1, float(ts[n + 1]))
    return values


# a wave-type member: B and C are built from A, as the imposed ODE builds
# them, so inside one job's memo scope both hold A's object
WAVE_TYPE = ("1 + (t - x)^2/2", "-1 - 1.5*(1 + (t - x)^2/2)",
             "-(0.5*(0.5*(-1 - 1.5*(1 + (t - x)^2/2)) + 0.125*(1 + (t - x)^2/2)))")

BLOCKED_CASES = pytest.mark.parametrize("coeffs, advective", [
    # C depends on t alone, B on both, A on both
    (("1 + t*x", "x*cos(t)", "t"), False),
    # A = 0 upwinds u_x by the sign of B, which changes sign at x = 1/2
    (("0", "(x - 1/2)*(1 + t)", "-t*x"), True),
    # constant heat: every weight is one number for the whole run
    (("1", "0", "0"), False),
    # A and B steady, C depends on t
    (("1 - x/2", "x", "t*cos(x)"), False),
    (WAVE_TYPE, False),
    # each coefficient depends on t alone: every weight row is one number
    # per step, broadcast along x
    (("1 + t", "t", "-t"), False),
])


def _blocked_case(coeffs, advective, nx=21):
    with memo_scope():
        A, B, C = (simplify(parse(c)) for c in coeffs)
    # two full blocks and a short last one, over a span that keeps
    # dt near 1/1280, inside every case's stability bound at nx = 21
    t1 = BLOCK / 640
    p = PdeSpec(A, B, C, Domain((0.0, 1.0), (0.0, t1)))
    g = Grid1D(0.0, 1.0, nx, 0.0, t1, 2 * BLOCK + 3)
    assert stable_dt(p, g.xs(), g.t0, g.t1)[0] is advective
    return p, parse("cos(3*x) + x"), parse("exp(-t)*cos(3*x) + x"), g


def test_wave_type_case_shares_a_subtree():
    # B and C hold A's tree; a copy of A built apart shares its slot
    p = _blocked_case(WAVE_TYPE, False)[0]
    assert p.A in _shared((p.A, p.B, p.C))
    apart = pickle.loads(pickle.dumps(p.A))
    assert apart is not p.A and list(_shared((p.A, apart))) == [p.A]


def _grid_bytes(values):
    """The shape, dtype and bytes of each array in values."""
    values = values if isinstance(values, tuple) else (values,)
    return [(v.shape, v.dtype, v.tobytes()) for v in map(np.asarray, values)]


@BLOCKED_CASES
def test_grid_evaluation_is_the_same_bytes_inside_a_scope(coeffs, advective):
    # a job's sharing plan serves each later call of a root tuple, here on
    # two blocks of times: the values, and eval_checked's failure masks,
    # are those of a walk made per call, on the first call and the next
    p, ic, bc, g = _blocked_case(coeffs, advective)
    repeated = parse("exp(-t)*sin(x) + sin(x)^2/(1 + exp(-t))")
    failing = parse("sqrt(x - 0.5) + x*sqrt(x - 0.5)^2")
    roots = [(p.A, p.B, p.C), p.B, ic, (bc, repeated), repeated, failing]
    grids = [{"x": g.xs()[1:-1], "t": g.ts()[n0:n0 + BLOCK, None]}
             for n0 in (0, BLOCK)]

    def evaluations():
        out = []
        for e in roots:
            for grid in grids:
                values, failed = eval_checked(e, grid)
                out += [_grid_bytes(eval_on_grid(e, grid)),
                        _grid_bytes(values), _grid_bytes(failed)]
        return out

    outside = evaluations()
    with memo_scope():
        assert evaluations() == outside
        assert simplify_module._planned
        assert evaluations() == outside  # from the plans
    (_, _, failed), = outside[-1]
    assert np.frombuffer(failed, bool).any()  # the failing root fails


@BLOCKED_CASES
def test_fd_solve_matches_per_step_reference(coeffs, advective):
    # at nx = 3 and 4 the shifted weight rows overlap most: one and two
    # interior nodes
    for nx in (21, 3, 4):
        p, ic, bc, g = _blocked_case(coeffs, advective, nx)
        values = np.column_stack(list(fd_solve(p, ic, bc, g)))
        assert values.tobytes() == \
            _per_step_reference(p, ic, bc, g).tobytes(), f"nx = {nx}"


@pytest.mark.parametrize("advective", [False, True])
@pytest.mark.parametrize("shape", [(), (5,), (4, 5), (4, 1)])
def test_weights_rows_are_shifted_and_zero_padded(advective, shape):
    # row k of the weights holds its m weights in columns k to k + m - 1,
    # and zeros elsewhere, so it lines up with u_{i-1+k} of a level
    m, dt, dx = 5, 0.01, 0.25
    rng = np.random.default_rng(7)
    A = 0.0 if advective else rng.uniform(0.5, 2.0, shape)
    B = rng.uniform(-1.0, 1.0, shape)
    C = rng.uniform(-1.0, 1.0, shape)
    lead = np.broadcast_shapes(np.shape(B), (m,))[:-1]
    scratch, w = np.empty((3,) + lead + (m,)), np.zeros(lead + (3, m + 2))
    _weights(A, B, C, dt, dx, advective, scratch, w)
    # the per-step reference's weights, out of place
    d = dt * A / (dx * dx)
    mid = 1.0 + dt * C - 2.0 * d
    if advective:
        b_plus = dt * np.maximum(B, 0.0) / dx
        b_minus = dt * np.minimum(B, 0.0) / dx
        rows = d - b_minus, mid - b_plus + b_minus, d + b_plus
    else:
        rows = d - dt * B / (2.0 * dx), mid, d + dt * B / (2.0 * dx)
    for k, row in enumerate(rows):
        expected = np.zeros(lead + (m + 2,))
        expected[..., k:k + m] = row
        assert w[..., k, :].tobytes() == expected.tobytes()


@BLOCKED_CASES
def test_fd_solve_matches_incremental_euler(coeffs, advective):
    # the weights regroup u + dt (A u_2x + B u_x + C u); each step may move
    # u by a few roundings of max|u|, and nt steps add up at most that
    p, ic, bc, g = _blocked_case(coeffs, advective)
    values = np.column_stack(list(fd_solve(p, ic, bc, g)))
    ref = euler_incremental(p, ic, bc, g)
    bound = g.nt * 8 * np.finfo(float).eps * float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(values - ref))) <= bound


def test_fd_solve_blowup_matches_per_step_reference():
    # the field grows about 40-fold a step under finite boundary values,
    # so on 2 BLOCK steps over [0, 1] (stable at nx = 6 for BLOCK >= 25)
    # the first non-finite level lies in the second block of steps
    growth = PdeSpec(parse("1"), parse("0"), parse("10000"),
                     Domain((0.0, 1.0), (0.0, 1.0)))
    ic, bc = parse("sin(x)"), parse("sin(x)")
    g = Grid1D(0, 1, 6, 0, 1.0, 2 * BLOCK)
    with pytest.raises(BlowupError) as ref:
        _per_step_reference(growth, ic, bc, g)
    assert BLOCK < ref.value.step <= 2 * BLOCK
    with pytest.raises(BlowupError) as err:
        list(fd_solve(growth, ic, bc, g))
    assert (err.value.step, err.value.time) == (ref.value.step, ref.value.time)


# ----------------------------------------------------------- convergence

def test_convergence_requires_three_levels():
    with pytest.raises(ValueError):
        convergence_order(WAVE_PDE, parse("exp(x - t)"), stable_grid(11), 2)


def test_convergence_diffusive_second_order():
    levels = convergence_order(WAVE_PDE, parse("exp(x - t)"), stable_grid(21), 3)
    assert levels[0].order is None
    for lv in levels[1:]:
        assert 1.7 <= lv.order <= 2.3


def test_convergence_upwind_first_order():
    g0 = Grid1D(0, 1, 41, 0, 0.1, 8)
    levels = convergence_order(ADV_PDE, parse("sin(exp(x - t))"), g0, 4)
    for lv in levels[1:]:
        assert 0.7 <= lv.order <= 1.3


def test_convergence_constant_solution_reports_undefined_order():
    zero = PdeSpec(parse("0"), parse("0"), parse("0"), DOM)
    g0 = Grid1D(0, 1, 11, 0, 0.1, 16)
    levels = convergence_order(zero, parse("2"), g0, 3)
    assert all(lv.error <= 1e-13 for lv in levels)
    assert all(lv.order is None for lv in levels)


def test_convergence_rejects_a_closed_form_not_finite_on_a_level():
    # x = 0.55 is a node of the second level only, where u is 1/0 at t1
    exact = parse("exp(x - t) + 1/((x - 0.55)^2 + (t - 0.1)^2)")
    with pytest.raises(ValueError, match="is not finite at x = 0.55, t = 0.1"):
        convergence_order(WAVE_PDE, exact, stable_grid(11), 3)


def test_convergence_names_the_closed_form_on_a_refined_initial_level():
    # x = 0.55 is a node of the second level only, where u is 1/0 at t0:
    # the initial level names the closed form as it was given, not a copy
    # with t substituted
    exact = parse("exp(x - t) + 1/((x - 0.55)^2 + t^2)")
    with pytest.raises(ValueError) as err:
        convergence_order(WAVE_PDE, exact, stable_grid(11), 3)
    assert str(err.value) == ("initial condition exp(x - t) + 1/((x - 0.55)^2"
                              " + t^2) is not finite at x = 0.55, t = 0")


@pytest.mark.parametrize("p, exact, nx, nt", [
    (WAVE_PDE, "exp(x - t)", 11, 40),
    (ADV_PDE, "sin(exp(x - t))", 21, 8),
])
def test_convergence_errors_match_fd_solve(p, exact, nx, nt):
    exact = parse(exact)
    g0 = Grid1D(0.0, 1.0, nx, 0.0, 0.1, nt)
    advective, _ = stable_dt(p, g0.xs(), g0.t0, g0.t1)
    for lvl, level in enumerate(convergence_order(p, exact, g0, 3)):
        f = 2**lvl
        g = Grid1D(0.0, 1.0, (nx - 1) * f + 1, 0.0, 0.1,
                   nt * (f if advective else f * f))
        *_, u = fd_solve(p, substitute(exact, {"t": 0.0}), exact, g)
        ref = eval_on_grid(exact, {"x": g.xs(), "t": g.t1})
        assert level.error == float(np.max(np.abs(u - ref)))


@pytest.mark.parametrize("p, exact, nx, nt", [
    (WAVE_PDE, "exp(x - t)", 11, 40),
    (ADV_PDE, "sin(exp(x - t))", 21, 8),
])
def test_convergence_study_takes_level_0_from_the_base_run(p, exact, nx, nt):
    exact = parse(exact)
    g0 = Grid1D(0.0, 1.0, nx, 0.0, 0.1, nt)
    *_, base = fd_solve(p, substitute(exact, {"t": 0.0}), exact, g0)
    levels = convergence_order(p, exact, g0, 3, base)
    assert levels == convergence_order(p, exact, g0, 3)
    # level 0 is `base` itself, not a second run on g0
    shifted = convergence_order(p, exact, g0, 3, base + 1.0)
    assert shifted[0].error != levels[0].error and shifted[1:] != levels[1:]


# ----------------------------------------------------------------- modes

def test_mode_problem_validation():
    with pytest.raises(ValueError):
        ModeProblem(0.0, ())
    with pytest.raises(ValueError):
        ModeProblem(10.0, ((-5.0, 0.0, "1"),))  # hole below -5
    with pytest.raises(ValueError):
        ModeProblem(10.0, ((-10.0, -6.0, "1"), (-5.0, 0.0, "1")))


def test_mode_solve_checks_n_at_every_point_it_samples():
    # z < 0 on the column: the first mesh point names it
    with pytest.raises(ValueError, match="nonnegative, z is -10 at z = -10"):
        mode_solve(ModeProblem(10.0, ((-10.0, 0.0, "z"),)), 1)
    # N < 0 only within 0.32 of z = -145.4, where no point of a 33-point
    # probe of the column falls
    dip = "0.0002 - 0.0003*exp(-(((z + 145.4)/0.5)^2))"
    with pytest.raises(ValueError, match=r"at z = -145\.\d+$"):
        mode_solve(ModeProblem(300.0, ((-300.0, 0.0, dip),)), 3)
    with pytest.raises(ValueError, match="is nan at z = -10"):
        mode_solve(ModeProblem(10.0, ((-10.0, 0.0, "log(z)"),)), 1)


def test_load_profile_schemas(tmp_path):
    import json
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"H": 300.0, "N": "0.0002"}))
    p = load_profile(str(single))
    assert p.H == 300.0 and len(p.pieces) == 1
    pieces = tmp_path / "pieces.json"
    pieces.write_text(json.dumps(
        {"H": 1000.0, "N": [{"z": [-1000, -300], "expr": "0"},
                            {"z": [-300, 0], "expr": "0.0002"}]}))
    p = load_profile(str(pieces))
    assert len(p.pieces) == 2


def _shape_zeros(problem, m) -> int:
    """The oracle's node count of mode m: the sign changes of its shape,
    sampled in closed form on the halved cells (where `mode_solve` merges
    both meshes alike, they are its cells)."""
    fine = _Shooter(problem, 2, _Shooter(problem).n_max)
    return interior_zeros(mode_shape(fine, m.C / (fine.n_max * problem.H)))


def test_modes_constant_profile_matches_sine_series():
    n_bar, depth = 2e-4, 300.0
    problem = ModeProblem.constant(n_bar, depth)
    found = mode_solve(problem, 5)
    for m in found:
        exact = n_bar * depth / (m.index * math.pi)
        assert abs(m.C - exact) / exact <= 1e-13
        assert m.nodes == _shape_zeros(problem, m) == m.index - 1
    assert found[0].C == pytest.approx(0.06 / math.pi, rel=1e-13)
    assert found[0].k == pytest.approx(math.pi / 300.0, rel=1e-13)


def _layer_oracle(n_bar, layer, below, modes):
    """C_m for N = n_bar on a top layer of thickness `layer` and zero on the
    `below` beneath it: matching a sine above to a linear ramp below gives
    k layer + atan(k below) = m pi, C = n_bar / k (bisection to the last
    representable k)."""
    out = []
    for m in range(1, modes + 1):
        def condition(k):
            return k * layer + math.atan(k * below) - m * math.pi
        lo, hi = 0.0, m * math.pi / layer
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            lo, hi = (mid, hi) if condition(mid) < 0 else (lo, mid)
            mid = 0.5 * (lo + hi)
        out.append(n_bar / mid)
    return out


def test_modes_piecewise_profile_matches_transcendental_oracle():
    n_bar, depth, layer = 2e-4, 1000.0, 300.0
    problem = ModeProblem(depth, ((-depth, -layer, "0"),
                                  (-layer, 0.0, repr(n_bar))))
    found = mode_solve(problem, 3)
    for m, exact in zip(found, _layer_oracle(n_bar, layer, depth - layer, 3)):
        assert abs(m.C - exact) / exact <= 1e-13
        assert m.nodes == _shape_zeros(problem, m) == m.index - 1


def test_modes_off_eigenvalue_keeps_endpoint_nonzero():
    # one exact cell: theta(0; c) = 1/c, so theta = pi at C_1 = N H / pi
    # and phi(0) != 0 off it
    from liewave.numverify import _Shooter
    shooter = _Shooter(ModeProblem.constant(2e-4, 300.0))
    assert shooter.shoot(1.0 / math.pi) == pytest.approx(math.pi, rel=1e-15)
    assert abs(shooter.shoot(1.05 / math.pi) - math.pi) > 0.1


def _numpy_scalar_shot(problem, C):
    """theta(0; C) recomputed on numpy float64 scalars for a profile of
    constant pieces, stratified at the top: phi and phi' are carried
    through each piece in closed form, the zeros of phi inside it are
    counted, and theta(0) is pi times that count plus the angle of
    (k phi(0), phi'(0)) taken in [0, pi)."""
    phi, dphi, zeros = np.float64(0.0), np.float64(1.0), 0
    for z_lo, z_hi, n_expr in problem.pieces:
        k = np.float64(float(eval_numeric(n_expr, {"z": z_lo})) / C)
        w = np.float64(z_hi - z_lo)
        if k > 0:  # phi = R sin(k s + delta) on the piece
            delta = np.arctan2(k * phi, dphi)
            zeros += int(np.floor((k * w + delta) / np.pi)
                         - np.floor(delta / np.pi))
            phi, dphi = (phi * np.cos(k * w) + dphi * np.sin(k * w) / k,
                         dphi * np.cos(k * w) - k * phi * np.sin(k * w))
        else:  # a linear ramp crosses zero at most once
            end = phi + dphi * w
            zeros += int(phi != 0 and np.sign(end) != np.sign(phi))
            phi = end
    return zeros * np.pi + np.arctan2(k * phi, dphi) % np.pi


@pytest.mark.parametrize("problem", [
    ModeProblem.constant(2e-4, 300.0),
    ModeProblem(1000.0, ((-1000.0, -300.0, "0"), (-300.0, 0.0, "0.0002"))),
    ModeProblem(1000.0, ((-1000.0, -900.0, "0.0002"), (-900.0, -100.0, "0"),
                         (-100.0, 0.0, "0.0002"))),
], ids=["constant", "piecewise", "two-well"])
@pytest.mark.parametrize("C", [0.004, 0.0123, 0.06 / math.pi, 0.05, 1.0])
def test_shoot_matches_numpy_scalar_reference(problem, C):
    from liewave.numverify import _Shooter
    shooter = _Shooter(problem)
    theta = shooter.shoot(C / (shooter.n_max * problem.H))
    assert theta == pytest.approx(_numpy_scalar_shot(problem, C), rel=1e-12)


def _two_well_oracle(n_bar, modes):
    """C_m for N = n_bar on [-1000, -900] and [-100, 0], zero between:
    with x = 100 k the shot reaches phi(0) = 0 where
    cos(x) (sin(x) + 4 x cos(x)) = 0, so x is an odd multiple of pi/2 or
    a root of sin(x) + 4 x cos(x) between (j + 1/2) pi and (j + 1) pi."""
    xs = []
    for j in range(modes):
        xs.append((j + 0.5) * math.pi)
        lo, hi = (j + 0.5) * math.pi, (j + 1.0) * math.pi
        sign_lo = math.sin(lo) + 4 * lo * math.cos(lo) > 0
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (math.sin(mid) + 4 * mid * math.cos(mid) > 0) == sign_lo:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        xs.append(mid)
    return [n_bar * 100.0 / x for x in sorted(xs)[:modes]]


def test_modes_two_well_profile_finds_every_mode():
    # two stratified layers 800 m apart: their modes pair up at nearby C,
    # which a sweep on the endpoint sign can step over; theta cannot
    problem = ModeProblem(1000.0, ((-1000.0, -900.0, "0.0002"),
                                   (-900.0, -100.0, "0"),
                                   (-100.0, 0.0, "0.0002")))
    found = mode_solve(problem, 4)
    assert [m.index for m in found] == [1, 2, 3, 4]
    for m, exact in zip(found, _two_well_oracle(2e-4, 4)):
        assert abs(m.C - exact) / exact <= 1e-13
        assert m.nodes == _shape_zeros(problem, m) == m.index - 1


def test_modes_search_error_reports_bounds():
    with pytest.raises(ModeSearchError) as err:
        mode_solve(ModeProblem.constant(0.0, 100.0), 1)
    assert err.value.found == 0
    assert "found 0 of 1" in str(err.value)


def test_modes_thin_surface_layer_matches_transcendental_oracle():
    # N only in a 10 m surface layer: mode m has C ~ 2e-3 / ((m - 1/2) pi),
    # every one of them inside the layer's one exact cell
    problem = ModeProblem(1000.0, ((-1000.0, -10.0, "0"),
                                   (-10.0, 0.0, "0.0002")))
    found = mode_solve(problem, 5)
    for m, exact in zip(found, _layer_oracle(2e-4, 10.0, 990.0, 5)):
        assert abs(m.C - exact) / exact <= 1e-13
        assert m.nodes == _shape_zeros(problem, m) == m.index - 1


def test_modes_exponential_profile_matches_bessel_oracle():
    # N = n_bar exp(z/b): with x = (n_bar b / C) exp(z/b) the shot is a
    # combination of J0(x) and Y0(x), and phi(-H) = phi(0) = 0 gives
    # J0(x_0) Y0(x_H) = J0(x_H) Y0(x_0); N varies in every cell, so C is
    # the Richardson value
    special = pytest.importorskip("scipy.special")
    optimize = pytest.importorskip("scipy.optimize")
    n_bar, b, depth = 2e-4, 100.0, 1000.0

    def condition(C):
        x0 = n_bar * b / C
        xh = x0 * math.exp(-depth / b)
        return (special.j0(x0) * special.y0(xh)
                - special.j0(xh) * special.y0(x0))

    problem = ModeProblem(depth, ((-depth, 0.0, "0.0002*exp(z/100)"),))
    for m in mode_solve(problem, 5):
        exact = optimize.brentq(condition, 0.99 * m.C, 1.01 * m.C, xtol=1e-300,
                                rtol=4 * np.finfo(float).eps)
        assert abs(m.C - exact) <= 1e-9 * exact
        assert m.nodes == _shape_zeros(problem, m) == m.index - 1


def test_modes_unresolved_smooth_layer_is_a_search_error():
    # the same layer under a 1e6 m column: 500 m cells cannot see it, and
    # the midpoint value puts C_1 26 % above its Bessel value 0.0083
    problem = ModeProblem(1e6, ((-1e6, 0.0, "0.0002*exp(z/100)"),))
    with pytest.raises(ModeSearchError, match="C_1 is not resolved"):
        mode_solve(problem, 1)


BENCH_PROFILES = [
    ModeProblem.constant(2e-4, 300.0),
    ModeProblem(1000.0, ((-1000.0, -300.0, "0"), (-300.0, 0.0, "0.0002"))),
]
TWO_WELL = ModeProblem(1000.0, ((-1000.0, -900.0, "0.0002"),
                                (-900.0, -100.0, "0"), (-100.0, 0.0, "0.0002")))


def test_mode_search_shot_budget(monkeypatch):
    # five modes of each benchmark profile; bisection to 1e-12 on the node
    # count alone took 210 + 215 shots
    from liewave.numverify import _Shooter
    shots = []
    shoot = _Shooter.shoot

    def counted(self, c):
        shots.append(c)
        return shoot(self, c)

    monkeypatch.setattr(_Shooter, "shoot", counted)
    for problem in BENCH_PROFILES:
        assert [m.index for m in mode_solve(problem, 5)] == [1, 2, 3, 4, 5]
    assert len(shots) <= 120


def test_traced_fd_modes_pass_shoots_no_converged_eigenvalue_twice(
        tmp_path, monkeypatch):
    # every shot is kept across the modes, so no C is shot twice
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import oracle
    import tracing
    import workloads
    import liewave.cli

    monkeypatch.chdir(tmp_path)
    jobs = workloads.build("fd-modes", 1, Path("in"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            out = Path(f"out-{i}")
            rc = liewave.cli.main(["--out", str(out), "--seed", "1"] + job.argv)
            assert oracle.verify(job, rc, out) == []
    finally:
        tracer.uninstall()
    assert tracer.calls["numverify.mode_solve"] == 2
    assert tracer.calls["numverify.shoot"] <= 70


def test_mode_shape_oracle_is_the_sine_series():
    # the constant profile's shapes are sin(m pi (zeta + 1)) / (m pi)
    problem = BENCH_PROFILES[0]
    shooter = _Shooter(problem)
    zeta = np.linspace(-1.0, 0.0, NSTEPS + 1)
    for m in mode_solve(problem, 5):
        shape = mode_shape(shooter, m.C / (shooter.n_max * problem.H))
        k = m.index * math.pi
        np.testing.assert_allclose(shape, np.sin(k * (zeta + 1)) / k,
                                   rtol=0, atol=1e-13)
        assert interior_zeros(shape) == m.index - 1


@pytest.mark.parametrize("problem", [*BENCH_PROFILES, TWO_WELL],
                         ids=["constant", "piecewise", "two-well"])
def test_modes_agree_with_scipy_brentq(problem):
    # a test-only oracle: scipy is not a runtime dependency
    optimize = pytest.importorskip("scipy.optimize")
    from liewave.numverify import _Shooter
    shooter = _Shooter(problem)
    scale = shooter.n_max * problem.H
    for m in mode_solve(problem, 5):
        target = m.index * math.pi
        lo, hi = m.C / scale * (1 - 1e-3), m.C / scale * (1 + 1e-3)
        # the bracket holds C_m and no other eigenvalue: theta falls as c
        # grows, from below (m + 1) pi to above (m - 1) pi
        assert target < shooter.shoot(lo) < target + math.pi
        assert target - math.pi < shooter.shoot(hi) < target
        root = optimize.brentq(lambda c: shooter.shoot(c) - target, lo, hi,
                               xtol=1e-20, rtol=4 * np.finfo(float).eps)
        assert abs(m.C - root * scale) <= 1e-14 * m.C


def _fd_matrix_eigenvalues(problem, cells, modes):
    """Largest `modes` C of N^2 phi = C^2 (-D2) phi, the second-order
    difference on `cells` equal cells with phi = 0 at both ends; N^2 at a
    node where two pieces meet is the mean of both sides.  With -D2 = L L^T
    and W = diag(N^2), C^2 are the eigenvalues of L^-1 W L^-T, also where
    N vanishes."""
    h = problem.H / cells
    z = -problem.H + h * np.arange(1, cells)
    n2 = np.zeros(cells - 1)
    for z_lo, z_hi, n_expr in problem.pieces:
        weight = np.where(np.isclose(z, z_lo) | np.isclose(z, z_hi), 0.5,
                          (z > z_lo) & (z < z_hi))
        n2 += weight * np.broadcast_to(eval_on_grid(n_expr, {"z": z}),
                                       z.shape) ** 2
    minus_d2 = (2.0 * np.eye(cells - 1) - np.eye(cells - 1, k=1)
                - np.eye(cells - 1, k=-1)) / (h * h)
    l_inv = np.linalg.inv(np.linalg.cholesky(minus_d2))
    c2 = np.linalg.eigvalsh((l_inv * n2) @ l_inv.T)[::-1][:modes]
    return np.sqrt(c2)


def test_modes_agree_with_fd_matrix_at_second_order():
    # the leading error of the difference eigenvalue is (k h)^2 / 24
    n_bar, depth, cells = 2e-4, 300.0, 1000
    found = mode_solve(ModeProblem.constant(n_bar, depth), 5)
    fd = _fd_matrix_eigenvalues(ModeProblem.constant(n_bar, depth), cells, 5)
    for m, c in zip(found, fd):
        kh = n_bar / m.C * depth / cells
        assert abs(c - m.C) / m.C <= kh * kh / 12


@pytest.mark.parametrize("problem", [
    ModeProblem(1000.0, ((-1000.0, 0.0, "0.0002*exp(z/400)"),)),
    BENCH_PROFILES[1],
], ids=["smooth", "piecewise"])
def test_fd_matrix_error_falls_fourfold_per_halving(problem):
    # independent of the shooter: its own error is far below the matrix's
    found = np.array([m.C for m in mode_solve(problem, 5)])
    coarse, fine = (np.abs(_fd_matrix_eigenvalues(problem, cells, 5) - found)
                    for cells in (200, 400))
    assert np.all((3.6 < coarse / fine) & (coarse / fine < 4.4))
