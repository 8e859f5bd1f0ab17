"""Work shared within a command gives the bytes of work done per call.

Inside `memo_scope` the zero tests of one command share the node values of
each cloud, and where A is the constant 0 the residuals do not build the
second x-derivatives that only A multiplies.  Each gives exactly what the
plain construction gives: the same ZeroSample, the same trees down to
each constant's type.
"""

import contextlib
import gc
import importlib

import pytest

from liewave.expr import (
    Const, Exp, Pow, Var, diff, expand, is_zero_sampled, memo_scope,
    num, parse, simplify,
)
from liewave.expr.nodes import sort_key
from liewave.reduction import SeparableAnsatz, invariants, similarity_reduce
from liewave.symmetry import (
    Domain, Generator, PdeSpec, determining_residuals, load_pde,
)
from liewave.synth import OscFamilyInput

DOM = Domain((0.0, 1.0), (0.0, 1.0))
BOX = DOM.box()


def _exact(e):
    """A tree down to each constant's type (repr) and its sort key."""
    return repr(e), sort_key(e)


# -------------------------------------- node values shared across zero tests

def _canon(text):
    return simplify(parse(text))


# shared subtrees, and residuals that fail to evaluate: overflow that a
# parent masks (1/inf = 0), log of a negative, 0^-1, an unbound variable
_S = _canon("sin(x*t) + exp(x)")
_OVER = _canon("exp(1000*x)^-1")
_RESIDUALS = [
    _S * Var("t") - Var("x"),
    _S * Var("t") - _S * Var("t"),
    _OVER + Var("t"),                        # overflow, masked: finite root
    _OVER * Var("t") + _S,                   # the same failing node again
    _S + _canon("log(x - 2)"),               # nan everywhere
    Pow(Const(0), Const(-1)) * _S + Var("t"),  # 0^-1
    _S * Var("y") + Var("t"),                # y is unbound
    _S ** 2 - 1,
    _S,
]
_CLOUDS = [
    (BOX, 100, 0),
    (BOX, 100, 9),                           # another seed
    (BOX, 37, 0),                            # another n
    ({"x": (-1.0, 2.0), "t": (0.0, 1.0)}, 100, 0),  # another box
]


def _zero_test(e, cloud):
    box, n, seed = cloud
    return repr(is_zero_sampled(e, box, n=n, seed=seed))


def test_zero_tests_in_one_scope_give_each_its_own_sample():
    alone = {(i, j): _zero_test(e, c) for i, e in enumerate(_RESIDUALS)
             for j, c in enumerate(_CLOUDS)}
    assert any("overflow in exp(1000*x)" in z for z in alone.values())
    assert any("unbound variable 'y'" in z for z in alone.values())
    assert any("log of a nonpositive value" in z for z in alone.values())
    assert any("zero raised to a negative power" in z for z in alone.values())
    keys = list(alone)
    for order in (keys, keys[::-1], sorted(keys, key=lambda k: k[::-1])):
        with memo_scope():
            got = {k: _zero_test(_RESIDUALS[k[0]], _CLOUDS[k[1]])
                   for k in order}
        assert got == alone


def test_a_failure_noted_under_a_parent_is_noted_again():
    # the overflow inside 1/exp(1000 x) leaves its parent finite: a table
    # that kept the parent's value would hide the failure from the second
    # residual, which holds the same node
    first, second = _RESIDUALS[2], _RESIDUALS[3]
    want = _zero_test(second, _CLOUDS[0])
    assert "overflow in exp(1000*x)" in want
    with memo_scope():
        assert "overflow" in _zero_test(first, _CLOUDS[0])
        assert _zero_test(second, _CLOUDS[0]) == want


def test_a_table_entry_keeps_its_node_and_with_it_its_id():
    # trees made and dropped one after another inside one scope, built
    # canonical by the operators so that no other table holds them: a new
    # node may take a dropped node's address, and must not take its value
    want = [_zero_test((Var("x") * k + Var("t")) ** 2, _CLOUDS[0])
            for k in range(1, 41)]
    with memo_scope():
        got = []
        for k in range(1, 41):
            e = (Var("x") * k + Var("t")) ** 2
            got.append(_zero_test(e, _CLOUDS[0]))
            del e
            gc.collect()
    assert got == want


def test_zero_test_tables_live_only_inside_their_scope():
    simplify_module = importlib.import_module("liewave.expr.simplify")
    assert simplify_module._valued is None
    with memo_scope():
        is_zero_sampled(_RESIDUALS[0], BOX)
        is_zero_sampled(_RESIDUALS[0], BOX, seed=9)
        assert len(simplify_module._valued) == 2
    assert simplify_module._valued is None


# ---------------------------------------- A = 0: no second x-derivative built

def _full_residual(p, u):
    """PdeSpec.residual with u_2x always built."""
    u_x = diff(u, "x")
    return diff(u, "t") - p.A * diff(u_x, "x") - p.B * u_x - p.C * u


def _full_determining(p, g):
    """determining_residuals with xi_2x and M_2x always built."""
    phi, xi, A, B = map(simplify, (g.phi, g.xi, p.A, p.B))
    At, Ax = diff(p.A, "t"), diff(p.A, "x")
    Bt, Bx = diff(p.B, "t"), diff(p.B, "x")
    Ct, Cx = diff(p.C, "t"), diff(p.C, "x")
    Mx, Mt = diff(g.M, "x"), diff(g.M, "t")
    M2x = diff(Mx, "x")
    xi_x, xi_t = diff(g.xi, "x"), diff(g.xi, "t")
    xi_2x = diff(xi_x, "x")
    phi_t = diff(g.phi, "t")
    r1 = phi * At + xi * Ax + A * phi_t - 2 * A * xi_x
    r2 = (-phi * Bt - xi * Bx + B * xi_x - xi_t - B * phi_t - 2 * A * Mx
          + A * xi_2x)
    r3 = -phi * Ct - xi * Cx - B * Mx + Mt - phi_t * p.C - A * M2x
    return r1, r2, r3


def _full_reduce(p, a):
    """similarity_reduce's coefficients with z_2x and E_2x always built."""
    z, _ = invariants(a)
    z_x = diff(z, "x")
    E = simplify(Exp(num(a.v) * a.R))
    E_x = diff(E, "x")
    A, B = p.A, p.B
    c2 = expand(A * E * z_x**2)
    c1 = expand(A * (2 * E_x * z_x + E * diff(z_x, "x")) + B * E * z_x
                - E * diff(z, "t"))
    c0 = expand(A * diff(E_x, "x") + B * E_x + p.C * E)
    return z, c2, c1, c0


def _check_constructions(p, u, g, a):
    got_u = _exact(p.residual(u))
    got_g = [_exact(r) for r in determining_residuals(p, g)]
    r = similarity_reduce(p, a)
    got_a = [_exact(c) for c in (r.z_expr, r.c2, r.c1, r.c0)]
    assert got_u == _exact(_full_residual(p, u))
    assert got_g == [_exact(r) for r in _full_determining(p, g)]
    assert got_a == [_exact(c) for c in _full_reduce(p, a)]


_ANSATZ = SeparableAnsatz("1 + t", "x + x^2/4", "sin(x)", 1.5, -0.5)
_OSC = [("x", "0", 1.0, 0.0), ("x", "x", 1.0, 1.0), ("2*x", "x", 2.0, 3.0),
        ("x + 0.1*x^2", "x", 0.8, -0.6), ("x + 0.1*x^2", "x^2", 1.3, -0.5)]


@pytest.mark.parametrize("P, R, q, v", _OSC)
def test_zero_A_skips_give_the_full_trees_for_oscillator_members(P, R, q, v):
    inp = OscFamilyInput(P, R, q, v, 1.2, 0.7, 2, DOM)
    p = inp.synth()
    assert p.A == Const(0)
    for scoped in (False, True):
        with memo_scope() if scoped else contextlib.nullcontext():
            _check_constructions(p, inp.solution(), inp.generator(),
                                 inp.ansatz())


@pytest.mark.parametrize("A", ["0", "0.0", "-0.0", "x - x", "0*t", "1",
                               "1 + x*t"])
@pytest.mark.parametrize("B", ["x + t", "0"])
@pytest.mark.parametrize("u, gen", [
    ("sin(x)*exp(-t) + x^2*t", ("1 + t", "x*t + 2", "x^2 - t")),
    ("exp(x - 2*t)/(1 + x^2)", ("exp(t)", "sin(x + t)", "log(2 + x)*t")),
])
def test_zero_A_read_from_text_gives_the_full_trees(A, B, u, gen):
    # A read as text is the exact 0 however it is written, or is not zero
    # and takes the full path
    p = load_pde({"A": A, "B": B, "C": "2.5*x*t",
                  "domain": {"x": [0, 1], "t": [0, 1]}})
    _check_constructions(p, parse(u), Generator(*gen), _ANSATZ)


@pytest.mark.parametrize("A", [Const(0.0), Const(-0.0)])
def test_a_float_zero_A_gives_the_full_trees(A):
    # a library caller's float zeros fold a product to 0 as the int does
    p = PdeSpec(A, parse("x + t"), parse("2.5*x*t"), DOM)
    _check_constructions(p, parse("sin(x)*exp(-t) + x^2*t"),
                         Generator("1 + t", "x*t + 2", "x^2 - t"), _ANSATZ)
