import copy
import dataclasses
import importlib
import math
import operator
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liewave.expr import (
    Add, Call, Canon, Const, EvalError, Expr, Exp, Mul, Neg, ParseError, Pow, Sin,
    Var, ZeroSample, diff, eval_numeric, expand, free_vars, is_zero_sampled,
    num, parse, sample_box, simplify, substitute, to_text,
)
from liewave.expr import (
    ZERO, check_nonvanishing, eval_checked, eval_on_grid, memo_scope,
)
from liewave.expr.calculus import _ev, _shared
from liewave.expr.nodes import children, neg, node_count, sort_key
from liewave.expr.sampling import _SECOND_PASS_SHIFT, _cloud
from liewave.expr.simplify import _add, _expand, _mul, _negate

from conftest import CORPUS
from oracles import _ev as tree_walk_ev
from oracles import (
    free_vars_by_kind, max_abs_sampled, node_count_by_kind, raw_derivative,
    rebuilding_add, refolding_negate, substitute_by_kind, tree_walk_checked,
    tree_walk_numeric, tree_walk_on_grid, unit_seeded_mul,
)

simplify_module = importlib.import_module("liewave.expr.simplify")
calculus_module = importlib.import_module("liewave.expr.calculus")
sampling_module = importlib.import_module("liewave.expr.sampling")


# ---------------------------------------------------------------- parsing

def test_parse_power_plus_constant():
    assert parse("x^2 + 1") == Add((Pow(Var("x"), Const(2)), Const(1)))


def test_parse_exp_with_subtraction():
    expected = Exp(Add((Var("x"), Neg(Mul((Var("q"), Var("t")))))))
    assert parse("exp(x - q*t)") == expected


def test_parse_nested_calls():
    assert parse("sin(k*exp(x))") == Sin(Mul((Var("k"), Exp(Var("x")))))


def test_parse_division_is_mul_pow():
    assert parse("a/b") == Mul((Var("a"), Pow(Var("b"), Const(-1))))


def test_parse_negative_literal_folds():
    assert parse("-5") == Const(-5)
    assert parse("x - 2") == Add((Var("x"), Const(-2)))


def test_parse_unary_minus_before_power_is_an_error():
    # -x^2 reads as -(x^2) in mathematics and as (-x)^2 in some grammars:
    # neither is guessed, the error names both
    for text, offset in [("-x^2", 0), ("exp(-x^2)", 4), ("-2^2", 0),
                         ("2^-x^2", 2), ("x - --t^3", 4)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected == ("-(a^b)", "(-a)^b")
        assert "-(a^b)" in str(err.value) and "(-a)^b" in str(err.value)
    assert parse("-(x^2)") == Neg(Pow(Var("x"), Const(2)))
    assert parse("(-x)^2") == Pow(Neg(Var("x")), Const(2))
    assert parse("x - x^2") == Add((Var("x"), Neg(Pow(Var("x"), Const(2)))))
    assert parse("x^-2") == Pow(Var("x"), Const(-2))
    assert parse("-x*t^2") == Mul((Neg(Var("x")), Pow(Var("t"), Const(2))))


def test_parse_right_associative_power():
    assert parse("x^y^z") == Pow(Var("x"), Pow(Var("y"), Var("z")))


def test_parse_decimals_are_exact():
    assert parse("0.1") == Const(Fraction(1, 10))
    assert parse("2e-4") == Const(Fraction(1, 5000))
    assert simplify(parse("0.1*10")) == Const(1)


@pytest.mark.parametrize("n", [0, 1, -1, 2, -7, 2**53, -10**30])
def test_integral_constants_hold_ints(n):
    # every route to an exact integral constant holds an int, which is ==,
    # hashes, sorts, prints and pickles as the Fraction equal to it
    consts = [Const(n), Const(Fraction(n)), num(n), num(float(n)),
              parse(str(n))]
    for c in consts:
        assert type(c.value) is int and c.value == n and c.is_exact
        # the dataclass hash of the field tuple, as with a Fraction value
        assert c == consts[0] and hash(c) == hash((Fraction(n),))
        assert sort_key(c) == (0, n, 0.0, n, 1)
        assert to_text(c) == to_text(consts[0]) == str(n)
        back = pickle.loads(pickle.dumps(c))
        assert type(back.value) is int and back == c
        assert hash(back) == hash(c) and sort_key(back) == sort_key(c)
        assert to_text(back) == to_text(c)


def test_non_integral_constants_stay_fractions():
    half = Const(Fraction(1, 2))
    assert type(half.value) is Fraction
    assert sort_key(half) == (0, Fraction(1, 2), 0.0, 1, 2)
    assert type(Const(2.0).value) is float and not Const(2.0).is_exact
    # an exact power folds exactly, to an int when it is integral
    for text, value in (("2^-3", Fraction(1, 8)), ("(-2)^-3", Fraction(-1, 8)),
                        ("(1/2)^-3", 8), ("(2/3)^2", Fraction(4, 9))):
        folded = simplify(parse(text))
        assert type(folded.value) is type(value) and folded.value == value
    assert simplify(parse("0^-1")) == Pow(Const(0), Const(-1))


@pytest.mark.parametrize("text,offset", [
    ("x + + 2", 4),
    ("(x", 2),
    ("2 +", 3),
    ("x 2", 2),
])
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


def test_parse_unknown_function():
    with pytest.raises(ParseError) as err:
        parse("f(x)")
    assert "unknown function" in str(err.value)
    assert "exp" in err.value.expected


def test_parse_error_expected_tokens():
    with pytest.raises(ParseError) as err:
        parse("(x + 1")
    assert "')'" in err.value.expected


# --------------------------------------------------------------- printing

@pytest.mark.parametrize("text", [t for t, _ in CORPUS])
def test_print_parse_roundtrip_corpus(text):
    e = parse(text)
    assert parse(to_text(e)) == e
    s = simplify(e)
    # canonical trees may hold rationals like 1/3 with no literal spelling;
    # their text reparses to the same canonical form
    assert simplify(parse(to_text(s))) == s


def test_roundtrip_exact_for_decimal_rationals():
    s = simplify(parse("0.75*x - x/2"))
    assert parse(to_text(s)) == s


@pytest.mark.parametrize("value, text", [
    (Fraction(1, 10**300), "1e-300"),
    (Fraction(-3, 10**300), "-3e-300"),
    (Fraction(3, 1000), "3e-3"),              # shorter than 0.003
    (Fraction(1, 1024), "9765625e-10"),       # shorter than 0.0009765625
    (Fraction(1, 20), "0.05"),                # as long as 5e-2: decimal
    (Fraction(-123, 100), "-1.23"),
])
def test_const_text_uses_exponent_only_when_shorter(value, text):
    assert to_text(Const(value)) == text
    assert parse(text) == Const(value)
    e = Mul((Var("x"), Pow(Var("t"), Const(value)), Add((Var("t"), Const(value)))))
    assert parse(to_text(e)) == e


_names = st.sampled_from(["x", "t", "u", "q", "v"])
_decimal_fractions = st.builds(
    Fraction,
    st.integers(-40, 40),
    st.sampled_from([1, 2, 4, 5, 8, 10, 16, 20]),
)
_leaves = st.one_of(
    _names.map(Var),
    st.integers(-9, 9).map(lambda n: Const(Fraction(n))),
    _decimal_fractions.map(Const),
)


def _branch(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(Add),
        pair.map(Mul),
        st.tuples(children, st.integers(-3, 3).map(lambda n: Const(Fraction(n)))).map(
            lambda bx: Pow(*bx)),
        # neg folds -const and --e as the parser does, and rejects no draw
        children.map(neg),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]),
                  children).map(lambda fa: Call(*fa)),
    )


_exprs = st.recursive(_leaves, _branch, max_leaves=20)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip_random(e):
    assert parse(to_text(e)) == e


@given(_exprs)
@example(parse("-1*(x+t)"))  # a negated sum must come out distributed
@example(parse("-(t + x)"))
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(e):
    s = simplify(e)
    assert simplify(s) == s
    assert simplify(parse(to_text(s))) == s


@given(_exprs)
@settings(max_examples=100, deadline=None)
def test_expand_is_simplify_stable(e):
    x = expand(e)
    assert simplify(x) == x


def _walk(e):
    yield e
    for name in ("terms", "factors"):
        for c in getattr(e, name, ()):
            yield from _walk(c)
    if isinstance(e, Pow):
        yield from _walk(e.base)
        yield from _walk(e.exponent)
    if isinstance(e, (Neg, Call)):
        yield from _walk(e.child if isinstance(e, Neg) else e.arg)


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_canonical_shape_invariants(e):
    for node in _walk(simplify(e)):
        if isinstance(node, Add):
            assert len(node.terms) >= 2
            assert sum(isinstance(t, Const) for t in node.terms) <= 1
            assert not any(isinstance(t, Const) for t in node.terms[1:])
        if isinstance(node, Mul):
            assert len(node.factors) >= 2
            assert sum(isinstance(f, Const) for f in node.factors) <= 1
            assert not any(isinstance(f, Const) for f in node.factors[1:])


# ------------------------------------------ cached hash and sort key

def _corpus_trees():
    """Every distinct subtree of the corpus, raw, simplified and expanded,
    plus float constants (Const(1.0) sorts and hashes next to Const(1)),
    rationals on both sides of 2**53, where floats stop being exact, one
    that rounds to the same float as 1/3, and both zeros."""
    out = {}
    for text, _ in CORPUS:
        for tree in (parse(text), simplify(parse(text)), expand(parse(text))):
            for node in _walk(tree):
                out.setdefault(repr(node), node)
    for value in (1.0, -0.5, 2.5, Fraction(1, 3), Fraction(-7, 2), 2**53,
                  2**53 + 1, -2**60, 2**60 + 1, float(2**60), Fraction(1, 2**60 + 1),
                  Fraction(2**60 + 3, 2**60 + 1), Fraction(2**60 + 5, 2**60 + 1),
                  Fraction(3002399751580314, 9007199254740943), 2**60,
                  Fraction(1, 10**400), 0.0, -0.0):
        out[repr(Const(value))] = Const(value)
    return list(out.values())


def _nested_key(e):
    """Reference order: (tag, name, numbers, child keys), nested."""
    if isinstance(e, Const):
        v = e.value
        if not isinstance(v, float):  # an int or a Fraction: exact
            return (0, "", (v, 0.0, v.numerator, v.denominator), ())
        return (0, "", (v, 1.0, math.copysign(1.0, v), 0.0), ())
    if isinstance(e, Var):
        return (1, e.name, (), ())
    if isinstance(e, Call):
        return (2, e.fn, (), (_nested_key(e.arg),))
    if isinstance(e, Pow):
        return (3, "", (), (_nested_key(e.base), _nested_key(e.exponent)))
    if isinstance(e, Neg):
        return (4, "", (), (_nested_key(e.child),))
    if isinstance(e, Mul):
        return (5, "", (), tuple(_nested_key(f) for f in e.factors))
    return (6, "", (), tuple(_nested_key(t) for t in e.terms))


def _field_tuple(e):
    return tuple(getattr(e, f.name) for f in dataclasses.fields(e))


def test_cached_hash_is_the_field_tuple_hash():
    for node in _corpus_trees():
        assert hash(node) == hash(_field_tuple(node))
        assert hash(node) == hash(_field_tuple(node))  # cached value


def test_equal_trees_built_separately_hash_equal():
    for text, _ in CORPUS:
        a, b = simplify(parse(text)), simplify(parse(text))
        assert a is not b and a == b and hash(a) == hash(b)
    assert Const(1) == Const(1.0) and hash(Const(1)) == hash(Const(1.0))
    assert hash(Add((Var("x"), Const(1)))) == hash(Add((Var("x"), Const(1.0))))


def test_cached_sort_key_orders_like_the_nested_key():
    trees = _corpus_trees()
    nested = [_nested_key(e) for e in trees]
    flat = [sort_key(e) for e in trees]
    for i in range(len(trees)):
        for j in range(len(trees)):
            assert (flat[i] < flat[j]) == (nested[i] < nested[j])
            assert (flat[i] == flat[j]) == (nested[i] == nested[j])


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_cached_sort_key_orders_random_trees_like_the_nested_key(e):
    nodes = list(_walk(e)) + list(_walk(simplify(e)))
    for x in nodes:
        for y in nodes:
            assert (sort_key(x) < sort_key(y)) == (_nested_key(x) < _nested_key(y))
            assert (sort_key(x) == sort_key(y)) == (_nested_key(x) == _nested_key(y))


def test_pickle_does_not_carry_the_cache():
    # str hashes differ between processes, so a cached hash must not travel
    for text, _ in CORPUS:
        tree = expand(parse(text))
        before = pickle.dumps(tree)
        for node in _walk(tree):
            hash(node)
            sort_key(node)
        assert pickle.dumps(tree) == before
        copy = pickle.loads(before)
        assert copy == tree and hash(copy) == hash(tree)


# one canonical (so marked) node of each branch kind
_KINDS = {type(e).__name__: e for e in map(simplify, map(parse, (
    "x + 1", "2*x*t", "x^2", "-x", "exp(x)")))}


@pytest.mark.parametrize("make", [
    lambda e: type(e)(*(getattr(e, f.name) for f in dataclasses.fields(e))),
    lambda e: pickle.loads(pickle.dumps(e)),
    copy.copy,
    copy.deepcopy,
], ids=["fresh", "unpickled", "copy", "deepcopy"])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_cache_slots_start_unset(kind, make):
    # fill the source's slots first, so that a copy carrying them shows
    node = _KINDS[kind]
    assert type(node).__name__ == kind and node._canon
    h, key = hash(node), sort_key(node)
    other = make(node)
    assert other is not node and other == node
    assert (other._hash, other._key, other._canon) == (None, None, False)
    assert hash(other) == h and sort_key(other) == key
    assert (other._hash, other._key, other._canon) == (h, key, False)
    assert simplify(other) is not other  # unmarked: simplified again


# ------------------------------------------------ the canonical mark

def _unmarked(e):
    """Structural copy with the cache slots unset (pickle carries the
    fields only)."""
    return pickle.loads(pickle.dumps(e))


def _marked(e):
    return [n for n in _walk(e) if getattr(n, "_canon", False)]


def _check_canonical_mark(e):
    """simplify of trees holding marked nodes gives the same text as
    simplify of their unmarked copies; trees are compared by repr, not ==,
    because Const(1) == Const(1.0)."""
    s = simplify(e)
    copy = _unmarked(s)
    assert not _marked(copy)
    assert isinstance(s, (Const, Var)) or s._canon
    # the mark is invisible to equality, hash, repr, text and pickle
    assert s == copy and hash(s) == hash(copy)
    assert repr(s) == repr(copy) and to_text(s) == to_text(copy)
    assert pickle.dumps(s) == pickle.dumps(copy)
    assert simplify(s) is s
    assert repr(simplify(copy)) == repr(s)
    # e itself was simplified once above and must not pass for canonical
    assert repr(simplify(e)) == repr(simplify(_unmarked(e))) == repr(s)
    mixed = Add((e, s, Mul((s, e)), Neg(Pow(s, Const(2)))))
    assert repr(simplify(mixed)) == repr(simplify(_unmarked(mixed)))
    x = expand(mixed)
    assert repr(x) == repr(expand(_unmarked(mixed)))
    assert repr(diff(mixed, "x")) == repr(diff(_unmarked(mixed), "x"))


@pytest.mark.parametrize("text", [t for t, _ in CORPUS])
def test_canonical_mark_corpus(text):
    _check_canonical_mark(parse(text))


# float constants too: Const(1.0) equals Const(1) but prints apart
_float_leaves = st.sampled_from([0.5, 1.0, -1.0, 2.5, 0.1]).map(Const)
_exprs_with_floats = st.recursive(_leaves | _float_leaves, _branch,
                                  max_leaves=20)


@given(_exprs_with_floats)
@settings(max_examples=250, deadline=None)
def test_canonical_mark_random(e):
    _check_canonical_mark(e)


# ------------------------------------------ trees built canonical

_numbers = st.one_of(st.integers(-5, 5), _decimal_fractions,
                     st.sampled_from([0.5, -2.0, 0.0, -0.0, 1.5]))
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _apply(name, left, right):
    if name == "neg":
        return -left
    if name == "**":
        return left ** right
    if name.startswith("r"):  # the step's operand on the left
        return _BINARY[name[1:]](right, left)
    return _BINARY[name](left, right)


@given(_exprs_with_floats,
       st.lists(st.tuples(
           st.sampled_from(["+", "-", "*", "/", "r+", "r-", "r*", "r/",
                            "neg", "**"]),
           _exprs_with_floats | _numbers,
           st.sampled_from([-1, 2, 3, Fraction(1, 2), 0.5])), max_size=6))
@settings(max_examples=300, deadline=None)
def test_canon_operators_are_simplify_of_the_raw_tree(first, steps):
    # applied left to right, each handle operator gives simplify of the raw
    # tree Expr's operators build, down to each constant's type and sign
    handle, raw = Canon(first), _unmarked(first)
    for name, operand, exponent in steps:
        if name == "**":
            operand = exponent
        raw_operand = operand
        if isinstance(operand, Expr):
            raw_operand = _unmarked(operand)
            if name.startswith("r"):  # an Expr on the left is wrapped first
                operand = Canon(operand)
        handle = _apply(name, handle, operand)
        raw = _apply(name, raw, raw_operand)
        assert sort_key(handle.e) == sort_key(simplify(_unmarked(raw)))
        assert simplify(handle.e) is handle.e


@given(_exprs_with_floats)
@settings(max_examples=200, deadline=None)
def test_expand_builds_its_canonical_form(e):
    # every tree _expand returns is marked, and truly canonical: simplify of
    # an unmarked copy is the same tree
    x = _expand(simplify(e), None)
    assert simplify(x) is x
    assert sort_key(simplify(_unmarked(x))) == sort_key(x)
    assert sort_key(expand(_unmarked(e))) == sort_key(x)


# ------------------------------------------------- the job-scoped memo

def _calls(e):
    """simplify, expand and diff of fresh (unmarked) copies of e, by repr."""
    return (repr(simplify(_unmarked(e))), repr(expand(_unmarked(e))),
            repr(diff(_unmarked(e), "x")), repr(diff(_unmarked(e), "t")))


def _same_object_calls(e):
    """expand and diff of one fresh copy of e, each made twice: the second
    call gets the object the first one saw."""
    u = _unmarked(e)
    return [(repr(expand(u)), repr(diff(u, "x")), repr(diff(u, "t")))
            for _ in range(2)]


def _memo_tables():
    return (simplify_module._memo, simplify_module._expanded,
            simplify_module._derived)


def _check_memo_is_invisible(e):
    outside = _calls(e)
    outside_same = _same_object_calls(e)
    with memo_scope():
        assert _calls(e) == outside
        assert _calls(e) == outside  # now served from the memo
        # the tables serve the second call of each pair
        assert _same_object_calls(e) == outside_same
        leaf = isinstance(e, (Const, Var))
        assert simplify_module._memo or leaf
        assert simplify_module._expanded or isinstance(simplify(e),
                                                       (Const, Var))
        assert any(simplify_module._derived.values()) or leaf
    assert _memo_tables() == (None, None, None)


@pytest.mark.parametrize("text", [t for t, _ in CORPUS])
def test_memo_gives_the_results_of_no_memo_corpus(text):
    _check_memo_is_invisible(parse(text))


@given(_exprs_with_floats)
@settings(max_examples=250, deadline=None)
def test_memo_gives_the_results_of_no_memo_random(e):
    _check_memo_is_invisible(e)


# each pair is one tree under ==, or was one under the inexact sort key
@pytest.mark.parametrize("a, b", [
    (Mul((Var("x"), Const(2**60))), Mul((Var("x"), Const(2**60 + 1)))),
    (Mul((Var("x"), Const(0.5))), Mul((Var("x"), Const(Fraction(1, 2))))),
    (Call("sin", Const(0.0)), Call("sin", Const(-0.0))),
])
def test_memo_keeps_apart_trees_that_only_look_alike(a, b):
    # simplify, expand and diff alike: each tree gets its no-memo results,
    # whichever of the two the scope has seen first
    expected = _calls(a), _calls(b)
    assert expected[0][0] != expected[1][0]
    for first, second in ((a, b), (b, a)):
        with memo_scope():
            got = {repr(first): _calls(first), repr(second): _calls(second)}
        assert (got[repr(a)], got[repr(b)]) == expected
    assert sort_key(a) != sort_key(b)


def test_memo_lives_only_inside_its_scope():
    assert _memo_tables() == (None, None, None)
    expand(parse("x*(1 + x)"))
    diff(parse("x*(1 + x)"), "x")
    assert _memo_tables() == (None, None, None)  # nothing kept outside
    with memo_scope():
        simplify(parse("x*(1 + x) + 2*x"))
        expand(parse("x*(1 + x)"))
        diff(parse("x*(1 + x)"), "x")
        assert simplify_module._memo
        assert simplify_module._expanded
        assert simplify_module._derived["x"]
    assert _memo_tables() == (None, None, None)
    with pytest.raises(ZeroDivisionError):
        with memo_scope():
            expand(parse("x*(1 + x)"))
            diff(parse("x*(1 + x)"), "t")
            assert all(_memo_tables())
            1 / 0
    assert _memo_tables() == (None, None, None)


def test_identity_tables_hold_the_trees_they_key():
    # an entry's key holds the tree it was made from, so the entry keeps
    # that tree alive and compares on its exact structure
    with memo_scope():
        e = parse("x*(1 + x)")
        expand(e)
        diff(e, "x")
        canon = simplify(e)  # what expand expands
        assert any(k.tree is canon for k in simplify_module._expanded)
        assert any(k.tree is e for k in simplify_module._derived["x"])
        # a structurally zero derivative is stored and served too, as the
        # ZERO node itself
        assert diff(e, "t") == Const(0)
        key = next(k for k in simplify_module._derived["t"] if k.tree is e)
        assert simplify_module._derived["t"][key] is ZERO


def test_tables_serve_equal_trees_built_apart(monkeypatch):
    # one text parsed twice: two objects, one structure, one table entry
    text = "x*(1 + x)*sin(x) + exp(x)^2"

    def sizes():
        return (len(simplify_module._expanded),
                *(len(simplify_module._derived[v]) for v in ("x", "t")))

    def no_rule(e, var, memo):
        raise AssertionError(f"derivative of {e!r} by {var} computed again")

    with memo_scope():
        first, second = parse(text), parse(text)
        assert first is not second
        results = expand(first), diff(first, "x"), diff(first, "t")
        before = sizes()
        # the second parse is served from the tables, also the structurally
        # zero t-derivative: a stored ZERO is a hit, not a miss
        monkeypatch.setattr(calculus_module, "_rule", no_rule)
        assert (expand(second), diff(second, "x"), diff(second, "t")) \
            == results
        assert sizes() == before
        assert results[2] == Const(0)
        key = simplify_module._Exact(second)
        assert simplify_module._derived["t"][key] is ZERO


# ------------------------------------------------------- differentiation

def test_diff_power_rule():
    assert diff(parse("x^2"), "x") == parse("2*x")


def test_diff_exponential_chain():
    got = diff(parse("exp(x - q*t)"), "t")
    assert got == simplify(parse("-(q*exp(x - q*t))"))


def test_diff_trig_chain():
    got = diff(parse("sin(k*exp(x))"), "x")
    assert got == simplify(parse("k*exp(x)*cos(k*exp(x))"))


@pytest.mark.parametrize("text,box", CORPUS)
def test_diff_matches_central_differences(text, box):
    # independent oracle: central finite differences of eval_numeric
    e = parse(text)
    rng = random.Random(hash(text) & 0xFFFF)
    for var in sorted(free_vars(e)):
        d = diff(e, var)
        for _ in range(50):
            point = {k: rng.uniform(lo, hi) for k, (lo, hi) in box.items()}
            h = 1e-6 * max(1.0, abs(point[var]))
            hi_pt = dict(point, **{var: point[var] + h})
            lo_pt = dict(point, **{var: point[var] - h})
            fd = (eval_numeric(e, hi_pt) - eval_numeric(e, lo_pt)) / (2 * h)
            sym = eval_numeric(d, point)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


def _d_full(e, var):
    """The derivative with a product-rule term for every factor, zero or
    not: the reference for diff, which writes no structurally zero term."""
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1 if e.name == var else 0)
    if isinstance(e, Add):
        return Add(tuple(_d_full(t, var) for t in e.terms))
    if isinstance(e, Neg):
        return Neg(_d_full(e.child, var))
    if isinstance(e, Mul):
        return Add(tuple(
            Mul(e.factors[:i] + (_d_full(f, var),) + e.factors[i + 1:])
            for i, f in enumerate(e.factors)))
    if isinstance(e, Pow):
        b, x = e.base, e.exponent
        if isinstance(x, Const):
            return Mul((x, Pow(b, Const(x.value - 1)), _d_full(b, var)))
        if isinstance(b, Const):
            return Mul((e, Call("log", b), _d_full(x, var)))
        return Mul((e, Add((Mul((_d_full(x, var), Call("log", b))),
                            Mul((x, _d_full(b, var), Pow(b, Const(-1))))))))
    u, du = e.arg, _d_full(e.arg, var)
    return {
        "exp": lambda: Mul((e, du)),
        "log": lambda: Mul((du, Pow(u, Const(-1)))),
        "sin": lambda: Mul((Call("cos", u), du)),
        "cos": lambda: Neg(Mul((Call("sin", u), du))),
        "sqrt": lambda: Mul((du, Pow(Mul((Const(2), e)), Const(-1)))),
    }[e.fn]()


@given(_exprs)
@example(parse("x*y*sin(t)"))
@example(parse("exp(y)^x + x^y + 2^t"))
@settings(max_examples=300, deadline=None)
def test_diff_is_the_full_product_rule_simplified(e):
    for var in ("x", "t"):
        got, want = diff(e, var), simplify(_d_full(e, var))
        # repr also tells Const(1) from Const(1.0)
        assert got == want and repr(got) == repr(want)


X = Var("x")


@given(st.one_of(_exprs_with_floats, _exprs_with_floats.map(simplify)))
@example(Add((Mul((Const(-0.0), X)), Const(-0.0))))
@example(Neg(Mul((Const(0.0), X, Var("t")))))
@example(Add((Pow(X, Const(0.5)), Pow(X, Const(Fraction(1, 2))))))
@example(Mul((Pow(X, Const(0.5)), Pow(X, Const(Fraction(1, 2))))))
@example(parse("exp(log(x))*t + exp(log(x) + t)"))
@example(parse("sqrt(x*t) + sqrt(2)*x"))
@example(parse("sin(t)*x*exp(t)"))          # factors structurally zero in x
@example(parse("(x - x)*t + (t - t)*x"))    # factors that simplify to zero
# each rule with raw parts it keeps: each part must come out canonical
@example(parse("(x + 1)^3 + 2^(x + 1) + (x + 1)^(x + t)"))
@example(parse("log(x + 1) + sin(x + 1) - cos(x + 1)"
               " + exp(x + 1)*sqrt(x + 1)"))
@example(parse("(x + 1)*(1 + x)*(t + x) - (x + 1)"))
@settings(max_examples=300, deadline=None)
def test_diff_is_the_raw_rule_simplified(e):
    # the one-pass derivative is the tree simplify makes of the raw one,
    # down to each constant's type and the sign of zero, with and without
    # the scope's tables (the second call in a scope is served by them)
    for var in ("x", "t"):
        want = simplify(raw_derivative(e, var))
        got = diff(e, var)
        assert sort_key(got) == sort_key(want) and repr(got) == repr(want)
        with memo_scope():
            for _ in range(2):
                got = diff(_unmarked(e), var)
                assert sort_key(got) == sort_key(want)
                assert repr(got) == repr(want)


def test_mul_keeps_canonical_factors_as_they_are():
    p, c = simplify(parse("y^2")), simplify(parse("exp(t)"))
    out = _mul((Var("x"), p, c))
    assert isinstance(out, Mul)
    assert any(f is p for f in out.factors)
    assert any(f is c for f in out.factors)
    # a repeated base still merges
    assert _mul((Var("x"), simplify(parse("x^2")))) == Pow(Var("x"), Const(3))
    assert simplify(parse("x*x^2")) == parse("x^3")


_mul_constants = st.one_of(
    st.integers(-3, 3).map(Fraction),
    _decimal_fractions,
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.5, -2.5, 3.0, 1e-300]),
).map(Const)


@given(consts=st.lists(_mul_constants, max_size=3),
       others=st.lists(_exprs_with_floats.map(simplify), max_size=3),
       data=st.data())
@example(consts=[Const(-0.0)], others=[Var("x")], data=None)
@example(consts=[Const(1.0)], others=[Var("x")], data=None)
@example(consts=[Const(1.0), Const(Fraction(1, 2))], others=[], data=None)
@example(consts=[Const(Fraction(3, 2)), Const(2.0)], others=[Var("t")],
         data=None)
@settings(max_examples=300, deadline=None)
def test_mul_matches_the_unit_seeded_fold(consts, others, data):
    # the first constant is kept as it is, not multiplied into a new exact
    # 1: same tree down to each constant's type and the sign of zero
    factors = consts + others
    if data is not None:
        factors = data.draw(st.permutations(factors))
    factors = tuple(factors)
    assert sort_key(_mul(factors)) == sort_key(unit_seeded_mul(factors))


_HALF_POWERS = [Pow(X, Const(0.5)), Pow(X, Const(Fraction(1, 2)))]


@st.composite
def _canonical_terms(draw):
    """Up to five canonical terms: subtrees of one random tree, simplified,
    some of them repeated or negated, so that some merge or cancel."""
    nodes = [simplify(n) for n in _walk(draw(_exprs_with_floats))]
    picks = draw(st.lists(st.integers(0, len(nodes) - 1), max_size=5))
    return [_negate(nodes[i]) if draw(st.booleans()) else nodes[i]
            for i in picks]


@given(_canonical_terms())
# float coefficients, merged and alone
@example([simplify(2.5 * X), simplify(X * -0.5), Const(1.0),
          simplify(Neg(Mul((Const(0.1), X, Var("t")))))])
# -0.0 alone, and as the sum of two floats
@example([Const(-0.0), X])
@example([Const(0.5), Const(-0.5), simplify(X * 0.5), simplify(X * -0.5)])
# a sum that cancels to 0
@example([X, Neg(X), simplify(2 * X * Var("t")),
          simplify(-2 * X * Var("t"))])
# == but not the same tree: x^0.5 and x^(1/2) merge under the first
@example(_HALF_POWERS)
@example(_HALF_POWERS[::-1])
@example([_HALF_POWERS[0], Var("t"), Neg(_HALF_POWERS[1])])
@settings(max_examples=300, deadline=None)
def test_add_matches_the_rebuilding_sum(terms):
    # terms that merge with no other are kept as they are: same tree as
    # rebuilding every term, down to each constant's type and the sign of 0
    terms = tuple(terms)
    new, old = _add(terms), rebuilding_add(terms)
    assert sort_key(new) == sort_key(old)
    assert repr(new) == repr(old)


@given(_exprs_with_floats.map(simplify))
@example(simplify(X * 2.5))
@example(simplify(X * Var("t") * Fraction(-3, 4)))
@example(simplify(Add((X * 0.5, Var("t") * -2, Const(-0.0)))))
@example(Const(-0.0))
@example(simplify(Mul((Const(0.5), Pow(X, Const(0.5)),
                       Pow(Var("t"), Const(-1))))))
@settings(max_examples=300, deadline=None)
def test_negate_matches_the_refolding_negation(e):
    new, old = _negate(e), refolding_negate(e)
    assert sort_key(new) == sort_key(old)
    assert repr(new) == repr(old)


def test_add_keeps_the_terms_that_merge_with_no_other():
    a, b = simplify(parse("2*x*t")), simplify(parse("-3*sin(t)"))
    out = simplify(Add((a, b)))
    assert isinstance(out, Add)
    assert sorted(map(id, out.terms)) == sorted((id(a), id(b)))
    # a term that merges is rebuilt; the others are still kept
    out = simplify(Add((X, a, b, X)))
    assert out == simplify(parse("2*x + 2*x*t - 3*sin(t)"))
    assert any(t is a for t in out.terms) and any(t is b for t in out.terms)
    # a sign flip of a product with a constant wraps the product as it is
    assert _negate(a).child is a


# ------------------------------------------------------------ substitute

def test_substitute_is_simultaneous():
    swapped = substitute(parse("x + y"), {"x": Var("y"), "y": Var("x")})
    assert simplify(swapped) == simplify(parse("y + x"))


def test_substitute_identity_and_passthrough():
    assert substitute(parse("x"), {}) == Var("x")
    assert substitute(parse("x + w"), {"x": Var("z")}) == parse("z + w")


def test_substitute_example_solution_shape():
    got = substitute(parse("exp(P - q*t)"), {"P": Var("x"), "q": 1})
    assert simplify(got) == simplify(parse("exp(x - t)"))


_bindings = st.dictionaries(
    _names, _exprs | st.integers(-3, 3) | _decimal_fractions, max_size=3)


@given(_exprs, _bindings)
@settings(max_examples=200, deadline=None)
def test_structural_walks_match_per_kind_walks(e, bindings):
    assert free_vars(e) == free_vars_by_kind(e)
    assert node_count(e) == node_count_by_kind(e)
    # sort_key tells apart what == does not (0.5 and 1/2, 0.0 and -0.0)
    assert sort_key(substitute(e, bindings)) == \
        sort_key(substitute_by_kind(e, bindings))


@pytest.mark.parametrize("walk", [
    children, free_vars, node_count, lambda e: substitute(e, {"x": 1}),
], ids=["children", "free_vars", "node_count", "substitute"])
def test_structural_walks_reject_a_non_expr(walk):
    with pytest.raises(TypeError, match="not an Expr"):
        walk("x")
    if walk is not children:  # the others also reject a non-Expr below
        for bad in (Add((Var("x"), 3)), Call("exp", Pow(Var("t"), None))):
            with pytest.raises(TypeError, match="not an Expr"):
                walk(bad)


# -------------------------------------------------------------- simplify

@pytest.mark.parametrize("before,after", [
    ("1*x + 0", "x"),
    ("x - x", "0"),
    ("2*x + 3*x", "5*x"),
    ("x*0", "0"),
    ("x^1", "x"),
    ("x^0", "1"),
    ("exp(log(x))", "x"),
    ("exp(log(x) - 2*t)", "x*exp(-(2*t))"),
    ("2*x - (x + x)", "0"),
])
def test_simplify_rules(before, after):
    assert simplify(parse(before)) == simplify(parse(after))


def test_simplify_keeps_rationals_exact():
    e = simplify(parse("x/3 + x/6"))
    assert e == Mul((Const(Fraction(1, 2)), Var("x")))


def test_float_constants_are_contagious():
    e = simplify(Add((Mul((Const(0.5), Var("x"))), Mul((Const(0.25), Var("x"))))))
    assert e == Mul((Const(0.75), Var("x")))


def test_expand_distributes():
    assert expand(parse("(x + 1)*(x - 1)")) == simplify(parse("x^2 - 1"))
    assert expand(parse("(x + y)^2")) == simplify(parse("x^2 + 2*x*y + y^2"))


# ------------------------------------------- sympy as an outside oracle

@pytest.fixture(scope="module")
def sp():
    # a test-only oracle: sympy is not a runtime dependency
    return pytest.importorskip("sympy")


def _to_sympy(sp, e):
    if isinstance(e, Const):
        v = e.value
        if not isinstance(v, float):  # an int or a Fraction: exact
            return sp.Rational(v.numerator, v.denominator)
        return sp.Float(v)
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, Add):
        return sp.Add(*(_to_sympy(sp, t) for t in e.terms))
    if isinstance(e, Mul):
        return sp.Mul(*(_to_sympy(sp, f) for f in e.factors))
    if isinstance(e, Pow):
        return sp.Pow(_to_sympy(sp, e.base), _to_sympy(sp, e.exponent))
    if isinstance(e, Neg):
        return -_to_sympy(sp, e.child)
    return getattr(sp, e.fn)(_to_sympy(sp, e.arg))


# the corpora's variables at three points inside (0, 2); exact decimals
_ORACLE_POINTS = [
    dict(zip("abkqtuvx", ("0.3", "1.4", "0.8", "1.9", "1.3", "0.45", "0.35", "0.7"))),
    dict(zip("abkqtuvx", ("1.2", "0.25", "1.5", "0.6", "0.2", "1.1", "1.75", "1.55"))),
    dict(zip("abkqtuvx", ("0.65", "0.9", "0.4", "1.2", "0.85", "1.6", "0.9", "0.15"))),
]


def _agree_with_sympy(sp, ours, reference):
    """ours (an Expr) and reference (a sympy expression) take the same value,
    at 60 digits, at every oracle point where both are real and defined.
    Both sides are evaluated by mpmath, so float rounding in liewave's own
    evaluator plays no part; only exact constants occur in the corpora."""
    import mpmath
    if reference.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        return
    names = sorted(_ORACLE_POINTS[0])
    symbols = [sp.Symbol(n) for n in names]
    f = sp.lambdify(symbols, _to_sympy(sp, ours), "mpmath")
    g = sp.lambdify(symbols, reference, "mpmath")
    with mpmath.workdps(60):
        for point in _ORACLE_POINTS:
            args = [mpmath.mpf(point[n]) for n in names]
            try:
                a, b = f(*args), g(*args)
            except (ZeroDivisionError, ValueError):
                continue
            if isinstance(a, mpmath.mpc) or isinstance(b, mpmath.mpc):
                continue
            assert abs(a - b) <= mpmath.mpf(10)**-30 * max(1, abs(a), abs(b))


def _check_against_sympy(sp, e):
    """diff, expand and simplify of e against sympy's diff, its expand and
    its own automatic canonical form of e."""
    reference = _to_sympy(sp, e)
    for var in ("x", "t"):
        _agree_with_sympy(sp, diff(e, var),
                          sp.diff(reference, sp.Symbol(var)))
    _agree_with_sympy(sp, expand(e), sp.expand(reference))
    _agree_with_sympy(sp, simplify(e), reference)


@pytest.mark.parametrize("text", [t for t, _ in CORPUS])
def test_calculus_agrees_with_sympy_corpus(sp, text):
    _check_against_sympy(sp, parse(text))


@given(_exprs)
@settings(max_examples=200, deadline=None)
def test_calculus_agrees_with_sympy_random(sp, e):
    _check_against_sympy(sp, e)


# ------------------------------------------------------------ evaluation

def test_eval_examples():
    assert eval_numeric(parse("exp(x - q*t)"), {"x": 1, "t": 1, "q": 1}) == 1.0
    assert abs(eval_numeric(parse("sin(k*z)"), {"k": 1, "z": math.pi / 2}) - 1.0) < 1e-15
    got = eval_numeric(parse("(a*exp(x-q*t)+b)*exp(v*x)"),
                       {"a": 1, "b": 2, "q": 1, "v": 0, "x": 0, "t": 0})
    assert got == 3.0


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as err:
        eval_numeric(parse("x + y"), {"x": 1.0})
    assert "y" in str(err.value)


@pytest.mark.parametrize("text,binding", [
    ("log(x)", {"x": -1.0}),
    ("log(x)", {"x": 0.0}),
    ("sqrt(x)", {"x": -4.0}),
    ("x^-1", {"x": 0.0}),
])
def test_eval_domain_errors_name_subtree(text, binding):
    with pytest.raises(EvalError) as err:
        eval_numeric(parse(text), binding)
    assert err.value.expr is not None


@st.composite
def _shared_dags(draw):
    """Three roots over one pool of nodes, where each new node takes its
    children from the pool: one object sits under several parents."""
    pool = draw(st.lists(_leaves, min_size=2, max_size=4))
    for _ in range(draw(st.integers(3, 12))):
        # the newest nodes are picked most, so sharing nests
        pick = st.integers(0, len(pool) - 1).map(
            lambda i: pool[max(i, len(pool) - 1 - i)])
        kind = draw(st.sampled_from(["add", "mul", "pow", "neg", "call"]))
        if kind in ("add", "mul"):
            children = tuple(draw(st.lists(pick, min_size=2, max_size=3)))
            node = (Add if kind == "add" else Mul)(children)
        elif kind == "pow":
            node = Pow(draw(pick), draw(st.one_of(pick, _leaves)))
        elif kind == "neg":
            node = Neg(draw(pick))
        else:
            node = Call(draw(st.sampled_from(["exp", "log", "sin", "cos",
                                              "sqrt"])), draw(pick))
        pool.append(node)
    return tuple(pool[-3:])


# x and t span a 7 x 5 grid through 0; the other names are scalars or rows
_GRID = {"x": np.linspace(-2.0, 2.0, 7)[:, None],
         "t": np.linspace(-1.0, 3.0, 5), "u": 0.5,
         "q": np.array([0.25, -3.0, 0.0, 1.5, 2.0]), "v": -1.5}


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@given(_shared_dags())
@settings(max_examples=300, deadline=None)
def test_shared_subtrees_evaluate_as_the_tree_walk(roots):
    for e in roots:
        assert _bits(eval_on_grid(e, _GRID)) == \
            _bits(tree_walk_on_grid(e, _GRID))
        values, failed = eval_checked(e, _GRID)
        want_values, want_failed = tree_walk_checked(e, _GRID)
        assert _bits(values) == _bits(want_values)
        assert failed.tobytes() == want_failed.tobytes()
        for i, j in ((0, 0), (3, 2), (5, 4)):
            point = {k: float(np.broadcast_to(v, (7, 5))[i, j])
                     for k, v in _GRID.items()}
            try:
                want = tree_walk_numeric(e, point)
            except EvalError as err:
                with pytest.raises(EvalError) as raised:
                    eval_numeric(e, point)
                assert str(raised.value) == str(err)
            else:
                assert _bits(eval_numeric(e, point)) == _bits(want)
    # a tuple shares one memo across its roots and gives each its own value
    assert [_bits(v) for v in eval_on_grid(roots, _GRID)] == \
        [_bits(eval_on_grid(e, _GRID)) for e in roots]


_BAD = parse("log(x - 1/2)")  # fails at the grid's x <= 1/2


@given(_shared_dags())
@example((Mul((_BAD, Var("t"))), Call("sin", _BAD), Var("q")))
@example((Add((_BAD, Var("w"))), Pow(_BAD, Const(2)), Var("x")))
@settings(max_examples=300, deadline=None)
def test_checked_tuple_evaluates_as_a_call_per_root(roots):
    values, failed = eval_checked(roots, _GRID)
    each = [eval_checked(e, _GRID) for e in roots]
    assert [_bits(v) for v in values] == [_bits(v) for v, _ in each]
    assert failed.tobytes() == \
        np.logical_or.reduce([f for _, f in each]).tobytes()
    if any(isinstance(n, Var) and n.name == "w" for e in roots
           for n in _walk(e)):
        assert failed.all()  # w is unbound: every point fails


def test_shared_failing_subtree_raises_as_the_tree_walk():
    bad = parse("log(x - 1/2)")
    e = Add((Mul((bad, Var("t"))), Call("sin", bad)))
    point = {"x": 0.25, "t": 1.0}
    with pytest.raises(EvalError) as want:
        tree_walk_numeric(e, point)
    with pytest.raises(EvalError) as got:
        eval_numeric(e, point)
    assert str(got.value) == str(want.value) == \
        "log of a nonpositive value in log(x - 1/2)"
    # fail hears of the shared node once, not once per parent
    told, walk_told = [], []
    with np.errstate(all="ignore"):
        _ev(e, point, lambda mask, message, node:
            mask and told.append((message, node)), _shared((e,)))
        tree_walk_ev(e, point, lambda mask, message, node:
                     mask and walk_told.append((message, node)))
    assert told == [("log of a nonpositive value", bad), ("overflow", bad)]
    assert walk_told == told * 2


_EXP800 = Call("exp", Const(800))  # inf, from a finite argument


@given(_exprs)
@example(Pow(Const(0), Const(-2)))
@example(Pow(Const(-8), Const(Fraction(1, 3))))
@example(Call("log", Const(0)))
@example(Call("log", Const(-1)))
@example(Call("log", Const(-0.0)))
@example(Call("sqrt", Const(-0.0)))
@example(Call("sqrt", Const(-1)))
@example(_EXP800)
@example(Pow(Const(10), Const(400)))
@example(Pow(_EXP800, Const(-1)))             # inf from a child, finite value
@example(Call("exp", Neg(_EXP800)))
@example(Call("log", Add((_EXP800, Var("x")))))
@example(Pow(Var("x"), Const(-2)))            # 0^-2 at some grid points
@example(Call("sqrt", Var("q")))
@settings(max_examples=300, deadline=None)
def test_checks_only_where_a_value_is_not_finite(e):
    # the evaluator skips a Pow's or a Call's masks where its value is all
    # finite; the tree walk builds them at every node
    values, failed = eval_checked(e, _GRID)
    want_values, want_failed = tree_walk_checked(e, _GRID)
    assert failed.tobytes() == want_failed.tobytes()
    ok = ~failed
    assert _bits(values[ok]) == _bits(want_values[ok])
    for i, j in ((0, 0), (2, 1), (3, 2), (3, 3), (5, 4), (6, 0)):
        point = {k: float(np.broadcast_to(v, (7, 5))[i, j])
                 for k, v in _GRID.items()}
        try:
            want = tree_walk_numeric(e, point)
        except EvalError as err:
            with pytest.raises(EvalError) as raised:
                eval_numeric(e, point)
            assert str(raised.value) == str(err)
        else:
            assert _bits(eval_numeric(e, point)) == _bits(want)


# ---------------------------------------------------------- zero testing

def test_zero_sampled_trivial():
    assert is_zero_sampled(parse("x - x"), {"x": (0, 1)}).passed


def test_zero_sampled_transcendental_identity():
    zs = is_zero_sampled(parse("exp(x)*exp(-x) - 1"), {"x": (-2, 2)},
                         n=100, tol=1e-9)
    assert zs.passed


def test_zero_sampled_threshold():
    tiny = simplify(Mul((Var("x"), Const(1e-12))))
    assert is_zero_sampled(tiny, {"x": (0, 1)}, tol=1e-9).passed
    small = simplify(Mul((Var("x"), Const(1e-6))))
    zs = is_zero_sampled(small, {"x": (0, 1)}, tol=1e-9)
    assert not zs.passed
    assert zs.witness["x"] > 0.9  # worst point sits near the right edge


def test_zero_sampled_term_relative_scale():
    # huge terms that cancel exactly: relative scale keeps this a pass
    e = parse("exp(20)*x - exp(20)*x")
    assert is_zero_sampled(e, {"x": (0.5, 1)}).passed


def test_zero_sampled_domain_error_is_failure():
    zs = is_zero_sampled(parse("log(x)"), {"x": (-1, 1)})
    assert not zs.passed
    assert zs.failure


def test_zero_sampled_determinism():
    e = parse("sin(x)*cos(x)")
    a = is_zero_sampled(e, {"x": (0, 1)}, seed=7)
    b = is_zero_sampled(e, {"x": (0, 1)}, seed=7)
    assert a == b


def _points(cols):
    """A column cloud {name: array} as a list of name -> float points."""
    return [dict(zip(cols, values))
            for values in zip(*(cols[k].tolist() for k in cols))]


def _radical_inverse(index, base):
    inv, scale = 0.0, 1.0 / base
    while index > 0:
        inv += (index % base) * scale
        index //= base
        scale /= base
    return inv


def _reference_zero_test(e, box, n, tol, seed):
    """is_zero_sampled written as a loop over eval_numeric, point by point."""
    canon = simplify(e)
    terms = canon.terms if isinstance(canon, Add) else (canon,)
    points = (_points(sample_box(box, n, seed))
              + _points(sample_box(box, 2 * n, seed + _SECOND_PASS_SHIFT)))
    best, witness, witness_value = -1.0, {}, 0.0
    for p in points:
        try:
            value = abs(eval_numeric(canon, p))
            scale = max(abs(eval_numeric(t, p)) for t in terms)
        except EvalError as err:
            return ZeroSample(False, math.inf, p, math.nan, str(err))
        if value / max(1.0, scale) > best:
            best, witness, witness_value = value / max(1.0, scale), p, value
    return ZeroSample(best <= tol, best, witness, witness_value)


def _reference_max_abs(e, box, n, seed):
    best, where = -1.0, {}
    for p in _points(sample_box(box, n, seed)):
        v = abs(eval_numeric(e, p))
        if v > best:
            best, where = v, p
    return best, where


@pytest.mark.parametrize("text,box", CORPUS + [
    ("log(x)", {"x": (-1.0, 1.0)}),
    ("sqrt(x - 0.5)", {"x": (0.0, 1.0)}),
    ("x^-1", {"x": (-1.0, 1.0)}),
    # the seed-3 cloud starts at x = 0, a pole the value hides: exp(-inf) = 0
    ("exp(-(x^-2))", {"x": (-0.25, 1.75)}),
])
def test_cloud_evaluation_matches_pointwise_reference(text, box):
    # the whole-cloud zero test must agree with the per-point scalar path:
    # residual, witness and, for domain failures, the point and the message
    e = parse(text)
    got = is_zero_sampled(e, box, n=40, tol=1e-9, seed=3)
    # repr compares every field exactly, a nan witness value included
    assert repr(got) == repr(_reference_zero_test(e, box, 40, 1e-9, 3))
    try:
        expected = _reference_max_abs(e, box, 40, 3)
    except EvalError as err:
        with pytest.raises(EvalError) as raised:
            max_abs_sampled(e, box, n=40, seed=3)
        assert str(raised.value) == str(err)
    else:
        assert max_abs_sampled(e, box, n=40, seed=3) == expected


@given(st.one_of(st.integers(-10**6, 10**6), st.fractions(),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-0.0, Fraction(1, 10**400), 10**400,
                                  Fraction(-(10**400), 3)])),
       st.sampled_from([{"x": (0.0, 1.0)},
                        {"x": (-1, 2), "t": (0.5, 1.5), "u": (-2.0, 2.0)}]),
       st.integers(0, 10**4), st.sampled_from([1e-9, 1e-300, 0.5, math.inf]))
@settings(max_examples=200, deadline=None)
def test_constant_is_decided_as_the_cloud_decides_it(c, box, seed, tol):
    # no cloud: the residual |c| / max(1, |c|) at point 0, as the pointwise
    # reference gives it (or its error, for a constant beyond the floats)
    _cloud.cache_clear()
    try:
        expected = repr(_reference_zero_test(Const(c), box, 7, tol, seed))
    except OverflowError as err:
        with pytest.raises(OverflowError, match=str(err)):
            is_zero_sampled(Const(c), box, n=7, tol=tol, seed=seed)
    else:
        got = is_zero_sampled(Const(c), box, n=7, tol=tol, seed=seed)
        assert repr(got) == expected
    assert _cloud.cache_info().misses == 0


def test_cached_cloud_gives_the_cold_result():
    e, box = parse("sin(x)*cos(t) - x/3"), {"x": (0.0, 1.0), "t": (-1.0, 2.0)}
    _cloud.cache_clear()
    cold = is_zero_sampled(e, box, n=30, seed=5)
    warm = is_zero_sampled(e, box, n=30, seed=5)
    info = _cloud.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert warm == cold and repr(warm) == repr(cold)


def test_cached_cloud_is_both_passes_and_read_only():
    box = {"x": (0.0, 1.0), "t": (-1.0, 2.0)}
    cols = _cloud(tuple(sorted(box.items())), 30, 5)
    coarse = sample_box(box, 30, 5)
    fine = sample_box(box, 60, 5 + _SECOND_PASS_SHIFT)
    for name in box:
        assert cols[name].tolist() == (coarse[name].tolist()
                                       + fine[name].tolist())
        with pytest.raises(ValueError):
            cols[name][0] = 0.5
    with pytest.raises(TypeError):
        cols["x"] = coarse["x"]


def test_cloud_cache_keys_on_box_n_and_seed():
    box = (("t", (-1.0, 2.0)), ("x", (0.0, 1.0)))
    ref = _cloud(box, 30, 5)
    for other in (_cloud((("t", (-1.0, 2.0)), ("x", (0.0, 1.5))), 30, 5),
                  _cloud(box, 31, 5), _cloud(box, 30, 6)):
        assert other is not ref
        assert any(other[k].tolist() != ref[k].tolist() for k in ref)


def test_sample_box_is_deterministic_and_inside():
    pts = _points(sample_box({"x": (0, 1), "t": (2, 3)}, 50, seed=3))
    assert pts == _points(sample_box({"x": (0, 1), "t": (2, 3)}, 50, seed=3))
    assert all(0 <= p["x"] <= 1 and 2 <= p["t"] <= 3 for p in pts)


@pytest.mark.parametrize("seed", [0, 3, 7919, -4])
def test_sample_box_matches_scalar_halton(seed):
    # every coordinate bit for bit as the scalar radical-inverse loop gives it,
    # in sorted-name dimension order; a negative seed (whose indices below 1
    # would all map to the lower bound) is refused
    box = {"u": (-2.0, 2.0), "t": (0.5, 1.5), "x": (0, 1)}
    if seed < 0:
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_box(box, 60, seed)
        return
    cols = sample_box(box, 60, seed)
    assert list(cols) == ["t", "u", "x"]
    for name, base in zip(cols, (2, 3, 5)):
        lo, hi = box[name]
        expected = [lo + _radical_inverse(seed + i, base) * (hi - lo)
                    for i in range(1, 61)]
        assert cols[name].tolist() == expected


def test_nonvanishing_constant_is_decided_without_a_cloud(monkeypatch):
    box = {"t": (0.0, 1.0), "x": (-1.0, 2.0)}
    first = _points(sample_box(box, 1, 0))[0]
    where = ", ".join(f"{k} = {v:.6g}" for k, v in first.items())
    built = []

    def counting_sample_box(*args):
        built.append(args)
        return sample_box(*args)

    monkeypatch.setattr(sampling_module, "sample_box", counting_sample_box)
    for c in (1, -3, 1e-12, -1e-12, 2.5, Fraction(1, 10**11)):
        check_nonvanishing(Const(c), box, "phi")
    assert built == []
    # a constant below the floor still fails at the box's first point
    for c in (0, 0.0, -0.0, 1e-13, Fraction(-1, 10**400)):
        with pytest.raises(ValueError) as err:
            check_nonvanishing(Const(c), box, "phi")
        assert str(err.value) == f"phi vanishes near {where}"
    # anything else is sampled as before
    check_nonvanishing(Add((Var("x"), Const(2))), box, "x + 2")
    assert len(built) == 6


def test_negative_seed_is_refused():
    # a negative seed clipped every Halton index below 1 to the box's lower
    # corner, where x vanishes: a false PASS
    box = {"x": (0, 1), "t": (0, 1)}
    for e in (parse("x"), Const(0)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            is_zero_sampled(e, box, seed=-10**6)
    # so is one whose last Halton index (the second pass: seed + 7919 + 2n)
    # does not fit an int64
    last = 2**63 - 1 - _SECOND_PASS_SHIFT - 2 * 100
    for e in (parse("x"), Const(0)):
        assert not is_zero_sampled(e + 1, box, seed=last).passed
        with pytest.raises(ValueError, match="seed must be an integer"):
            is_zero_sampled(e, box, seed=last + 1)


def test_num_uses_shortest_decimal():
    assert num(0.1) == Const(Fraction(1, 10))
    assert num(2) == Const(Fraction(2))
