"""Terminating rewrite of trees into a canonical form.

Rules: constant folding (exact on rationals, float contagious), x+0 -> x,
x*1 -> x, x*0 -> 0, x^1 -> x, x^0 -> 1, 1^x -> 1, exp(log(x)) -> x (also
inside a sum argument), flatten and sort Add/Mul under a fixed total order,
merge like terms with rational coefficients, hoist signs so a canonical Mul
has at most one leading positive constant.

This is a single bottom-up pass over the tree, so it terminates trivially;
idempotence (simplify . simplify == simplify) is covered by property tests,
and it is what lets simplify return a tree it has returned before as it is.
It is NOT a canonical form for transcendental identities — numeric sampling
is the project's zero test.

simplify is for input: parsed text and substituted trees.  Every tree the
program builds itself is built canonical, with no raw node to walk again:
- `calculus.diff` hands canonical pieces to the constructors below;
- `Canon`, a handle whose + - * / ** and unary - do the same for the
  residuals, relations and coefficients built from canonical pieces;
- `_expand`, whose every result is canonical, so expand ends there.
Each marks what it builds (`_mark`) and gives what simplify would give the
raw tree, association included.

Three things spare simplify work it has done before:
- the canonical mark: a tree simplify has returned has its _canon slot
  True (every branch node's slot starts False), and is handed back at
  once.  It costs one read, needs no table and holds everywhere.
- the canonical nodes it is handed: a term or factor that merges with no
  other, and a product whose sign flips, keep their node (with its cached
  hash, sort key and mark) instead of being rebuilt equal.
- the memo, live only inside `memo_scope()`, which `cli.main` enters once
  around a command: it maps each branch tree simplify has canonicalized to
  the result, so an equal tree built anew as another object (which the
  mark cannot see) is not simplified again.

The scope holds such a table for `_expand` too, and one per variable for
`calculus.diff`, which holds each tree's canonical derivative.
All three key a tree on its exact structure (`_Exact`): the
cached hash, with equality of `nodes.sort_key`, which tells Const(0.5) from
Const(Fraction(1, 2)) and 0.0 from -0.0 where == does not.  They start and
end empty with the scope, so a job shares no tree with another job, and
outside a scope nothing is memoized at all.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import numpy as np

from .nodes import (
    Add, Call, Const, Expr, FUNCTIONS, MINUS_ONE, Mul, Neg, ONE, Pow, Var,
    ZERO, _Branch, _set_canon, coerce, sort_key,
)


# inside memo_scope() only, else None:
_memo = None      # _Exact(tree) -> canonical form
_expanded = None  # _Exact(tree) -> _expand(tree)
_derived = None   # var -> {_Exact(tree) -> diff(tree, var)}


class _Exact:
    """A tree as a memo key: equal to another only if their sort keys are
    equal, i.e. the same tree down to each constant's type and sign."""

    __slots__ = ("tree",)

    def __init__(self, tree: Expr):
        self.tree = tree

    def __hash__(self):
        return hash(self.tree)  # cached per node; equal sort keys hash equal

    def __eq__(self, other):
        return sort_key(self.tree) == sort_key(other.tree)


@contextlib.contextmanager
def memo_scope():
    """Memoize simplify, expand and diff for the duration of the block (one
    CLI job); the tables are dropped on exit, also when the block raises."""
    global _memo, _expanded, _derived
    _memo, _expanded, _derived = {}, {}, {}
    try:
        yield
    finally:
        _memo = _expanded = _derived = None


def derived(var: str):
    """The scope's table for `calculus.diff` by `var`, or None."""
    return None if _derived is None else _derived.setdefault(var, {})


def simplify(e: Expr) -> Expr:
    """Canonical form of e.  Every branch node returned is marked (its
    _canon slot set True), and a marked argument is returned as it is: by
    idempotence it is already its own canonical form.  Inside memo_scope()
    a tree equal to one already simplified there gets the same result
    back."""
    if not isinstance(e, _Branch):
        if isinstance(e, (Const, Var)):
            return e
        raise TypeError(f"not an Expr: {e!r}")
    if e._canon:
        return e
    memo = _memo
    if memo is not None:
        key = _Exact(e)
        out = memo.get(key)
        if out is not None:
            return out
    if isinstance(e, Add):
        out = _add(tuple(simplify(t) for t in e.terms))
    elif isinstance(e, Mul):
        out = _mul(tuple(simplify(f) for f in e.factors))
    elif isinstance(e, Pow):
        out = _pow(simplify(e.base), simplify(e.exponent))
    elif isinstance(e, Neg):
        out = _negate(simplify(e.child))
    else:
        out = _call(e.fn, simplify(e.arg))
    _mark(out)
    if memo is not None:
        memo[key] = out
    return out


def _mark(e: Expr) -> Expr:
    """e, marked canonical if it is a branch node, as simplify returns it."""
    if isinstance(e, _Branch):
        _set_canon(e, True)
    return e


def _canon(o) -> Expr:
    """The canonical form of an operand; a marked tree or a leaf is its
    own, without a call."""
    if isinstance(o, Canon):
        return o.e
    o = coerce(o)
    return o if isinstance(o, (Const, Var)) or o._canon else simplify(o)


def _handle(e: Expr) -> "Canon":
    h = object.__new__(Canon)
    h.e = _mark(e)
    return h


class Canon:
    """A canonical tree `e` under arithmetic.  Each operator hands the
    canonical forms of its operands (a Canon, an Expr or a number) to the
    constructor simplify calls on the raw node the same operator of Expr
    builds, so (Canon(a) * b - c).e is simplify(a * b - c), and no raw
    node is built.  An expression keeps its left-to-right association."""

    __slots__ = ("e",)

    def __init__(self, e):
        self.e = _canon(e)

    def __add__(self, o):
        return _handle(_add((self.e, _canon(o))))

    def __radd__(self, o):
        return _handle(_add((_canon(o), self.e)))

    def __sub__(self, o):
        return _handle(_add((self.e, _mark(_negate(_canon(o))))))

    def __rsub__(self, o):
        return _handle(_add((_canon(o), _mark(_negate(self.e)))))

    def __mul__(self, o):
        return _handle(_mul((self.e, _canon(o))))

    def __rmul__(self, o):
        return _handle(_mul((_canon(o), self.e)))

    def __truediv__(self, o):
        return _handle(_mul((self.e, _mark(_pow(_canon(o), MINUS_ONE)))))

    def __rtruediv__(self, o):
        return _handle(_mul((_canon(o), _mark(_pow(self.e, MINUS_ONE)))))

    def __pow__(self, o):
        return _handle(_pow(self.e, _canon(o)))

    def __neg__(self):
        return _handle(_negate(self.e))


def _negate(e: Expr) -> Expr:
    """Negation of an already-canonical expression."""
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    if isinstance(e, Add):
        return _add(tuple(_negate(t) for t in e.terms))
    # a canonical product's constant is positive, and Neg of it is
    # canonical; only a product built otherwise is folded again
    lead = e.factors[0] if isinstance(e, Mul) else None
    if isinstance(lead, Const) and not lead.value > 0:
        return _mul((Const(-lead.value),) + e.factors[1:])
    return Neg(e)


def _split_term(e: Expr):
    """Decompose a canonical Add child into (coefficient, factor tuple).

    The factor tuple is () for pure constants; the coefficient is exact
    unless floats are involved.
    """
    if isinstance(e, Neg):
        c, rest = _split_term(e.child)
        return -c, rest
    if isinstance(e, Const):
        return e.value, ()
    if isinstance(e, Mul):
        if isinstance(e.factors[0], Const):
            return e.factors[0].value, e.factors[1:]
        return 1, e.factors
    return 1, (e,)


def _join_term(coeff, rest: tuple) -> Expr:
    if not rest:
        return Const(coeff)
    if coeff == 1:
        return rest[0] if len(rest) == 1 else Mul(rest)
    if coeff == -1:
        return Neg(rest[0] if len(rest) == 1 else Mul(rest))
    body = Mul((Const(abs(coeff)),) + rest)
    return Neg(body) if coeff < 0 else body


def _add(terms: tuple) -> Expr:
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    # factor tuple -> [coefficient, the term while it is the only one]
    groups = {}
    for t in flat:
        coeff, rest = _split_term(t)
        new = [coeff, t]
        entry = groups.setdefault(rest, new)
        if entry is not new:
            entry[0] += coeff
            entry[1] = None
    merged = [(tuple(map(sort_key, rest)), rest, c, t)
              for rest, (c, t) in groups.items() if c != 0]
    merged.sort(key=lambda item: (len(item[1]) > 0, item[0]))
    # a term that merged with no other is canonical already: keep its node
    out = tuple(_join_term(c, rest) if t is None else t
                for _, rest, c, t in merged)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(out)


def _split_factor(f: Expr):
    """Base and integer exponent of a canonical Mul child; None when the
    exponent is not an exact integer (those factors never merge)."""
    if isinstance(f, Pow) and isinstance(f.exponent, Const):
        v = f.exponent.value
        return (f.base, v) if type(v) is int else None
    return f, 1


def _mul(factors: tuple) -> Expr:
    # the first constant is taken as it is, not multiplied into an exact 1:
    # 1 * v is v for an int, a Fraction and a float (-0.0 too).  None marks
    # "no constant yet": a computed int 1 may be the very object a unit
    # constant would be, so no number can serve as that mark
    coeff = None
    negative = False
    raw = []
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Neg):
            negative = not negative
            stack.append(f.child)
        elif isinstance(f, Const):
            coeff = f.value if coeff is None else coeff * f.value
        else:
            raw.append(f)
    if coeff is None:
        coeff = 1
    elif coeff == 0:
        return ZERO
    elif coeff < 0:
        negative = not negative
        coeff = -coeff
    # merge repeated bases with integer exponents: x * x^2 -> x^3
    powers = {}   # base -> [exponent sum, its factor while it is the only one]
    rest = []
    for f in raw:
        split = _split_factor(f)
        if split is None:
            rest.append(f)
            continue
        base, expo = split
        new = [expo, f]
        entry = powers.setdefault(base, new)
        if entry is not new:
            entry[0] += expo
            entry[1] = None
    for base, (expo, f) in powers.items():
        if f is not None and not isinstance(base, (Const, Mul)):
            # a lone factor is already canonical: keep the node (and its
            # cached hash, sort key and mark) instead of rebuilding it
            rest.append(f)
            continue
        merged = _pow(base, Const(expo))
        if isinstance(merged, Const):
            coeff = coeff * abs(merged.value)
            if merged.value < 0:
                negative = not negative
            continue
        if isinstance(merged, Neg):
            negative = not negative
            merged = merged.child
        rest.append(merged)
    if coeff == 0:
        return ZERO
    if any(isinstance(r, Mul) for r in rest):
        # an exponent sum collapsed to 1 and uncovered a product: reflatten
        out = _mul(tuple([Const(coeff)] + rest))
        return _negate(out) if negative else out
    rest.sort(key=sort_key)
    if not rest:
        body = Const(coeff)
        return Const(-coeff) if negative else body
    if coeff != 1:
        rest.insert(0, Const(coeff))
    body = rest[0] if len(rest) == 1 else Mul(tuple(rest))
    if not negative:
        return body
    # a negated sum is distributed, as simplify(Neg(sum)) does
    return _negate(body) if isinstance(body, Add) else Neg(body)


def _pow(base: Expr, exponent: Expr) -> Expr:
    if isinstance(exponent, Const):
        if exponent.value == 0:
            return ONE
        if exponent.value == 1:
            return base
        if isinstance(base, Const):
            folded = _fold_pow(base.value, exponent.value)
            if folded is not None:
                return folded
    if base == ONE:
        return ONE
    return Pow(base, exponent)


def _fold_pow(bv, ev):
    if not isinstance(bv, float) and not isinstance(ev, float):
        if type(ev) is int and abs(ev) <= 128:
            if ev >= 0:
                return Const(bv**ev)
            if bv == 0:
                return None  # 0^negative: defer to evaluation error
            # an int to a negative power is a float; a Fraction's is exact
            return Const(Fraction(bv) ** ev)
        return None
    # float contagion
    b, x = float(bv), float(ev)
    try:
        v = math.pow(b, x)
    except (ValueError, OverflowError):
        return None
    return Const(v) if math.isfinite(v) else None


def expand(e: Expr) -> Expr:
    """Distribute products over sums, in canonical form.

    Not part of simplify's rule set (expansion can grow trees); used where
    collecting coefficients of jet monomials needs a sum of monomials.
    Negative or symbolic powers are left alone.
    """
    return _expand(simplify(e), _expanded)


def _expand(e: Expr, memo) -> Expr:
    """Expansion of canonical e, built canonical and marked: each node
    comes from simplify's constructors on canonical pieces.  memo is the
    scope's table (see the module docstring) or None."""
    if isinstance(e, (Const, Var)):
        return e
    if memo is not None:
        key = _Exact(e)
        out = memo.get(key)
        if out is not None:
            return out
    if isinstance(e, Add):
        out = _add(tuple(_expand(t, memo) for t in e.terms))
    elif isinstance(e, Neg):
        out = _negate(_expand(e.child, memo))
    elif isinstance(e, Call):
        out = _call(e.fn, _expand(e.arg, memo))
    elif isinstance(e, Pow):
        base = _expand(e.base, memo)
        expo = _expand(e.exponent, memo)
        if (isinstance(base, Add) and isinstance(expo, Const)
                and type(expo.value) is int and 2 <= expo.value <= 8):
            out = base
            for _ in range(expo.value - 1):
                out = _distribute((out, base))
        else:
            out = _pow(base, expo)
    elif isinstance(e, Mul):
        out = _distribute(tuple(_expand(f, memo) for f in e.factors))
    else:
        raise TypeError(f"not an Expr: {e!r}")
    _mark(out)
    if memo is not None:
        memo[key] = out
    return out


def _distribute(factors: tuple) -> Expr:
    if not any(isinstance(f, Add) for f in factors):
        return _mul(factors)
    combos = [()]
    for f in factors:
        terms = f.terms if isinstance(f, Add) else (f,)
        combos = [c + (t,) for c in combos for t in terms]
    return _add(tuple(_mark(_mul(c)) for c in combos))


_EXACT_CALL = {
    ("exp", 0): ONE,
    ("log", 1): ZERO,
    ("sin", 0): ZERO,
    ("cos", 0): ONE,
    ("sqrt", 0): ZERO,
    ("sqrt", 1): ONE,
}


def _call(fn: str, arg: Expr) -> Expr:
    if fn == "exp":
        if isinstance(arg, Call) and arg.fn == "log":
            return arg.arg
        if isinstance(arg, Add):
            # split plain log summands: exp(log(y) + rest) -> y * exp(rest)
            logs = [t for t in arg.terms if isinstance(t, Call) and t.fn == "log"]
            if logs:
                others = tuple(t for t in arg.terms if t not in logs)
                pulled = tuple(t.arg for t in logs)
                if others:
                    return _mul(pulled + (Call("exp", _add(others)),))
                return _mul(pulled)
    if isinstance(arg, Const):
        if arg.is_exact:
            hit = _EXACT_CALL.get((fn, arg.value))
            if hit is not None:
                return hit
        else:
            with np.errstate(all="ignore"):
                v = float(FUNCTIONS[fn](arg.value))
            if math.isfinite(v):
                return Const(v)
    return Call(fn, arg)
