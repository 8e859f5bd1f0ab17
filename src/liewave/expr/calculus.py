"""Symbolic differentiation, simultaneous substitution, and the one numeric
evaluator behind eval_numeric, eval_checked and eval_on_grid."""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .nodes import (
    Add, Call, Const, Expr, FUNCTIONS, MINUS_ONE, Mul, Neg, ONE, Pow, Var,
    ZERO, children, coerce, to_text,
)
from .simplify import (
    _add, _call, _mark, _mul, _negate, _pow, derived, planned, simplify,
)

class EvalError(ValueError):
    """Numeric evaluation failure; carries the offending subtree."""

    def __init__(self, message: str, expr: Expr):
        self.expr = expr
        super().__init__(f"{message} in {to_text(expr)}")


def diff(e: Expr, var: str) -> Expr:
    """Exact derivative with respect to `var`, in canonical form, built in
    one pass: each rule hands canonical children to simplify's own
    constructors, the calls simplify would make on the raw derivative
    tree, and marks each branch node it builds as simplify marks its
    results, so the result is that of simplify(raw derivative) and no raw
    derivative node is built.  Inside memo_scope() the derivative of each
    branch tree is computed once per variable, and an equal tree gets it
    back."""
    return _diff(e, var, derived(var))


def _diff(e: Expr, var: str, memo):
    """Canonical derivative, or the ZERO node itself where it is
    structurally zero: a constant, another variable, or a node none of
    whose children depend on `var`.  The product rule writes no term for a
    factor whose derivative is ZERO; each such term would be a product
    with a 0 factor, which _mul folds to 0, so the sum is the same without
    them.  memo is the scope's table for `var`, tree -> derivative, or
    None."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if memo is not None:
        d = memo.get(e)
        if d is not None:
            return d
    d = _rule(e, var, memo)
    if memo is not None:
        memo[e] = d
    return d


def _rule(e: Expr, var: str, memo):
    """The derivative rule for branch node e: the derivatives of its
    children come from _diff, a factor the rule keeps as it is goes
    through simplify (at once for a marked tree), and each node the rule
    builds from them is canonical."""
    if isinstance(e, Add):
        terms = tuple(d for d in (_diff(t, var, memo) for t in e.terms)
                      if d is not ZERO)
        return _mark(_add(terms)) if terms else ZERO
    if isinstance(e, Neg):
        d = _diff(e.child, var, memo)
        return ZERO if d is ZERO else _mark(_negate(d))
    if isinstance(e, Mul):
        ds = [_diff(f, var, memo) for f in e.factors]
        if all(d is ZERO for d in ds):
            return ZERO
        fs = tuple(map(simplify, e.factors))
        return _mark(_add(tuple(
            _mark(_mul(fs[:i] + (d,) + fs[i + 1:]))
            for i, d in enumerate(ds) if d is not ZERO)))
    if isinstance(e, Pow):
        b, x = e.base, e.exponent
        db, dx = _diff(b, var, memo), _diff(x, var, memo)
        if isinstance(x, Const):
            if db is ZERO:
                return ZERO
            power = _mark(_pow(simplify(b), Const(x.value - 1)))
            return _mark(_mul((x, power, db)))
        if isinstance(b, Const):
            if dx is ZERO:
                return ZERO
            return _mark(_mul((simplify(e), _mark(_call("log", b)), dx)))
        # general exponent: b^x * (x' log b + x b'/b)
        terms = []
        if dx is not ZERO:
            terms.append(_mark(_mul((dx, _mark(_call("log", simplify(b)))))))
        if db is not ZERO:
            terms.append(_mark(_mul((simplify(x), db,
                                     _mark(_pow(simplify(b), MINUS_ONE))))))
        if not terms:
            return ZERO
        return _mark(_mul((simplify(e), _mark(_add(tuple(terms))))))
    if isinstance(e, Call):
        du = _diff(e.arg, var, memo)
        if du is ZERO:
            return ZERO
        if e.fn == "exp":
            return _mark(_mul((simplify(e), du)))
        u = simplify(e.arg)
        if e.fn == "log":
            return _mark(_mul((du, _mark(_pow(u, MINUS_ONE)))))
        if e.fn == "sin":
            return _mark(_mul((_mark(_call("cos", u)), du)))
        if e.fn == "cos":
            return _mark(_negate(_mark(_mul((_mark(_call("sin", u)), du)))))
        if e.fn == "sqrt":
            twice = _mark(_mul((Const(2), simplify(e))))
            return _mark(_mul((du, _mark(_pow(twice, MINUS_ONE)))))
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, bindings) -> Expr:
    """Simultaneous substitution; unbound variables pass through unchanged.

    Binding values may be Expr or plain numbers.  The result is not
    simplified.
    """
    table = {name: coerce(value) for name, value in bindings.items()}
    return _sub(e, table) if table else e


def _sub(e: Expr, table) -> Expr:
    if isinstance(e, Var):
        return table.get(e.name, e)
    if isinstance(e, Const):
        return e
    kids = [_sub(c, table) for c in children(e)]
    if isinstance(e, (Add, Mul)):
        return type(e)(tuple(kids))
    return Call(e.fn, *kids) if isinstance(e, Call) else type(e)(*kids)


def eval_numeric(e: Expr, bindings) -> float:
    """IEEE-double evaluation under name -> float bindings.  Raises
    EvalError naming the first subtree, in evaluation order, undefined at
    the point (unbound variable, log/sqrt/power domain violation, overflow),
    or all of `e` when the result is otherwise non-finite."""
    env = {name: float(value) for name, value in bindings.items()}
    with np.errstate(all="ignore"):
        v = float(_ev(e, env, _raise, _shared((e,))))
    if not math.isfinite(v):
        raise EvalError("non-finite result", e)
    return v


def eval_on_grid(e, bindings):
    """Lenient vectorized evaluation: bindings map names to arrays or
    scalars (numpy broadcasting applies).  Domain violations surface as
    non-finite entries, which callers must check.  Given a tuple of
    expressions, returns the tuple of their values; a subtree they share
    is evaluated once."""
    roots = e if isinstance(e, tuple) else (e,)
    memo = _shared(roots)
    with np.errstate(all="ignore"):
        values = tuple(np.asarray(_ev(c, bindings, None, memo), dtype=float)
                       for c in roots)
    return values if isinstance(e, tuple) else values[0]


def eval_checked(e, bindings):
    """Strict vectorized evaluation: (values, failed), both broadcast to the
    bindings' common shape.  failed is True exactly at the points where
    eval_numeric raises; values there are meaningless.  Given a tuple of
    expressions, values is the tuple of their values and failed the one
    mask of the points where any of them fails; a subtree they share is
    evaluated, and checked, once.  No value outlives the call."""
    roots = e if isinstance(e, tuple) else (e,)
    failed = np.zeros(np.broadcast(*bindings.values()).shape, dtype=bool)

    def note(mask, message, node):
        np.logical_or(failed, mask, out=failed)

    memo = _shared(roots)
    values = []
    with np.errstate(all="ignore"):
        for root in roots:
            try:
                v = _ev(root, bindings, note, memo)
            except EvalError:  # an unbound variable fails at every point
                v = np.nan
            v = np.broadcast_to(v, failed.shape)
            failed |= ~np.isfinite(v)
            values.append(v)
    return (tuple(values) if isinstance(e, tuple) else values[0]), failed


def _raise(mask, message, node):
    if mask:
        raise EvalError(message, node)


def _shared(roots: tuple) -> dict:
    """The memo for one evaluation of `roots`: a slot, keyed by the tree,
    for each branch tree that occurs more than once under the roots; equal
    trees built apart share it.  Only values that are asked for again are
    kept, and only for the call.  Inside memo_scope() the walk that finds
    these trees is made once per root tuple: its plan, the trees without
    values, is kept for the job, and each call starts from a fresh copy."""
    plans = planned()
    plan = plans.get(roots)
    if plan is None:
        seen, plan = set(), {}
        stack = list(roots)
        while stack:
            e = stack.pop()
            if isinstance(e, (Const, Var)):
                continue
            if e in seen:
                plan[e] = None
                continue
            seen.add(e)
            stack.extend(children(e))
        plans[roots] = plan
    return dict.fromkeys(plan)


def _ev(e: Expr, env, fail, memo):
    """The walker behind every entry point.  Values are floats or float
    arrays.  fail(mask, message, node) is told where a node is undefined, in
    evaluation order; with fail None nothing is checked.  memo is the
    call's _shared memo: a node with a slot there is evaluated, and
    reported to fail, once; its value fills the slot and is handed to each
    later parent in the same call.

    A Pow or Call builds its masks only where its value has a non-finite
    entry.  That is exact: every masked failure makes the value there
    non-finite (0^negative is +-inf, a negative finite base to a finite
    non-integer power nan, log of 0 -inf and of a negative nan, sqrt of a
    negative nan, overflow inf), so on an all-finite value every mask is
    all-false and fail would be told nothing."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Add):
        v = reduce(operator.add, [_ev(t, env, fail, memo) for t in e.terms])
    elif isinstance(e, Mul):
        v = reduce(operator.mul, [_ev(f, env, fail, memo) for f in e.factors])
    elif isinstance(e, Neg):
        v = -_ev(e.child, env, fail, memo)
    elif isinstance(e, Pow):
        base = _ev(e.base, env, fail, memo)
        expo = _ev(e.exponent, env, fail, memo)
        v = np.power(base, expo)
        if fail is not None and not np.isfinite(v).all():
            finite = np.isfinite(base) & np.isfinite(expo)
            fail((base == 0) & (expo < 0), "zero raised to a negative power", e)
            fail(finite & (base < 0) & (expo != np.floor(expo)),
                 "negative base raised to a non-integer power", e)
            fail(finite & ~np.isfinite(v), "overflow", e)
    elif isinstance(e, Call):
        arg = _ev(e.arg, env, fail, memo)
        v = FUNCTIONS[e.fn](arg)
        if fail is not None and not np.isfinite(v).all():
            if e.fn == "log":
                fail(arg <= 0, "log of a nonpositive value", e)
            elif e.fn == "sqrt":
                fail(arg < 0, "sqrt of a negative value", e)
            fail(np.isfinite(arg) & ~np.isfinite(v), "overflow", e)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    if e in memo:
        memo[e] = v
    return v
