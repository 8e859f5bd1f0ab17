"""Symbolic differentiation, simultaneous substitution, and the one numeric
evaluator behind eval_numeric, eval_checked and eval_on_grid."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np

from .nodes import (
    Add, Call, Const, Expr, FUNCTIONS, Mul, Neg, Pow, Var, ZERO, coerce,
    to_text,
)
from .simplify import simplify


class EvalError(ValueError):
    """Numeric evaluation failure; carries the offending subtree."""

    def __init__(self, message: str, expr: Expr):
        self.expr = expr
        super().__init__(f"{message} in {to_text(expr)}")


def diff(e: Expr, var: str) -> Expr:
    """Exact derivative with respect to `var`, canonically simplified."""
    return simplify(_d(e, var))


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return Const(Fraction(1 if e.name == var else 0))
    if isinstance(e, Add):
        return Add(tuple(_d(t, var) for t in e.terms))
    if isinstance(e, Neg):
        return Neg(_d(e.child, var))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            terms.append(Mul(e.factors[:i] + (_d(f, var),) + e.factors[i + 1:]))
        return Add(tuple(terms))
    if isinstance(e, Pow):
        b, x = e.base, e.exponent
        if isinstance(x, Const):
            return Mul((x, Pow(b, Const(x.value - 1)), _d(b, var)))
        if isinstance(b, Const):
            return Mul((e, Call("log", b), _d(x, var)))
        # general exponent: b^x * (x' log b + x b'/b)
        return Mul((e, Add((Mul((_d(x, var), Call("log", b))),
                            Mul((x, _d(b, var), Pow(b, Const(Fraction(-1)))))))))
    if isinstance(e, Call):
        u, du = e.arg, _d(e.arg, var)
        if e.fn == "exp":
            return Mul((e, du))
        if e.fn == "log":
            return Mul((du, Pow(u, Const(Fraction(-1)))))
        if e.fn == "sin":
            return Mul((Call("cos", u), du))
        if e.fn == "cos":
            return Neg(Mul((Call("sin", u), du)))
        if e.fn == "sqrt":
            return Mul((du, Pow(Mul((Const(Fraction(2)), e)), Const(Fraction(-1)))))
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
    if isinstance(e, Add):
        return Add(tuple(_sub(t, table) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_sub(f, table) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_sub(e.base, table), _sub(e.exponent, table))
    if isinstance(e, Neg):
        return Neg(_sub(e.child, table))
    if isinstance(e, Call):
        return Call(e.fn, _sub(e.arg, table))
    raise TypeError(f"not an Expr: {e!r}")


def eval_numeric(e: Expr, bindings) -> float:
    """IEEE-double evaluation under name -> float bindings.  Raises
    EvalError naming the first subtree, in evaluation order, undefined at
    the point (unbound variable, log/sqrt/power domain violation, overflow),
    or all of `e` when the result is otherwise non-finite."""
    env = {name: float(value) for name, value in bindings.items()}
    with np.errstate(all="ignore"):
        v = float(_ev(e, env, _raise))
    if not math.isfinite(v):
        raise EvalError("non-finite result", e)
    return v


def eval_on_grid(e: Expr, bindings) -> np.ndarray:
    """Lenient vectorized evaluation: bindings map names to arrays or
    scalars (numpy broadcasting applies).  Domain violations surface as
    non-finite entries, which callers must check."""
    with np.errstate(all="ignore"):
        return np.asarray(_ev(e, bindings, None), dtype=float)


def eval_checked(e: Expr, bindings):
    """Strict vectorized evaluation: (values, failed), both broadcast to the
    bindings' common shape.  failed is True exactly at the points where
    eval_numeric raises; values there are meaningless."""
    failed = np.zeros(np.broadcast(*bindings.values()).shape, dtype=bool)

    def note(mask, message, node):
        np.logical_or(failed, mask, out=failed)

    with np.errstate(all="ignore"):
        try:
            values = _ev(e, bindings, note)
        except EvalError:  # an unbound variable fails at every point
            values = np.nan
    values = np.broadcast_to(values, failed.shape)
    failed |= ~np.isfinite(values)
    return values, failed


def _raise(mask, message, node):
    if mask:
        raise EvalError(message, node)


def _ev(e: Expr, env, fail):
    """The tree walker behind every entry point.  Values are floats or
    float arrays.  fail(mask, message, node) is told where a node is
    undefined, in evaluation order; with fail None nothing is checked."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Add):
        return reduce(operator.add, [_ev(t, env, fail) for t in e.terms])
    if isinstance(e, Mul):
        return reduce(operator.mul, [_ev(f, env, fail) for f in e.factors])
    if isinstance(e, Neg):
        return -_ev(e.child, env, fail)
    if isinstance(e, Pow):
        base, expo = _ev(e.base, env, fail), _ev(e.exponent, env, fail)
        v = np.power(base, expo)
        if fail is not None:
            finite = np.isfinite(base) & np.isfinite(expo)
            fail((base == 0) & (expo < 0), "zero raised to a negative power", e)
            fail(finite & (base < 0) & (expo != np.floor(expo)),
                 "negative base raised to a non-integer power", e)
            fail(finite & ~np.isfinite(v), "overflow", e)
        return v
    if isinstance(e, Call):
        arg = _ev(e.arg, env, fail)
        v = FUNCTIONS[e.fn](arg)
        if fail is not None:
            if e.fn == "log":
                fail(arg <= 0, "log of a nonpositive value", e)
            elif e.fn == "sqrt":
                fail(arg < 0, "sqrt of a negative value", e)
            fail(np.isfinite(arg) & ~np.isfinite(v), "overflow", e)
        return v
    raise TypeError(f"not an Expr: {e!r}")
