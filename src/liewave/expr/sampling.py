"""Quasi-random sampling and the project-wide numeric zero test.

Zero-testing is sampling, never symbolic proof: residuals here mix exp/sin
compositions for which canonical forms are infeasible.  An expression
passes when, at every sample point, |e| <= tol * max(1, scale) with scale
the largest magnitude among e's top-level additive terms at that point.
Points come from a Halton sequence (deterministic; the seed is an index
offset), drawn at two densities (n and 2n points) so a lucky coarse cloud
cannot hide a nonzero residual.  The two-density cloud depends only on the
box, n and the seed; it is computed once per process (a small LRU cache)
and shared read-only by every zero test that asks for it again, so the
three determining residuals of one generator sample a single cloud.  A
residual whose canonical form is a constant has one value at every point,
so it is decided without a cloud, with the ZeroSample the cloud would give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .calculus import EvalError, eval_checked, eval_numeric
from .nodes import Add, Const, Expr
from .simplify import simplify

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# offset between the two sampling passes, so they draw disjoint clouds
_SECOND_PASS_SHIFT = 7919

_LAST_INDEX = int(np.iinfo(np.int64).max)


def _check(box, n: int, seed: int) -> None:
    """Halton indices seed+1 .. seed+n must be positive int64 values (a
    negative seed would repeat index 0, the box's lower corner), and each
    dimension needs a prime base."""
    if not 0 <= seed <= _LAST_INDEX - n:
        raise ValueError(f"seed must be an integer in [0, 2**63 - 1 - {n}]"
                         f" for {n} points, got {seed}")
    if len(box) > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")


def sample_box(box, n: int, seed: int = 0):
    """n quasi-random points inside an axis-aligned box {name: (lo, hi)},
    as columns {name: array}: Halton points seed+1 .. seed+n.

    Dimension order follows sorted names so the point cloud does not depend
    on dict insertion order.  Each coordinate is the radical inverse of the
    point index in that dimension's prime base, digit by digit.  A negative
    seed, or one whose last index does not fit an int64, is a ValueError.
    """
    _check(box, n, seed)
    out = {}
    for name, base in zip(sorted(box), _PRIMES):
        index = np.arange(seed + 1, seed + n + 1)
        unit = np.zeros(n)
        scale = 1.0 / base
        while index.any():
            unit += (index % base) * scale
            index //= base
            scale /= base
        lo, hi = box[name]
        out[name] = lo + unit * (hi - lo)
    return out


@functools.lru_cache(maxsize=16)
def _cloud(box_items: tuple, n: int, seed: int) -> MappingProxyType:
    """The zero test's two-density cloud on the box given by its sorted
    (name, (lo, hi)) items: n points from seed, then 2n from seed +
    _SECOND_PASS_SHIFT.  Every caller gets the same object, so it is
    read-only: a mapping proxy over read-only arrays."""
    box = dict(box_items)
    coarse = sample_box(box, n, seed)
    fine = sample_box(box, 2 * n, seed + _SECOND_PASS_SHIFT)
    cols = {k: np.concatenate((coarse[k], fine[k])) for k in coarse}
    for column in cols.values():
        column.flags.writeable = False
    return MappingProxyType(cols)


def _first_point(box, seed: int) -> dict:
    """Point 0 of every cloud drawn from seed (Halton index seed + 1), with
    sample_box's float operations on Python scalars, which cost far less
    than its array loop does for one point."""
    point = {}
    for name, base in zip(sorted(box), _PRIMES):
        index, unit, scale = seed + 1, 0.0, 1.0 / base
        while index:
            unit += (index % base) * scale
            index //= base
            scale /= base
        lo, hi = box[name]
        point[name] = float(lo + unit * (hi - lo))
    return point


def _point(cols, i: int) -> dict:
    """Point i of a column cloud, as name -> float."""
    return {k: float(v[i]) for k, v in cols.items()}


@dataclass(frozen=True)
class ZeroSample:
    """Outcome of is_zero_sampled: verdict plus the worst witness point."""

    passed: bool
    max_residual: float            # max over points of |e| / max(1, scale)
    witness: dict = field(default_factory=dict)
    witness_value: float = 0.0     # raw |e| at the witness
    failure: str = ""              # evaluation error message, if any

    def __bool__(self):
        return self.passed


def check_nonvanishing(e: Expr, box, what: str):
    """Raise ValueError at the first of 100 sampled points (seed 0) where
    |e| < 1e-12, or eval_numeric's EvalError should e be undefined there
    first."""
    if isinstance(e, Const) and abs(float(e.value)) >= 1e-12:
        return  # the same value at every point: no cloud to build
    cols = sample_box(box, 100, 0)
    values, failed = eval_checked(e, cols)
    hit = failed | (np.abs(values) < 1e-12)
    if hit.any():
        i = int(np.argmax(hit))
        p = _point(cols, i)
        if failed[i]:
            eval_numeric(e, p)  # raises there
        where = ", ".join(f"{k} = {v:.6g}" for k, v in p.items())
        raise ValueError(f"{what} vanishes near {where}")


def is_zero_sampled(e: Expr, box, *, n: int = 100, tol: float = 1e-9,
                    seed: int = 0) -> ZeroSample:
    """Decide whether `e` vanishes identically on the box, by sampling.

    The scale in |e| <= tol * max(1, scale) is taken over the top-level
    terms of simplify(e), which does not expand products: for a
    determining residual they are the named terms of the determining
    equation (phi*A_t, xi*A_x, ...), not the monomials of its expansion.
    A math-domain error at a sample point counts as a failure and is
    reported through the witness: the first point, in cloud order, at
    which eval_numeric raises.  A constant canonical form c is decided
    without a cloud: its residual is |c| / max(1, |c|) at every point, and
    its witness is point 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, (lo, hi) in box.items():
        if not hi > lo:
            raise ValueError(f"degenerate box interval for {name!r}")
    canon = simplify(e)
    if isinstance(canon, Const):
        _check(box, n, seed)  # as the cloud's two passes would
        _check(box, 2 * n, seed + _SECOND_PASS_SHIFT)
        magnitude = abs(float(canon.value))
        residual = magnitude / max(1.0, magnitude)
        return ZeroSample(residual <= tol, residual, _first_point(box, seed),
                          magnitude)
    terms = canon.terms if isinstance(canon, Add) else (canon,)
    cols = _cloud(tuple(sorted((k, tuple(v)) for k, v in box.items())), n,
                  seed)
    # all terms in one evaluation, so a subtree they share is evaluated
    # once; value = their left-to-right sum, as canon evaluates
    values, failed = eval_checked(terms, cols)
    value = values[0]
    scale = np.abs(value)
    for v in values[1:]:
        with np.errstate(all="ignore"):  # inf - inf is a failed point
            value = value + v
        scale = np.maximum(scale, np.abs(v))
    failed |= ~np.isfinite(value)
    if failed.any():
        p = _point(cols, int(np.argmax(failed)))
        try:
            eval_numeric(canon, p)
        except EvalError as err:
            return ZeroSample(False, float("inf"), dict(p), float("nan"), str(err))
    magnitude = np.abs(value)
    residual = magnitude / np.maximum(1.0, scale)
    i = int(np.argmax(residual))
    max_residual = float(residual[i])
    return ZeroSample(max_residual <= tol, max_residual, _point(cols, i),
                      float(magnitude[i]))
