"""Quasi-random sampling and the project-wide numeric zero test.

Zero-testing is sampling, never symbolic proof: residuals here mix exp/sin
compositions for which canonical forms are infeasible.  An expression
passes when, at every sample point, |e| <= tol * max(1, scale) with scale
the largest magnitude among e's top-level additive terms at that point.
Points come from a Halton sequence (deterministic; the seed is an index
offset), drawn at two densities (n and 2n points) so a lucky coarse cloud
cannot hide a nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import EvalError, eval_checked, eval_numeric
from .nodes import Add, Expr
from .simplify import simplify

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# offset between the two sampling passes, so they draw disjoint clouds
_SECOND_PASS_SHIFT = 7919


def radical_inverse(index: int, base: int) -> float:
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        inv += (index % base) * scale
        index //= base
        scale /= base
    return inv


def halton_point(index: int, dims: int):
    if dims > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")
    return tuple(radical_inverse(index, _PRIMES[d]) for d in range(dims))


def sample_box(box, n: int, seed: int = 0):
    """n quasi-random points inside an axis-aligned box {name: (lo, hi)}.

    Dimension order follows sorted names so the point cloud does not depend
    on dict insertion order.
    """
    names = sorted(box)
    spans = [(box[k][0], box[k][1] - box[k][0]) for k in names]
    points = []
    for i in range(1, n + 1):
        unit = halton_point(seed + i, len(names))
        points.append({k: lo + u * width
                       for k, (lo, width), u in zip(names, spans, unit)})
    return points


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


def columns(points):
    """A list of name -> float points as name -> array columns."""
    return {k: np.array([p[k] for p in points]) for k in points[0]}


def max_abs_sampled(e: Expr, box, *, n: int = 100, seed: int = 0):
    """Plain max |e| over a sampled cloud; returns (max, argmax point).
    Evaluation errors propagate (use is_zero_sampled for tolerant checks)."""
    points = sample_box(box, n, seed)
    values, failed = eval_checked(e, columns(points))
    if failed.any():
        eval_numeric(e, points[int(np.argmax(failed))])  # raises there
    mags = np.abs(values)
    i = int(np.argmax(mags))
    return float(mags[i]), dict(points[i])


def check_nonvanishing(e: Expr, box, what: str, *, n: int = 100,
                       seed: int = 0):
    """Raise ValueError at the first sampled point where |e| < 1e-12, or
    eval_numeric's EvalError should e be undefined there first."""
    points = sample_box(box, n, seed)
    values, failed = eval_checked(e, columns(points))
    hit = failed | (np.abs(values) < 1e-12)
    if hit.any():
        i = int(np.argmax(hit))
        if failed[i]:
            eval_numeric(e, points[i])  # raises there
        where = ", ".join(f"{k} = {v:.6g}" for k, v in points[i].items())
        raise ValueError(f"{what} vanishes near {where}")


def is_zero_sampled(e: Expr, box, *, n: int = 100, tol: float = 1e-9,
                    seed: int = 0) -> ZeroSample:
    """Decide whether `e` vanishes identically on the box, by sampling.

    A math-domain error at a sample point counts as a failure and is
    reported through the witness: the first point, in cloud order, at
    which eval_numeric raises.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, (lo, hi) in box.items():
        if not hi > lo:
            raise ValueError(f"degenerate box interval for {name!r}")
    canon = simplify(e)
    terms = canon.terms if isinstance(canon, Add) else (canon,)
    points = sample_box(box, n, seed) + sample_box(box, 2 * n, seed + _SECOND_PASS_SHIFT)
    cols = columns(points)
    # each term once: value = their left-to-right sum, as canon evaluates
    value, failed = eval_checked(terms[0], cols)
    scale = np.abs(value)
    for t in terms[1:]:
        v, f = eval_checked(t, cols)
        value = value + v
        scale = np.maximum(scale, np.abs(v))
        failed = failed | f
    failed |= ~np.isfinite(value)
    if failed.any():
        p = points[int(np.argmax(failed))]
        try:
            eval_numeric(canon, p)
        except EvalError as err:
            return ZeroSample(False, float("inf"), dict(p), float("nan"), str(err))
    magnitude = np.abs(value)
    residual = magnitude / np.maximum(1.0, scale)
    i = int(np.argmax(residual))
    max_residual = float(residual[i])
    return ZeroSample(max_residual <= tol, max_residual, dict(points[i]),
                      float(magnitude[i]))
