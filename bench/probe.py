"""Machine-speed probe.

On a shared host the speed this process gets from the CPU drifts: a fixed
pure-Python kernel took from 3.7 ms to 6.9 ms within four minutes on a
2-core shared virtual machine (Linux, Python 3.11), and job times followed it.
Repetition inside one run cannot remove a drift that lasts longer than the
run, so the runner times this kernel next to every job and reports times at
the reference speed REFERENCE_S (see run.py); the raw times are printed too.

The kernel does not touch liewave, so no change to the program moves it. It
mixes the kinds of interpreter work the workloads do: exact rational
arithmetic, recursion over a tuple tree with float math, and building and
hashing frozen dataclass nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

# Kernel time at the reference speed; a typical reading on the machine above.
REFERENCE_S = 0.010


def _tree(depth):
    if depth == 0:
        return ("x",)
    return ("+" if depth % 2 else "*", _tree(depth - 1), ("c", 1.0 + depth / 7),
            _tree(depth - 2) if depth > 1 else ("x",))


_TREE = _tree(12)


def _evaluate(node, x):
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    a = _evaluate(node[1], x)
    b = _evaluate(node[2], x)
    c = _evaluate(node[3], x)
    return a + b + c if op == "+" else math.sin(a) * b * c


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def kernel_seconds() -> float:
    """CPU time of one run of the fixed kernel."""
    t0 = time.process_time()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 3)
    value = 0.0
    for k in range(40):
        value += _evaluate(_TREE, 0.1 * k)
    seen = {}
    level = [_Node("v", (i % 13,)) for i in range(300)]
    while len(level) > 1:
        level = [_Node("+" if j % 4 else "*",
                       (level[j], level[j + 1] if j + 1 < len(level) else level[0]))
                 for j in range(0, len(level), 2)]
        for node in level[:50]:
            seen[node] = seen.get(node, 0) + 1
    return time.process_time() - t0
