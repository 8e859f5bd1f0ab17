"""Spans around calls into liewave's layers, recorded from outside the
program.

`Tracer.install` replaces each traced function by a timing wrapper and
rebinds the name in every loaded liewave module that holds the original, so
`from .expr import simplify` callers are traced as well as the defining
module.  A recursive self-call (a wrapper entered while its own span is the
innermost open one) opens no new span.  Spans stay in memory as
(name, start, end, parent) and are written out by `write_spans`.

A span's self time is its duration minus the time covered by its child
spans.  Counts of work (points sampled, time steps, shots) are recorded at
the same boundaries.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import liewave.cli  # noqa: F401  (loads every traced module)
from liewave import synth
from liewave.expr import node_count


def _zero_test_work(counts, args, kwargs):
    n = kwargs.get("n", 100)
    counts["expr.sampling.is_zero_sampled.points"] += 3 * n
    counts["expr.sampling.is_zero_sampled.nodes"] += node_count(args[0])


def _fd_steps(counts, args, kwargs):
    grid = args[3] if len(args) > 3 else kwargs["g"]
    counts["numverify.fd_solve.steps"] += grid.nt


def _modes_found(counts, result):
    counts["numverify.modes_found"] += len(result)


# (module, attribute path, span name, count before the call, count after)
TARGETS = [
    ("liewave.expr.parser", "parse", "expr.parser.parse", None, None),
    ("liewave.expr.simplify", "simplify", "expr.simplify.simplify", None, None),
    ("liewave.expr.simplify", "expand", "expr.simplify.expand", None, None),
    ("liewave.expr.calculus", "diff", "expr.calculus.diff", None, None),
    ("liewave.expr.calculus", "substitute", "expr.calculus.substitute", None, None),
    ("liewave.expr.calculus", "eval_numeric", "expr.calculus.eval_numeric",
     None, None),
    ("liewave.expr.sampling", "is_zero_sampled", "expr.sampling.is_zero_sampled",
     _zero_test_work, None),
    ("liewave.expr.sampling", "sample_box", "expr.sampling.sample_box", None, None),
    ("liewave.symmetry", "determining_residuals",
     "symmetry.determining_residuals", None, None),
    ("liewave.symmetry", "symmetry_check", "symmetry.symmetry_check", None, None),
    ("liewave.reduction", "similarity_reduce", "reduction.similarity_reduce",
     None, None),
    ("liewave.reduction", "classify_target", "reduction.classify_target",
     None, None),
    ("liewave.numverify", "fd_solve", "numverify.fd_solve", _fd_steps, None),
    ("liewave.numverify", "eval_on_grid", "numverify.eval_on_grid", None, None),
    ("liewave.numverify", "convergence_order", "numverify.convergence_order",
     None, None),
    ("liewave.numverify", "mode_solve", "numverify.mode_solve", None, _modes_found),
    # the cost of one RK4 shot is exposed by no public function
    ("liewave.numverify", "_Shooter.shoot", "numverify.shoot", None, None),
    ("liewave.cli", "main", "cli.main", None, None),
    # the CSV writer is the only place solve's output formatting can be seen
    ("liewave.cli", "_write_solution_csv", "cli.solution_csv", None, None),
] + [
    ("liewave.synth", name, f"synth.{name}", None, None)
    for name, obj in sorted(vars(synth).items())
    if callable(obj) and not name.startswith("_") and not isinstance(obj, type)
    and getattr(obj, "__module__", None) == "liewave.synth"
]


class Tracer:
    def __init__(self):
        self.span_names = []          # span name id -> name
        self._name_ids = {}
        self.clear()
        self._restore = []

    def clear(self):
        """Drop recorded spans and totals (the wrappers stay installed)."""
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []              # open spans: [index, name, child seconds]

    # -- installation -------------------------------------------------------

    def install(self):
        for module, path, name, before, after in TARGETS:
            owner = sys.modules[module]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, before, after)
            if owner is not sys.modules[module]:
                self._rebind(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "liewave"
                                       or mod_name.startswith("liewave.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, before, after):
        name_id = self._name_ids.setdefault(name, len(self.span_names))
        if name_id == len(self.span_names):
            self.span_names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][1] is name:
                return fn(*args, **kwargs)
            if before is not None:
                before(self.counts, args, kwargs)
            index = len(self.starts)
            self.names.append(name_id)
            self.parents.append(stack[-1][0] if stack else -1)
            self.ends.append(0.0)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = clock()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.ends[index] = end
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path, header: str):
        """Tab-separated spans: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (name_id, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i}\t{self.span_names[name_id]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{parent}\n")
