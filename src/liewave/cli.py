"""Batch command-line front end.

Subcommands: synth, check, reduce, solve, modes.  Every command writes its
outputs under --out and emits a machine-readable report; reports are
byte-identical across runs with the same inputs and --seed (wall time goes
to stderr only).  Exit codes: 0 all checks pass, 1 a check failed, 2
malformed input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import numverify, reduction, symmetry, synth
from .expr import (
    ZeroSample, is_zero_sampled, memo_scope, parse, substitute, to_text,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


@dataclass
class Check:
    name: str
    passed: bool
    max_residual: float
    witness: dict = field(default_factory=dict)
    note: str = ""

    @classmethod
    def from_sample(cls, name: str, zs: ZeroSample) -> "Check":
        return cls(name, zs.passed, zs.max_residual, zs.witness, zs.failure)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_payload(self):
        out = {"name": self.name, "status": self.status,
               "max_residual": self.max_residual}
        if self.witness:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(payload, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _finish(args, command: list, checks: list, extra: dict, inputs=()) -> int:
    """Write the report of `args.cmd` on the files `command` (digested with
    `inputs`) and print its checks; exit 0 when every check passed, 1
    otherwise."""
    _write_json({"command": [args.cmd, *command],
                 "inputs": {p: _digest(p) for p in (*command, *inputs)},
                 "checks": [c.to_payload() for c in checks], **extra},
                Path(args.out) / "report.json")
    for c in checks:
        print(f"[{c.status}] {c.name}: max residual {c.max_residual:.3e}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def _load(loader, source: str, name: str = ""):
    """loader(source); a malformed input's error names it first: by `name`
    (an option such as --ic), else as its file."""
    name = name or source
    try:
        return loader(source)
    except KeyError as err:
        raise ValueError(f"{name}: missing key {err}") from err
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def _float_fmt(v: float) -> str:
    return f"{v:.17g}"


def _ranged(convert, ok, need: str):
    """An argparse type: convert(text), accepted only where ok says so."""
    def parse_option(text: str):
        try:
            if ok(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
    return parse_option


_tolerance = _ranged(float, lambda v: 0.0 <= v < math.inf,
                     "a finite number >= 0")


@functools.cache
def _build_parser():
    """The one parser of this process: argparse keeps no state between
    parse_args calls, so `main` builds it once and reuses it."""
    ap = argparse.ArgumentParser(
        prog="liewave",
        description="Symmetry workbench for u_t = A(x,t) u_2x + B(x,t) u_x "
                    "+ C(x,t) u: family synthesis, residual checks, "
                    "similarity reduction, and numerical verification.")
    # the zero test's Halton indices reach seed + 7919 + 2 * samples (its
    # second pass is shifted by 7919), which must fit an int64; the sampler
    # refuses a negative seed, but only the parser names the option
    ap.add_argument("--seed", default=0,
                    type=_ranged(int, lambda s: 0 <= s <= 2**62,
                                 "an integer in [0, 2**62]"),
                    help="sampling offset")
    ap.add_argument("--samples", default=100,
                    type=_ranged(int, lambda n: n >= 1, "an integer >= 1"),
                    help="points per zero test")
    ap.add_argument("--tol-sym", type=_tolerance, default=1e-9,
                    help="tolerance for symmetry/system residuals")
    ap.add_argument("--tol-sol", type=_tolerance, default=1e-10,
                    help="tolerance for closed-form solution residuals")
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="synthesize a coefficient family")
    sp.add_argument("family_json")

    cp = sub.add_parser("check", help="residual-check a PDE against a "
                                      "generator and/or a closed form")
    cp.add_argument("pde_json")
    cp.add_argument("--gen", help="generator JSON file")
    cp.add_argument("--solution", help="closed form u(x,t) as expression text")

    rp = sub.add_parser("reduce", help="similarity-reduce a PDE")
    rp.add_argument("pde_json")
    rp.add_argument("ansatz_json")

    vp = sub.add_parser("solve", help="finite-difference run against a "
                                      "closed form")
    vp.add_argument("pde_json")
    vp.add_argument("--ic", required=True,
                    help="closed form u(x,t); supplies initial and boundary "
                         "values and the error reference")
    vp.add_argument("--nx", default=41,
                    type=_ranged(int, lambda n: n >= 3, "an integer >= 3"))
    vp.add_argument("--nt", default=0,
                    type=_ranged(int, lambda n: n >= 0, "an integer >= 0"),
                    help="0 = choose from the stability bound")
    vp.add_argument("--levels", default=0,
                    type=_ranged(int, lambda n: n == 0 or n >= 3,
                                 "0 or an integer >= 3"),
                    help=">= 3 runs a refinement study")

    mp = sub.add_parser("modes", help="vertical-mode eigenvalues")
    mp.add_argument("profile_json")
    # each mode is a root search of its own: the cap bounds their cost and
    # is checked as the command line is parsed, before any search
    mp.add_argument("--modes", default=5,
                    type=_ranged(int, lambda m: 1 <= m < numverify.NSTEPS,
                                 f"an integer in [1, {numverify.NSTEPS - 1}]"))
    return ap


def cmd_synth(args) -> int:
    inp = _load(synth.load_family, args.family_json)
    out = Path(args.out)
    checks = []
    extra = {}
    opts = dict(n=args.samples, seed=args.seed)

    if isinstance(inp, synth.RossbyFamilyInput):
        readings = synth.rossby_residual_report(inp, tol=args.tol_sym, **opts)
        pde = readings[inp.mode][0]
        gen = inp.generator()
        for mode, (_, samples) in readings.items():
            for i, zs in enumerate(samples, start=1):
                check = Check.from_sample(
                    f"rossby_{mode.lower()}_determining_{i}", zs)
                # the exhibit text first, the zero test's own reason after it
                if mode == synth.AS_PRINTED:
                    check.note = "; ".join(filter(None, (
                        "falsification exhibit; expected to fail for c != 0",
                        check.note)))
                checks.append(check)
        extra["mode"] = inp.mode
    else:
        pde = inp.synth()
        solution = inp.solution()
        gen = inp.generator()
        box = pde.domain.box()
        checks.append(_solution_check(pde, solution, args.tol_sol, opts))
        for name, r in zip(inp.ROWS, inp.rows(pde)):
            checks.append(Check.from_sample(
                name, is_zero_sampled(r, box, tol=args.tol_sym, **opts)))
        for name, zs in zip(("symmetry_A", "symmetry_B", "symmetry_C"),
                            symmetry.symmetry_check(pde, gen, tol=args.tol_sym,
                                                    **opts)):
            checks.append(Check.from_sample(name, zs))
        (out / "solution.txt").parent.mkdir(parents=True, exist_ok=True)
        (out / "solution.txt").write_text(to_text(solution) + "\n")

    _write_json(pde.to_dict(), out / "pde.json")
    _write_json(gen.to_dict(), out / "gen.json")
    return _finish(args, [args.family_json], checks, extra)


def _solution_check(pde, u, tol: float, opts) -> Check:
    """Closed-form residual check.  u itself is zero-tested first, with a
    tolerance that fails only where u is undefined: diff may drop that."""
    box = pde.domain.box()
    zs = is_zero_sampled(u, box, tol=math.inf, **opts)
    if zs.passed:
        zs = is_zero_sampled(pde.residual(u), box, tol=tol, **opts)
    return Check.from_sample("solution_residual", zs)


def cmd_check(args) -> int:
    pde = _load(symmetry.load_pde, args.pde_json)
    checks = []
    opts = dict(n=args.samples, seed=args.seed)
    if not args.gen and not args.solution:
        raise ValueError("nothing to check: pass --gen and/or --solution")
    if args.gen:
        gen = _load(symmetry.load_generator, args.gen)
        for name, zs in zip(("determining_A", "determining_B", "determining_C"),
                            symmetry.symmetry_check(pde, gen, tol=args.tol_sym,
                                                    **opts)):
            checks.append(Check.from_sample(name, zs))
    if args.solution:
        checks.append(_solution_check(
            pde, _load(parse, args.solution, "--solution"), args.tol_sol,
            opts))
    return _finish(args, [args.pde_json], checks, {},
                   inputs=[args.gen] if args.gen else [])


def cmd_reduce(args) -> int:
    pde = _load(symmetry.load_pde, args.pde_json)
    ansatz = _load(reduction.load_ansatz, args.ansatz_json)
    result = reduction.similarity_reduce(pde, ansatz)
    cls = reduction.classify_target(result, pde.domain, n=args.samples,
                                    tol=args.tol_sym, seed=args.seed)
    payload = result.to_dict()
    payload["classification"] = cls.kind
    if cls.k is not None:
        payload["k"] = cls.k
    _write_json(payload, Path(args.out) / "reduction.json")
    code = _finish(args, [args.pde_json, args.ansatz_json], [],
                   {"classification": str(cls)})
    print(f"classification: {cls}")
    return code


def cmd_solve(args) -> int:
    pde = _load(symmetry.load_pde, args.pde_json)
    closed = _load(parse, args.ic, "--ic")
    dom = pde.domain
    grid = numverify.Grid1D(dom.x[0], dom.x[1], args.nx, dom.t[0], dom.t[1],
                            max(args.nt, 1))
    # the stability rule is probed once on the base grid (its nodes and
    # span do not depend on nt), where it first applies: before the closed
    # form is evaluated when it picks nt, after it under --nt
    bound = None
    if not args.nt:
        bound = numverify.stable_dt(pde, grid.xs(), grid.t0, grid.t1)
        grid = replace(grid, nt=numverify.auto_nt(pde, grid, bound))
    ref = numverify._on_grid(closed, grid.xs(), grid.ts(), "closed form").T
    if bound is None:
        bound = numverify.stable_dt(pde, grid.xs(), grid.t0, grid.t1)
    try:
        us = list(numverify.fd_solve(
            pde, substitute(closed, {"t": dom.t[0]}), closed, grid, bound))
        levels = (numverify.convergence_order(pde, closed, grid, args.levels,
                                              us[-1], bound)
                  if args.levels else None)
    except numverify.BlowupError as err:  # well-formed input: a FAIL check
        return _finish(args, [args.pde_json], [Check(
            "time_stepping", False, math.inf, note=str(err))], {})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_solution_csv(out / "solution.csv", grid, us, ref)
    err = float(np.max(np.abs(us[-1] - ref[:, -1])))
    extra = {"grid": {"nx": grid.nx, "nt": grid.nt},
             "final_time_error": err}
    if levels is not None:
        extra["convergence"] = [
            {"dx": lv.dx, "error": lv.error,
             "order": lv.order if lv.order is not None else "undefined"}
            for lv in levels]
    code = _finish(args, [args.pde_json], [], extra)
    print(f"final-time L_inf error: {err:.3e}")
    return code


def _write_solution_csv(path, grid, us, ref):
    """One row per (t, x), written one time level at a time: us[n] is the
    numeric solution at t_n, ref[:, n] the closed form there.  A level is
    one bytes % on a template of its rows (x in place, t put in at the NUL),
    with its values from one table of every level; b"%.17g" writes the text
    f"{v:.17g}" does, faster than a str % and its encoding.  A 1 MiB buffer
    writes the file in a few calls."""
    rows = "".join(f"{x},\0,%.17g,%.17g,%.17g\n"
                   for x in map(_float_fmt, grid.xs().tolist())).encode()
    table = np.empty((len(us), grid.nx, 3))
    table[..., 0] = us
    table[..., 1] = ref.T
    np.abs(table[..., 0] - table[..., 1], out=table[..., 2])
    with open(path, "wb", buffering=1 << 20) as fh:
        fh.write(b"x,t,u_numeric,u_closed,abs_err\n")
        for t, level in zip(grid.ts().tolist(), table.reshape(len(us), -1)):
            fh.write(rows.replace(b"\0", b"%.17g" % t)
                     % tuple(level.tolist()))


def cmd_modes(args) -> int:
    problem = _load(numverify.load_profile, args.profile_json)
    try:
        modes = numverify.mode_solve(problem, args.modes)
    except numverify.ModeSearchError as err:
        return _finish(args, [args.profile_json], [Check(
            "mode_search", False, math.inf, note=str(err))], {})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["m,C_m,k_m"]
    for m in modes:
        rows.append(f"{m.index},{_float_fmt(m.C)},{_float_fmt(m.k)}")
    (out / "modes.csv").write_text("\n".join(rows) + "\n")
    checks = [Check(f"mode_{m.index}_node_count", m.nodes == m.index - 1,
                    float(abs(m.nodes - (m.index - 1)))) for m in modes]
    return _finish(args, [args.profile_json], checks,
                   {"eigenvalues": [m.C for m in modes]})


_COMMANDS = {"synth": cmd_synth, "check": cmd_check, "reduce": cmd_reduce,
             "solve": cmd_solve, "modes": cmd_modes}


_INT_OVERFLOW = {"int too large to convert to float":
                 "integer division result too large for a float"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        with memo_scope():  # one job: its memo starts and ends empty
            code = _COMMANDS[args.cmd](args)
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError as err:  # an exact constant left the float range
        # an integral one is an int, whose overflow CPython words otherwise
        # than a Fraction's; the report keeps the Fraction's words for both
        detail = _INT_OVERFLOW.get(str(err), str(err))
        print(f"error: number beyond the float range ({detail})",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as err:  # a grid or cloud too large for this machine
        detail = f" ({err})" if str(err) else ""
        print(f"error: the requested size cannot be allocated{detail}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"wall time: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
