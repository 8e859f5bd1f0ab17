"""Known-answer checks of one job's outputs.

`verify` compares what `liewave.cli.main` returned and wrote against the
answer stored on the job when its input was generated.  It returns a list of
problems; an empty list means the job gave the right verdict.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EIGEN_REL_TOL = 1e-6
CLOSED_REL_TOL = 1e-12


def verify(job, rc: int, out: Path) -> list:
    problems = []
    if rc != job.exit_code:
        problems.append(f"exit code {rc}, expected {job.exit_code}")
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as err:
        return problems + [f"report.json unreadable: {err}"]
    expect = job.expect
    if "checks" in expect:
        problems += _check_statuses(report, expect["checks"])
    if "classification" in expect:
        problems += _check_classification(out, expect["classification"])
    if "orders" in expect:
        problems += _check_solve(report, out, expect["orders"],
                                 expect["closed_fn"])
    if "eigenvalues" in expect:
        problems += _check_modes(report, expect["eigenvalues"])
    return problems


def _check_statuses(report, wanted: dict) -> list:
    """`wanted` maps a check-name prefix to the status every check with that
    prefix must have; each prefix must match at least one check."""
    checks = report.get("checks", [])
    problems = []
    for prefix, status in wanted.items():
        matched = [c for c in checks if c["name"].startswith(prefix)]
        if not matched:
            problems.append(f"no check named {prefix!r}*")
        for c in matched:
            if c["status"] != status:
                problems.append(f"{c['name']} is {c['status']}, expected {status}")
    return problems


def _check_classification(out: Path, wanted: str) -> list:
    try:
        got = json.loads((out / "reduction.json").read_text())["classification"]
    except (OSError, ValueError, KeyError) as err:
        return [f"reduction.json unreadable: {err}"]
    return [] if got == wanted else [f"classification {got}, expected {wanted}"]


def _check_solve(report, out: Path, order_range, closed_fn) -> list:
    problems = []
    orders = [lv["order"] for lv in report.get("convergence", [])]
    if len(orders) != 3 or orders[0] != "undefined":
        return [f"unexpected convergence levels {orders!r}"]
    lo, hi = order_range
    for order in orders[1:]:
        if not (isinstance(order, float) and lo <= order <= hi):
            problems.append(f"convergence order {order!r} outside [{lo}, {hi}]")
    # the closed-form column must be the closed form, evaluated here with
    # math; check the final time level
    nx, nt = report["grid"]["nx"], report["grid"]["nt"]
    lines = (out / "solution.csv").read_text().splitlines()
    if len(lines) != 1 + nx * (nt + 1):
        return problems + [f"solution.csv has {len(lines)} lines, expected "
                           f"{1 + nx * (nt + 1)}"]
    for line in lines[-nx:]:
        x, t, u_num, u_closed, abs_err = (float(v) for v in line.split(","))
        ref = closed_fn(x, t)
        if abs(u_closed - ref) > CLOSED_REL_TOL * max(1.0, abs(ref)):
            problems.append(f"u_closed({x}, {t}) = {u_closed!r}, expected {ref!r}")
            break
        if abs_err != abs(u_num - u_closed):
            problems.append(f"abs_err at ({x}, {t}) is not |u_numeric - u_closed|")
            break
    return problems


def _check_modes(report, wanted: list) -> list:
    if not all(c["status"] == "PASS" for c in report.get("checks", [])):
        return ["a node-count check failed"]
    got = report.get("eigenvalues", [])
    if len(got) != len(wanted):
        return [f"{len(got)} eigenvalues, expected {len(wanted)}"]
    problems = []
    for m, (c, ref) in enumerate(zip(got, wanted), 1):
        if not math.isclose(c, ref, rel_tol=EIGEN_REL_TOL, abs_tol=0.0):
            problems.append(f"C_{m} = {c!r}, expected {ref!r}")
    return problems
