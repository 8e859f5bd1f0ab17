import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liewave
from liewave import cli, numverify
from liewave.cli import main
from liewave.expr.parser import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from liewave.numverify import NSTEPS

simplify_module = importlib.import_module("liewave.expr.simplify")

WAVE_FAMILY = {"family": "wave", "P": "x", "R": "0", "q": 1.0, "v": 0.0,
               "F": "1", "a": 1.0, "b": 0.0,
               "domain": {"x": [0, 1], "t": [0, 1]}}
OSC_FAMILY = {"family": "oscillator", "P": "x", "R": "x", "q": 1.0, "v": 1.0,
              "a": 1.0, "b": 0.0, "k": 2.0,
              "domain": {"x": [0, 1], "t": [0, 1]}}
ROSSBY_PRINTED = {"family": "rossby", "F": "w", "G": "w", "H": "w",
                  "c": 1.0, "c1": 0.0, "c2": 0.0, "mode": "AS_PRINTED",
                  "domain": {"x": [1, 2], "t": [1, 2]}}
HEAT = {"A": "1", "B": "0", "C": "0", "domain": {"x": [0, 1], "t": [0, 1]}}
PLAIN_ANSATZ = {"phi": "1", "P": "x", "R": "0", "q": 1.0, "v": 0.0}
BOOST = {"phi": "0", "xi": "2*t", "M": "-x"}
PROFILE = {"H": 300.0, "N": "0.0002"}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_synth_wave_writes_artifacts(tmp_path, capsys):
    family = write(tmp_path, "wave.json", WAVE_FAMILY)
    out = tmp_path / "out"
    assert main(["--out", str(out), "synth", family]) == 0
    pde = json.loads((out / "pde.json").read_text())
    assert (pde["A"], pde["B"], pde["C"]) == ("1", "-2", "0")
    gen = json.loads((out / "gen.json").read_text())
    assert gen == {"phi": "1", "xi": "1", "M": "0"}
    assert (out / "solution.txt").read_text().strip() == "exp(-t + x)"
    report = read_report(out)
    assert [c["name"] for c in report["checks"]] == [
        "solution_residual", "solution_system_1", "solution_system_2",
        "symmetry_A", "symmetry_B", "symmetry_C"]
    assert all(c["status"] == "PASS" for c in report["checks"])
    assert "wall_time" not in json.dumps(report)
    assert "[PASS] solution_residual" in capsys.readouterr().out


def test_synth_oscillator_all_pass(tmp_path):
    family = write(tmp_path, "osc.json", OSC_FAMILY)
    out = tmp_path / "out"
    assert main(["--out", str(out), "synth", family]) == 0
    checks = read_report(out)["checks"]
    assert [c["name"] for c in checks] == [
        "solution_residual", "defining_A", "defining_B", "defining_C",
        "symmetry_A", "symmetry_B", "symmetry_C"]
    assert all(c["status"] == "PASS" for c in checks)


def test_synth_rossby_printed_fails_with_witness(tmp_path):
    family = write(tmp_path, "rossby.json", ROSSBY_PRINTED)
    out = tmp_path / "out"
    assert main(["--out", str(out), "synth", family]) == 1
    report = read_report(out)
    assert [c["name"] for c in report["checks"]] == [
        f"rossby_{mode}_determining_{i}"
        for mode in ("derived", "as_printed") for i in (1, 2, 3)]
    failures = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert failures
    assert all(c["name"].startswith("rossby_as_printed") for c in failures)
    assert all("witness" in c for c in failures)
    passes = [c for c in report["checks"] if c["name"].startswith("rossby_derived")]
    assert all(c["status"] == "PASS" for c in passes)


def test_check_heat_galilean_boost(tmp_path):
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "2*t", "M": "-x"})
    out = tmp_path / "out"
    assert main(["--out", str(out), "check", pde, "--gen", gen]) == 0


def test_check_wrong_generator_fails(tmp_path):
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "t", "xi": "0", "M": "0"})
    out = tmp_path / "out"
    assert main(["--out", str(out), "check", pde, "--gen", gen]) == 1
    report = read_report(out)
    assert report["checks"][0]["status"] == "FAIL"


def test_check_zero_generator_trivially_passes(tmp_path):
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "0", "M": "0"})
    assert main(["--out", str(tmp_path / "out"), "check", pde,
                 "--gen", gen]) == 0


def test_check_solution_flag(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-2", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 1]}})
    out = tmp_path / "out"
    assert main(["--out", str(out), "check", pde,
                 "--solution", "exp(x - t)"]) == 0
    assert main(["--out", str(out), "check", pde,
                 "--solution", "exp(x + t)"]) == 1


def test_check_solution_undefined_on_domain_fails(tmp_path):
    # differentiation removes the log from the residual; sampling the closed
    # form itself catches it
    pde = write(tmp_path, "pde.json", HEAT)
    out = tmp_path / "out"
    assert main(["--out", str(out), "check", pde,
                 "--solution", "log(x - 2)"]) == 1
    check = read_report(out)["checks"][0]
    assert check["status"] == "FAIL"
    assert check["max_residual"] == float("inf")
    assert set(check["witness"]) == {"x", "t"}
    assert check["note"] == "log of a nonpositive value in log(-2 + x)"


def test_unparenthesized_minus_before_power_is_exit_2(tmp_path, capsys):
    pde = write(tmp_path, "pde.json", HEAT)
    out = tmp_path / "out"
    assert main(["--out", str(out), "check", pde,
                 "--solution", "exp(-x^2)"]) == 2
    assert capsys.readouterr().err == (
        "error: --solution: '-' before '^' is ambiguous at offset 4 "
        "(expected -(a^b) or (-a)^b)\n")
    assert not out.exists()


def test_parse_error_in_an_option_names_the_option(tmp_path, capsys):
    # as an error in a file names the file
    pde = write(tmp_path, "pde.json", HEAT)
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde, "--ic", "-x^2 + 1"]) == 2
    assert capsys.readouterr().err == (
        "error: --ic: '-' before '^' is ambiguous at offset 0 "
        "(expected -(a^b) or (-a)^b)\n")
    assert not out.exists()


def test_check_requires_something(tmp_path):
    pde = write(tmp_path, "pde.json", HEAT)
    assert main(["--out", str(tmp_path / "out"), "check", pde]) == 2


def test_reduce_wave_family(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-(1 + q)", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 1]}, "params": {"q": 1.0}})
    ansatz = write(tmp_path, "ansatz.json", PLAIN_ANSATZ)
    out = tmp_path / "out"
    assert main(["--out", str(out), "reduce", pde, ansatz]) == 0
    result = json.loads((out / "reduction.json").read_text())
    assert result["classification"] == "WAVE"
    assert set(result) >= {"z", "c2", "c1", "c0"}


def test_reduce_oscillator_family_is_identity(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "0", "B": "-1", "C": "1",
                 "domain": {"x": [0, 1], "t": [0, 1]}})
    ansatz = write(tmp_path, "ansatz.json",
                   {"phi": "1", "P": "x", "R": "x", "q": 1.0, "v": 1.0})
    out = tmp_path / "out"
    assert main(["--out", str(out), "reduce", pde, ansatz]) == 0
    result = json.loads((out / "reduction.json").read_text())
    assert result["classification"] == "IDENTITY"


def test_reduce_heat_is_other(tmp_path):
    pde = write(tmp_path, "pde.json", HEAT)
    ansatz = write(tmp_path, "ansatz.json", PLAIN_ANSATZ)
    out = tmp_path / "out"
    assert main(["--out", str(out), "reduce", pde, ansatz]) == 0
    result = json.loads((out / "reduction.json").read_text())
    assert result["classification"] == "OTHER"


@pytest.mark.parametrize("samples", [1, 5, 9, 10, 100])
def test_reduce_oscillator_at_every_sample_count(tmp_path, samples):
    # the wave member P = x, R = x, q = 1, v = 1/2, F = 1 with 9 z^2 added
    # to C reduces to Phi'' + 9 Phi = 0 whatever the cloud size
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-3", "C": "1.25 + 9*exp(-t + x)^2",
                 "domain": {"x": [0, 1], "t": [0, 1]}})
    ansatz = write(tmp_path, "ansatz.json",
                   {"phi": "1", "P": "x", "R": "x", "q": 1.0, "v": 0.5})
    out = tmp_path / "out"
    assert main(["--out", str(out), "--samples", str(samples), "reduce", pde,
                 ansatz]) == 0
    result = json.loads((out / "reduction.json").read_text())
    assert result["classification"] == "OSCILLATOR"
    assert result["k"] == pytest.approx(3.0, abs=1e-12)


def test_reduce_undefined_coefficient_is_exit_2(tmp_path, capsys):
    # log(x - 1/2) is undefined on half the domain, as check --solution
    # reports; reduce refuses the input instead of classifying it OTHER
    pde = write(tmp_path, "pde.json", dict(HEAT, B="log(x - 0.5)"))
    ansatz = write(tmp_path, "ansatz.json", PLAIN_ANSATZ)
    assert main(["--out", str(tmp_path / "out"), "reduce", pde,
                 ansatz]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: c1 is undefined at t = ")
    assert "log of a nonpositive value" in err
    assert err.count("\n") == 1


def test_solve_writes_csv_and_convergence(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-2", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 0.1]}})
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde, "--ic", "exp(x - t)",
                 "--nx", "21", "--levels", "3"]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,t,u_numeric,u_closed,abs_err"
    assert len(lines) > 21
    report = read_report(out)
    orders = [lv["order"] for lv in report["convergence"][1:]]
    assert all(1.7 <= o <= 2.3 for o in orders)
    assert report["final_time_error"] <= 1e-3


def test_solve_integrates_the_base_grid_once(tmp_path, monkeypatch):
    # the refinement study's level 0 is the main run's grid: three levels
    # take three integrations, and level 0's error is the final-time error
    from liewave import numverify
    grids = []
    fd_solve = numverify.fd_solve

    def counted(p, ic, bc, g, *bound):
        grids.append((g.nx, g.nt))
        return fd_solve(p, ic, bc, g, *bound)

    monkeypatch.setattr(numverify, "fd_solve", counted)
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-2", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 0.1]}})
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde, "--ic", "exp(x - t)",
                 "--nx", "11", "--levels", "3"]) == 0
    assert len(grids) == len(set(grids)) == 3
    report = read_report(out)
    assert report["final_time_error"] == report["convergence"][0]["error"]


@pytest.mark.parametrize("nt", [[], ["--nt", "400"]])
def test_solve_probes_the_stability_rule_once_per_grid(tmp_path, monkeypatch,
                                                       nt):
    # auto_nt, the base run and the refinement study share the base grid's
    # probe; each refined level probes its own nodes
    from liewave import numverify
    sizes = []
    stable_dt = numverify.stable_dt

    def counted(p, xs, t0, t1):
        sizes.append(len(xs))
        return stable_dt(p, xs, t0, t1)

    monkeypatch.setattr(numverify, "stable_dt", counted)
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-2", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 0.1]}})
    assert main(["--out", str(tmp_path / "out"), "solve", pde, "--ic",
                 "exp(x - t)", "--nx", "41", "--levels", "3"] + nt) == 0
    assert sizes == [41, 81, 161]


@pytest.mark.parametrize("nt", [[], ["--nt", "1"]])
def test_solve_rejects_backward_diffusion_before_the_step_bound(tmp_path,
                                                                capsys, nt):
    # --nt 1 also breaks the step bound: A < 0 is still the error reported
    pde = write(tmp_path, "pde.json", dict(HEAT, A="-1"))
    assert main(["--out", str(tmp_path / "out"), "solve", pde,
                 "--ic", "exp(-t)*sin(x)", "--levels", "3"] + nt) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A = -1 < 0") and err.count("\n") == 1


def test_passing_solve_renders_no_expression_text(tmp_path, monkeypatch):
    # coefficient and closed-form texts are only for error messages
    from liewave import numverify

    def fail(e):
        raise AssertionError(f"to_text({e!r}) called")

    monkeypatch.setattr(numverify, "to_text", fail)
    monkeypatch.setattr(cli, "to_text", fail)
    pde = write(tmp_path, "pde.json", dict(HEAT, B="x*cos(t)"))
    assert main(["--out", str(tmp_path / "out"), "solve", pde, "--ic",
                 "exp(-t)*sin(x)", "--nx", "11", "--levels", "3"]) == 0


@pytest.mark.parametrize("method, message", [
    ("ts", "Unable to allocate 7.28 TiB for an array with shape "
           "(1000000000001,) and data type float64"),
    ("xs", ""),
])
def test_unallocatable_grid_is_exit_2(tmp_path, capsys, monkeypatch, method,
                                      message):
    # --nt or --nx too large for memory: the failed allocation is simulated
    from liewave import numverify

    def fail(self):
        raise MemoryError(message)

    monkeypatch.setattr(numverify.Grid1D, method, fail)
    heat = write(tmp_path, "heat.json", HEAT)
    assert main(["--out", str(tmp_path / "out"), "solve", heat,
                 "--ic", "exp(-t)*sin(x)"]) == 2
    err = capsys.readouterr().err
    detail = f" ({message})" if message else ""
    assert err == f"error: the requested size cannot be allocated{detail}\n"


@pytest.mark.parametrize("A, dt, nt", [
    ("1e60", "3.125e-64", "3.2e+63"),
    ("1e308", "0", "inf"),  # 4 max|A| overflows, and the bound with it
])
def test_step_count_beyond_any_time_grid_is_exit_2(tmp_path, capsys, A, dt,
                                                   nt):
    # nt + 1 levels that no array index reaches: the bound and the count
    import numpy as np
    pde = write(tmp_path, "pde.json", dict(HEAT, A=A))
    assert main(["--out", str(tmp_path / "out"), "solve", pde,
                 "--ic", "exp(-t)*sin(x)"]) == 2
    assert capsys.readouterr().err == (
        f"error: the stable step dt <= {dt} needs nt = {nt} time "
        f"steps, more than a time grid can index "
        f"({np.iinfo(np.intp).max - 1})\n")


def test_solution_csv_matches_row_list_writer(tmp_path):
    # x = 0.1 is where .17g ("0.10000000000000001") and repr ("0.1") differ,
    # and on [0, 1e-5] every inner x is written with an exponent; u and the
    # closed form hold -0.0, values at both ends of the float range and
    # values far from each other; the second grid has one step
    import numpy as np
    from liewave.cli import _write_solution_csv
    from liewave.expr import parse
    from liewave.numverify import Grid1D, eval_on_grid
    closed = parse("exp(x - t)/3")
    for x1, nt in ((1.0, 7), (1e-5, 1)):
        grid = Grid1D(0.0, x1, 11, 0.0, 0.1, nt)
        values = np.random.default_rng(3).normal(size=(11, nt + 1)) * 1e3
        values[2, 1] = -0.0
        values[3, 0], values[4, 1], values[5, 0] = 1e-300, 1e300, 5e-324
        xs, ts = grid.xs(), grid.ts()
        x_text = f"{xs[1]:.17g}"
        assert "e-" in x_text if x1 < 1 else x_text != repr(float(xs[1]))
        ref = np.array(np.broadcast_to(
            eval_on_grid(closed, {"x": xs[:, None], "t": ts}), values.shape))
        ref[6, 0], ref[7, 1], ref[8, 0] = -0.0, -1e300, 5e-324
        ref[5, 1] = 1e-300
        # the writer as it was: every row in one list, joined once
        rows = ["x,t,u_numeric,u_closed,abs_err"]
        for j, t in enumerate(ts):
            for i, x in enumerate(xs):
                u, r = values[i, j], ref[i, j]
                rows.append(",".join(f"{v:.17g}"
                                     for v in (x, t, u, r, abs(u - r))))
        path = tmp_path / f"solution-{nt}.csv"
        _write_solution_csv(path, grid, list(values.T), ref)
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_solve_rejects_unstable_grid(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "1", "B": "-2", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 0.1]}})
    assert main(["--out", str(tmp_path / "out"), "solve", pde,
                 "--ic", "exp(x - t)", "--nx", "41", "--nt", "10"]) == 2


@pytest.mark.parametrize("nx", ["0", "1", "2"])
def test_solve_too_few_nodes_is_exit_2(tmp_path, capsys, nx):
    # refused as the command line is parsed, naming the option
    pde = write(tmp_path, "pde.json", HEAT)
    with pytest.raises(SystemExit) as stop:
        main(["--out", str(tmp_path / "out"), "solve", pde,
              "--ic", "sin(x)", "--nx", nx])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --nx: need an integer >= 3, got '{nx}'\n")
    assert not (tmp_path / "out").exists()


def test_solve_auto_nt_meets_its_own_stability_bound(tmp_path):
    # A peaks between the time probes an earlier nt choice used
    pde = write(tmp_path, "pde.json",
                dict(HEAT, A="1 + exp(-10000*(t - 0.0333)^2)"))
    assert main(["--out", str(tmp_path / "out"), "solve", pde,
                 "--ic", "1 + 0*x", "--nx", "11"]) == 0


def test_solve_rejects_backward_diffusion(tmp_path, capsys):
    pde = write(tmp_path, "pde.json", dict(HEAT, A="-1"))
    assert main(["--out", str(tmp_path / "out"), "solve", pde,
                 "--ic", "exp(-t)*sin(x)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: A = -1 < 0") and err.count("\n") == 1
    assert "ill-posed" in err


def test_solve_blowup_is_a_failed_check(tmp_path):
    # exp(x + 100.000001 t) solves u_t = 1e-6 u_2x + 100 u_x and stays
    # finite; the step bound of the centered scheme holds (dt <= dx^2 / 2A),
    # but at a cell Peclet number of 1e6 the scheme amplifies rounding by
    # about |1 + 2i w|, w = B dt / 2dx = 5, per step
    pde = write(tmp_path, "pde.json", dict(HEAT, A="0.000001", B="100"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde,
                 "--ic", "exp(x + 100.000001*t)", "--nx", "101",
                 "--nt", "1000"]) == 1
    (check,) = read_report(out)["checks"]
    assert (check["name"], check["status"]) == ("time_stepping", "FAIL")
    assert "non-finite" in check["note"]
    assert not (out / "solution.csv").exists()


STIFF = {"A": "1", "B": "0", "C": "-100000",
         "domain": {"x": [0, math.pi], "t": [0, 0.001]}}


def test_solve_step_bound_sees_decay_rate(tmp_path):
    # exp(-100001 t) sin(x) solves u_t = u_2x - 100000 u; with C left out
    # of the bound nt was 1 and forward Euler grew by |1 + C dt| = 99
    pde = write(tmp_path, "pde.json", STIFF)
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde, "--ic",
                 "exp(-100001*t)*sin(x)", "--nx", "11", "--levels", "3"]) == 0
    report = read_report(out)
    dx = math.pi / 10
    bound = 2 * dx * dx / (4 + 100000 * dx * dx)
    assert report["grid"]["nt"] == math.ceil(0.001 / bound) == 51
    # at the bound the sin(x) mode shrinks by |1 + dt lambda| = 0.96 a step,
    # not e^-2: the error stays below the initial amplitude 1, and the
    # refined levels reach the rounding floor
    assert report["final_time_error"] < 0.2
    assert [lv["error"] < 1e-40 for lv in report["convergence"]] == \
        [False, True, True]


def test_solve_step_over_the_decay_bound_is_exit_2(tmp_path, capsys):
    pde = write(tmp_path, "pde.json", STIFF)
    assert main(["--out", str(tmp_path / "out"), "solve", pde, "--ic",
                 "exp(-100001*t)*sin(x)", "--nx", "11", "--nt", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: time step 0.001 violates the explicit stability bound; "
        "need dt <= 1.99919e-05\n")


@pytest.mark.parametrize("study", [[], ["--levels", "3"]])
@pytest.mark.parametrize("C, closed, node", [
    ("0", "exp(-t)*sin(x) + 1/((x - 0.5)^2 + (t - 1)^2)", "x = 0.5, t = 1"),
    # solves u_t = u_2x + 1000 u; exp(999 t) overflows at t ~ 0.71
    ("1000", "exp(999*t)*sin(x)", "x = 0, t = 0.715"),
])
def test_solve_closed_form_not_finite_on_the_grid_is_exit_2(
        tmp_path, capsys, C, closed, node, study):
    pde = write(tmp_path, "pde.json", dict(HEAT, C=C))
    out = tmp_path / "out"
    assert main(["--out", str(out), "solve", pde, "--ic", closed,
                 "--nx", "11", *study]) == 2
    assert capsys.readouterr().err == \
        f"error: closed form {closed} is not finite at {node}\n"
    assert not out.exists()


@pytest.mark.parametrize("closed, message", [
    # t = 1/3200 is a time of level 2 only: its boundary values name it
    ("exp(-t)*sin(x) + 1/(x^2 + (t - 0.0003125)^2)",
     "closed form exp(-t)*sin(x) + 1/(x^2 + (t - 3125e-7)^2) is not finite "
     "at x = 0, t = 0.0003125"),
    # x = 0.05 is a node of level 1 only: its initial level names the
    # closed form as typed
    ("exp(-t)*sin(x) + 1/((x - 0.05)^2 + t^2)",
     "initial condition exp(-t)*sin(x) + 1/((x - 0.05)^2 + t^2) is not "
     "finite at x = 0.05, t = 0"),
])
def test_solve_closed_form_not_finite_on_a_refined_level_is_exit_2(
        tmp_path, capsys, closed, message):
    pde = write(tmp_path, "pde.json", HEAT)
    argv = ["--out", str(tmp_path / "out"), "solve", pde, "--ic", closed,
            "--nx", "11"]
    assert main(argv) == 0  # finite on the base grid
    capsys.readouterr()
    out = tmp_path / "study"
    argv[1] = str(out)
    assert main(argv + ["--levels", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--levels", "1"), ("--levels", "2"), ("--levels", "-1"), ("--nt", "-1"),
])
def test_solve_count_out_of_range_is_exit_2(tmp_path, capsys, option, value):
    # these ran no study, or chose nt from the bound, without a word
    pde = write(tmp_path, "pde.json", HEAT)
    out = tmp_path / "out"
    argv = ["--out", str(out), "solve", pde, "--ic", "exp(-t)*sin(x)",
            "--nx", "11", option, value]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert f"argument {option}: need " in capsys.readouterr().err
    for valid in ("0", "3") if option == "--levels" else ("0", "400"):
        argv[-1] = valid
        assert main(argv) == 0
        report = read_report(out)
        assert len(report.get("convergence", ())) == (
            int(valid) if option == "--levels" else 0)
        assert report["grid"]["nt"] == (400 if valid == "400" else 200)


def test_modes_csv_schema(tmp_path):
    profile = write(tmp_path, "profile.json", {"H": 300.0, "N": "0.0002"})
    out = tmp_path / "out"
    assert main(["--out", str(out), "modes", profile, "--modes", "3"]) == 0
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == "m,C_m,k_m"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(0.06 / 3.141592653589793, rel=1e-8)


def test_modes_n_below_zero_between_probe_points_is_exit_2(tmp_path, capsys):
    # N < 0 only within 0.32 of z = -145.4, a dip 33 evenly spaced probe
    # points miss; every point of the mode mesh is checked
    profile = write(tmp_path, "profile.json", {
        "H": 300, "N": "0.0002 - 0.0003*exp(-(((z + 145.4)/0.5)^2))"})
    out = tmp_path / "out"
    assert main(["--out", str(out), "modes", profile, "--modes", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: {profile}: N: must be finite and nonnegative, "
        "2e-4 - 3e-4*exp(-((2*(145.4 + z))^2)) is -3.36402e-05 at "
        "z = -145.65\n")
    assert not out.exists()


def test_modes_failure_path(tmp_path):
    profile = write(tmp_path, "profile.json", {"H": 100.0, "N": "0"})
    assert main(["--out", str(tmp_path / "out"), "modes", profile]) == 1


@pytest.mark.parametrize("profile", [
    {"H": 1e-306, "N": "0.0002"},
    {"H": 5e-324, "N": "0.0002"},
    {"H": 1.0, "N": [{"z": [-1, -1e-310], "expr": "0"},
                     {"z": [-1e-310, 0], "expr": "1"}]},
])
def test_modes_unresolvable_scale_is_a_failed_check(tmp_path, profile):
    # C_1 is below the smallest normal float: N H / pi itself, or, with N
    # only in a surface layer 1e-310 thick, so small that u = 1/c overflows
    out = tmp_path / "out"
    assert main(["--out", str(out), "modes",
                 write(tmp_path, "profile.json", profile)]) == 1
    (check,) = read_report(out)["checks"]
    assert (check["name"], check["status"]) == ("mode_search", "FAIL")
    assert "underflows" in check["note"]


@pytest.mark.parametrize("profile", [
    {"H": 1e308, "N": "0.0002"},
    {"H": 1e-150, "N": "0.0002"},
    {"H": 1e-300, "N": "0.0002"},
    {"H": 300, "N": "1e-160"},
])
def test_modes_rescaled_constant_profile_keeps_the_sine_series(tmp_path,
                                                               profile):
    # the H = 300, N = 2e-4 problem rescaled: C_m = N H / (m pi) still
    out = tmp_path / "out"
    assert main(["--out", str(out), "modes",
                 write(tmp_path, "profile.json", profile)]) == 0
    n_bar = float(profile["N"])
    for m, c in enumerate(read_report(out)["eigenvalues"], 1):
        exact = n_bar * profile["H"] / (m * math.pi)
        assert abs(c - exact) <= 1e-13 * exact


PIECEWISE_300 = {"H": 1000.0, "N": [{"z": [-1000, -300], "expr": "0"},
                                    {"z": [-300, 0], "expr": "0.0002"}]}


@pytest.mark.parametrize("profile, modes", [
    # every count up to the cap runs, for N constant and for N only above
    # -300 of 1000 (shorter waves); 2000 is refused as the command line is
    # parsed
    ({"H": 300.0, "N": "0.0002"}, 1999),
    ({"H": 300.0, "N": "0.0002"}, 2000),
    (PIECEWISE_300, 600),
    (PIECEWISE_300, 1000),
    (PIECEWISE_300, 1999),
])
def test_modes_up_to_the_cap_pass_and_past_it_are_exit_2(
        tmp_path, capsys, monkeypatch, profile, modes):
    out = tmp_path / "out"
    argv = ["--out", str(out), "modes", write(tmp_path, "profile.json",
                                              profile), "--modes", str(modes)]
    if modes == NSTEPS:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert ("argument --modes: need an integer in [1, 1999], got '2000'"
                in capsys.readouterr().err)
        assert not out.exists()
        return
    assert main(argv) == 0
    report = read_report(out)
    assert [c["status"] for c in report["checks"]] == ["PASS"] * modes
    if profile is PIECEWISE_300:
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "bench"))
        import oracle
        import workloads
        wanted = workloads.piecewise_eigenvalues(0.0002, 300, 700, modes)
        for c, ref in zip(report["eigenvalues"], wanted, strict=True):
            assert math.isclose(c, ref, rel_tol=oracle.EIGEN_REL_TOL,
                                abs_tol=0.0)


def test_modes_node_count_fails_on_a_neighbouring_winding(tmp_path,
                                                          monkeypatch):
    # each mode handed the winding of the next root (the last one that of
    # the root before it): every node count is off by one, and FAILs
    roots = numverify._roots

    def neighbours(shooter, modes):
        found = roots(shooter, modes)
        thetas = [theta for _, theta in found]
        return [(c, theta) for (c, _), theta
                in zip(found, thetas[1:] + thetas[-2:-1])]

    monkeypatch.setattr(numverify, "_roots", neighbours)
    out = tmp_path / "out"
    assert main(["--out", str(out), "modes",
                 write(tmp_path, "profile.json", PROFILE)]) == 1
    assert [(c["status"], c["max_residual"])
            for c in read_report(out)["checks"]] == [("FAIL", 1.0)] * 5


@pytest.mark.parametrize("H", [1000.0, 1e-150])
@pytest.mark.parametrize("pieces, reason", [
    # a tenth of the column, (-H/2, -2H/5), belongs to no piece
    (((-1, -0.5), (-0.4, 0)), "pieces must be contiguous"),
    (((-1, -0.5), (-0.5, -0.1)), "pieces must cover [-H, 0]"),
])
def test_modes_gap_in_the_profile_is_exit_2_at_every_scale(tmp_path, capsys,
                                                           H, pieces, reason):
    profile = {"H": H, "N": [{"z": [lo * H, hi * H], "expr": expr}
                             for (lo, hi), expr in zip(pieces,
                                                       ("0", "0.0002"))]}
    assert main(["--out", str(tmp_path / "out"), "modes",
                 write(tmp_path, "profile.json", profile)]) == 2
    assert reason in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--out", str(tmp_path / "out"), "synth", str(bad)]) == 2


@pytest.mark.parametrize("command, payload", [
    (["check", "--solution", "x"], [1, 2]),
    (["modes"], {"H": None, "N": "0.0002"}),
    (["modes"], {"H": 100.0, "N": 5}),
    (["modes"], {"H": 100.0, "N": [{"z": [None, 0], "expr": "0.0002"}]}),
])
def test_malformed_document_is_exit_2(tmp_path, capsys, command, payload):
    doc = write(tmp_path, "doc.json", payload)
    argv = ["--out", str(tmp_path / "out"), command[0], doc] + command[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _run_document(tmp_path, command, payload):
    """main() on an ansatz document (reducing HEAT) or a family document."""
    doc = write(tmp_path, "doc.json", payload)
    inputs = [write(tmp_path, "pde.json", HEAT), doc] if command == "reduce" \
        else [doc]
    return main(["--out", str(tmp_path / "out"), command, *inputs])


@pytest.mark.parametrize("value", [None, [1], True, "1.5"])
@pytest.mark.parametrize("command, payload, name", [
    ("reduce", PLAIN_ANSATZ, "q"),
    ("synth", WAVE_FAMILY, "q"),
    ("synth", OSC_FAMILY, "k"),
    ("synth", ROSSBY_PRINTED, "c1"),
])
def test_malformed_number_in_ansatz_or_family_is_exit_2(
        tmp_path, capsys, command, payload, name, value):
    # numbers are JSON numbers: no null, list, boolean or numeric string
    assert _run_document(tmp_path, command,
                         dict(payload, **{name: value})) == 2
    err = capsys.readouterr().err
    doc = tmp_path / "doc.json"
    assert err.startswith(f"error: {doc}: {name}: ") and err.count("\n") == 1


def test_rossby_vanishing_time_is_named(tmp_path, capsys):
    # c t + c1 = 0.1 t + 0.05 vanishes at t = -1/2, inside [-1, 1]; the
    # exact time prints as a float
    doc = dict(ROSSBY_PRINTED, c=0.1, c1=0.05,
               domain={"x": [1, 2], "t": [-1, 1]})
    assert _run_document(tmp_path, "synth", doc) == 2
    err = capsys.readouterr().err
    assert "c*t + c1 vanishes at t = -0.5 inside the domain" in err
    assert err.count("\n") == 1


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _argv(tmp_path, command, doc):
    """main()'s argv reading the document `doc` as `command` takes it: a PDE
    for check, a generator for gen (checked on HEAT), an ansatz for reduce
    (reducing HEAT), a family for synth and a profile for modes."""
    heat = write(tmp_path, "pde.json", HEAT)
    return ["--out", str(tmp_path / "out"), *{
        "check": ["check", doc, "--solution", "x"],
        "gen": ["check", heat, "--gen", doc],
        "reduce": ["reduce", heat, doc]}.get(command, [command, doc])]


@pytest.mark.parametrize("command, payload, name", [
    ("check", dict(HEAT, A="q", params={"q": "a"}), "params.q"),
    ("reduce", dict(PLAIN_ANSATZ, q="a"), "q"),
    ("synth", dict(WAVE_FAMILY, q="a"), "q"),
    ("modes", {"H": "a", "N": "0.0002"}, "H"),
    # documents that lack the field altogether
    ("check", _without(HEAT, "C"), "C"),
    ("reduce", _without(PLAIN_ANSATZ, "v"), "v"),
    ("synth", _without(WAVE_FAMILY, "q"), "q"),
    ("modes", {"N": "0.0002"}, "H"),
])
def test_malformed_number_names_its_file(tmp_path, capsys, command, payload,
                                         name):
    # reduce reads two documents: the error names the ansatz, not the PDE
    doc = write(tmp_path, "doc.json", payload)
    assert main(_argv(tmp_path, command, doc)) == 2
    problem = (f"{name}: expected a number, got str"
               if name.split(".")[0] in payload else f"missing key {name!r}")
    assert capsys.readouterr().err == f"error: {doc}: {problem}\n"


@pytest.mark.parametrize("value", ["x^^2", None])
@pytest.mark.parametrize("command, payload, name", [
    *(("check", HEAT, name) for name in ("A", "B", "C")),
    *(("gen", BOOST, name) for name in ("phi", "xi", "M")),
    *(("reduce", PLAIN_ANSATZ, name) for name in ("phi", "P", "R")),
    *(("synth", WAVE_FAMILY, name) for name in ("P", "R", "F")),
    *(("synth", OSC_FAMILY, name) for name in ("P", "R")),
    *(("synth", ROSSBY_PRINTED, name) for name in ("F", "G", "H")),
    ("modes", PROFILE, "N"),
    ("modes", None, "N"),  # the expression of one piece
])
def test_malformed_expression_names_its_field(tmp_path, capsys, command,
                                              payload, name, value):
    doc = dict(payload, **{name: value}) if payload else \
        {"H": 300.0, "N": [{"z": [-300, 0], "expr": value}]}
    path = write(tmp_path, "doc.json", doc)
    assert main(_argv(tmp_path, command, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {name}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, payload, name", [
    ("gen", dict(BOOST, phi="x"), "phi"),
    ("check", dict(HEAT, B="y"), "B"),
    ("check", dict(HEAT, params=[1]), "params"),
    ("check", dict(HEAT, domain=[0, 1]), "domain"),
    ("check", dict(HEAT, domain={"x": 5, "t": [0, 1]}), "domain.x"),
    ("check", dict(HEAT, domain={"x": [0, 1], "t": [1, 1]}), "domain.t"),
    ("modes", dict(PROFILE, H=-1), "H"),
    ("modes", dict(PROFILE, N="-1"), "N"),
    ("modes", dict(PROFILE, N=[{"z": [-300, -100], "expr": "1"}]), "N"),
    ("reduce", dict(PLAIN_ANSATZ, q=0), "q"),
    ("synth", dict(WAVE_FAMILY, q=0), "q"),
    ("synth", dict(OSC_FAMILY, k=0), "k"),
    ("synth", dict(ROSSBY_PRINTED, mode="PRINTED"), "mode"),
])
def test_malformed_value_names_its_field(tmp_path, capsys, command, payload,
                                         name):
    # an error other than a parse or a number error names its field too
    path = write(tmp_path, "doc.json", payload)
    assert main(_argv(tmp_path, command, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {name}: ") and err.count("\n") == 1


# the deepest tree a level can build: each wraps its content in a call, a
# sum, a negation, a product, a reciprocal and a negative sign
_NESTINGS = {
    "calls": (lambda n: "exp(x - x/-" * n + "x" + ")" * n,
              lambda n: 11 * n - 8),
    "groups": (lambda n: "(" * n + "x" + ")" * n, lambda n: n - 1),
    "tower": (lambda n: "x" + "^x" * n, lambda n: 2 * n - 1),
}


def _nested_input(tmp_path, where, text):
    """main()'s argv reading text as `where` says: --solution or --ic on
    HEAT, or field A of a PDE that check --gen, reduce or solve reads."""
    heat = write(tmp_path, "heat.json", HEAT)
    out = ["--out", str(tmp_path / "out")]
    if where == "--solution":
        return out + ["check", heat, f"--solution={text}"]
    if where == "--ic":
        return out + ["solve", heat, f"--ic={text}", "--nx", "11"]
    pde = write(tmp_path, "pde.json", dict(HEAT, A=text))
    return out + {
        "check": ["check", pde, "--gen", write(tmp_path, "gen.json", BOOST)],
        "reduce": ["reduce", pde, write(tmp_path, "ans.json", PLAIN_ANSATZ)],
        "solve": ["solve", pde, "--ic", "exp(-t)*sin(x)", "--nx", "11"],
    }[where]


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
@pytest.mark.parametrize("where", ["--solution", "--ic", "check", "reduce",
                                   "solve"])
def test_nesting_past_the_bound_is_exit_2(tmp_path, capsys, where, shape):
    text, offset = _NESTINGS[shape]
    # at the bound every command runs to its verdict, or to a one-line
    # error that is not about the nesting
    _run_fuzzed(_nested_input(tmp_path, where, text(MAX_NESTING)))
    assert "nesting" not in capsys.readouterr().err
    assert main(_nested_input(tmp_path, where,
                              text(MAX_NESTING + 1))) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"nesting deeper than {MAX_NESTING} levels at offset "
                        f"{offset(MAX_NESTING + 1)}\n")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "(" * 199 + "x" + ")" * 199, "exp(" * 300 + "x" + ")" * 300,
    "x" + "^x" * 200,
])
def test_deeply_nested_reproducers_are_exit_2(tmp_path, capsys, text):
    assert main(_nested_input(tmp_path, "--solution", text)) == 2
    err = capsys.readouterr().err
    assert "nesting deeper than" in err and err.count("\n") == 1


def test_a_long_run_of_minus_signs_is_read(tmp_path, capsys):
    # 1,000 signs cancel to x, a solution of the heat equation
    assert main(_nested_input(tmp_path, "--solution",
                              "-" * 1000 + "x")) == 0
    assert "[PASS] solution_residual" in capsys.readouterr().out


@pytest.mark.parametrize("literal", ["1e10000000", "1e-10000000"])
def test_a_literal_with_a_huge_exponent_is_exit_2_at_once(tmp_path, capsys,
                                                           literal):
    start = time.process_time()
    assert main(_nested_input(tmp_path, "--solution", f"x + {literal}")) == 2
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: --solution: literal exponent beyond {MAX_EXPONENT} in "
        "magnitude at offset 4\n")


@pytest.mark.parametrize("literal", [
    "1" * (MAX_DIGITS + 1), "0." + "1" * (MAX_DIGITS + 1),
], ids=["whole", "fraction"])
def test_a_literal_with_too_many_digits_is_exit_2(tmp_path, capsys, literal):
    assert main(_nested_input(tmp_path, "--solution", f"x + {literal}")) == 2
    assert capsys.readouterr().err == (
        f"error: --solution: literal with more than {MAX_DIGITS} digits "
        "before or after its point at offset 4\n")


@pytest.mark.parametrize("command, payload, name", [
    ("modes", dict(PROFILE, H=1e999), "H"),
    ("check", dict(HEAT, domain={"x": [0, 1e999], "t": [0, 1]}), "domain.x"),
])
def test_non_finite_number_names_its_field(tmp_path, capsys, command,
                                           payload, name):
    doc = write(tmp_path, "doc.json", payload)
    assert main(_argv(tmp_path, command, doc)) == 2
    assert capsys.readouterr().err == \
        f"error: {doc}: {name}: must be a finite number\n"


@pytest.mark.parametrize("command, payload", [
    ("reduce", dict(PLAIN_ANSATZ, R="x", v=1e300)),
])
def test_constant_beyond_float_range_is_exit_2(tmp_path, capsys, command,
                                               payload):
    # in range as read, but v^2 (1e600) is not
    assert _run_document(tmp_path, command, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: number beyond the float range (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("solution", [
    "x*((10^100)^4)", "x*((10^100)^4)/3", "0.5*x*((10^100)^4)",
])
def test_exact_constant_beyond_float_range_keeps_its_message(
        tmp_path, capsys, solution):
    # an integral constant is an int, a non-integral one a Fraction; the
    # error reads the same for both, and as it did when both were Fractions
    pde = write(tmp_path, "pde.json", HEAT)
    assert main(["--out", str(tmp_path / "out"), "check", pde,
                 "--solution", solution]) == 2
    assert capsys.readouterr().err == ("error: number beyond the float range "
                                       "(integer division result too large "
                                       "for a float)\n")


TINY_ROSSBY = dict(ROSSBY_PRINTED, c=1e-300, c1=1e-300, c2=1e-300)


def test_tiny_rossby_constants_are_evaluated(tmp_path, capsys):
    # each constant is in range, but 1/(c t + c1)^2 is not: the determining
    # residuals overflow at the sample points, which is a FAIL with a
    # witness, not malformed input
    assert _run_document(tmp_path, "synth", TINY_ROSSBY) == 1
    err = capsys.readouterr().err
    assert err.startswith("wall time: ") and err.count("\n") == 1
    checks = read_report(tmp_path / "out")["checks"]
    determining = [c for c in checks if "_determining_" in c["name"]]
    assert len(determining) == len(checks) == 6
    derived = [c for c in determining if c["name"].startswith("rossby_derived")
               and c["status"] == "FAIL"]
    assert derived
    assert all(c["note"].startswith("overflow in ") for c in derived)
    printed = [c for c in determining
               if c["name"].startswith("rossby_as_printed")]
    assert all(c["status"] == "FAIL" for c in printed)
    # the exhibit text comes first, the zero test's own reason after it
    exhibit = "falsification exhibit; expected to fail for c != 0; "
    assert all(c["note"].startswith(exhibit) for c in printed)
    assert any("overflow in " in c["note"] for c in printed)
    for c in determining:
        if c["status"] == "FAIL":
            assert sorted(c["witness"]) == ["t", "x"]
            assert 1 <= c["witness"]["x"] <= 2 and 1 <= c["witness"]["t"] <= 2


def test_tiny_rossby_constants_print_short_and_exact(tmp_path):
    # 1e-300 is spelled with its exponent, not as 300 decimal places, and
    # every printed expression parses back to the tree it came from
    from liewave.expr import parse, to_text
    from liewave.synth import load_family, synth_rossby
    assert _run_document(tmp_path, "synth", TINY_ROSSBY) == 1
    pde_text = (tmp_path / "out" / "pde.json").read_text()
    assert len(pde_text) < 1000
    expected = synth_rossby(load_family(str(tmp_path / "doc.json")))
    pde = json.loads(pde_text)
    for name in ("A", "B", "C"):
        assert "1e-300" in pde[name]
        assert parse(pde[name]) == getattr(expected, name)
        assert to_text(parse(pde[name])) == pde[name]
    notes = [c["note"] for c in read_report(tmp_path / "out")["checks"]
             if "note" in c]
    assert notes and all(len(note) < 200 for note in notes)
    for note in notes:
        if " in " in note:
            text = note.rsplit(" in ", 1)[1]
            assert to_text(parse(text)) == text


@pytest.mark.parametrize("command", [
    ["check", HEAT, "--solution", "exp(1000*x) - exp(1000*t)"],
    ["synth", TINY_ROSSBY],
])
def test_overflow_prints_no_warning(tmp_path, command):
    # a fresh interpreter: pytest would capture the warning, not stderr
    doc = write(tmp_path, "doc.json", command[1])
    src = Path(liewave.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "liewave.cli", "--out", str(tmp_path / "out"),
         command[0], doc, *command[2:]],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 1
    assert "FAIL" in run.stdout
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("domain", [
    {"x": [None, 1], "t": [0, 1]},
    {"x": 5, "t": [0, 1]},
    {"x": [0, 10**400], "t": [0, 1]},
])
def test_malformed_domain_bound_is_exit_2(tmp_path, capsys, domain):
    pde = write(tmp_path, "pde.json", dict(HEAT, domain=domain))
    assert main(["--out", str(tmp_path / "out"), "check", pde,
                 "--solution", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["x", "t", "q"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_coefficients = st.sampled_from(
    ["0", "1", "x", "-2*x", "x*t", "exp(x)", "log(x)", "1/x", "q", "x +"])
_interval = st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True)


def _run_fuzzed(argv):
    """main(argv) keeps the exit-code contract: 0, 1 or 2, and an exit 2
    writes one `error: ` line and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text
        assert "Traceback" not in text


def _mutated(draw, doc, fields):
    """doc with up to two of `fields` (a key, or "domain.x" for an interval)
    replaced by arbitrary JSON or dropped."""
    for name in draw(st.sets(st.sampled_from(fields), max_size=2)):
        *path, key = name.split(".")
        parent = doc
        for step in path:
            parent = parent.get(step) if isinstance(parent, dict) else None
        if not isinstance(parent, dict) or key not in parent:
            continue
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_json_values)
    return doc


@st.composite
def _pde_documents(draw):
    """A PDE document in which up to two fields (A, B, C, params, domain or
    one of its intervals) are arbitrary JSON or missing."""
    doc = {"A": draw(_coefficients), "B": draw(_coefficients),
           "C": draw(_coefficients),
           "params": {"q": draw(st.integers(-3, 3) | st.floats())},
           "domain": {"x": sorted(draw(_interval)), "t": sorted(draw(_interval))}}
    return _mutated(draw, doc, ["A", "B", "C", "params", "domain", "domain.x",
                                "domain.t"])


@given(doc=_pde_documents())
@example(doc={"A": "0", "C": "0", "params": {"\n": None},
              "domain": {"x": [0, 1], "t": [0, 1]}})  # a key with a newline
@settings(max_examples=150, deadline=None)
def test_pde_loader_fuzz_never_raises(tmp_path_factory, doc):
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz-pde.json"
    path.write_text(json.dumps(doc))
    _run_fuzzed(["--out", str(root / "fuzz-out"), "check", str(path),
                 "--solution", "x"])


_numbers = st.sampled_from([-1.5, -0.5, 0, 0.5, 1, 2.0])
_x_profiles = st.sampled_from(["0", "x", "2*x", "x + 0.1*x^2", "log(x)", "x +"])
_shapes = st.sampled_from(["1", "s", "s^2", "w", "w^2", "exp(w)"])


@st.composite
def _ansatz_documents(draw):
    doc = {"phi": draw(st.sampled_from(["1", "t + 2", "exp(t)", "x"])),
           "P": draw(_x_profiles), "R": draw(_x_profiles),
           "q": draw(_numbers), "v": draw(_numbers)}
    return _mutated(draw, doc, list(doc))


@st.composite
def _family_documents(draw):
    kind = draw(st.sampled_from(["wave", "oscillator", "rossby"]))
    if kind == "rossby":
        doc = {"F": draw(_shapes), "G": draw(_shapes), "H": draw(_shapes),
               "c": draw(_numbers), "c1": draw(_numbers), "c2": draw(_numbers),
               "mode": draw(st.sampled_from(["DERIVED", "as_printed"])),
               "domain": {"x": [1, 2], "t": [1, 2]}}
    else:
        doc = {"P": draw(_x_profiles), "R": draw(_x_profiles),
               "q": draw(_numbers), "v": draw(_numbers),
               "a": draw(_numbers), "b": draw(_numbers),
               "domain": {"x": [0, 1], "t": [0, 1]}}
        doc.update({"F": draw(_shapes)} if kind == "wave"
                   else {"k": draw(_numbers)})
    doc["family"] = kind
    return _mutated(draw, doc, list(doc) + ["domain.x", "domain.t"])


@given(kind=st.sampled_from(["ansatz", "family"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_ansatz_and_family_loader_fuzz_never_raises(tmp_path_factory, kind,
                                                    data):
    root = tmp_path_factory.getbasetemp()
    out = ["--out", str(root / "fuzz-out"), "--samples", "10"]
    if kind == "ansatz":
        doc = data.draw(_ansatz_documents())
        heat = root / "fuzz-heat.json"
        heat.write_text(json.dumps(HEAT))
        argv = out + ["reduce", str(heat), str(root / "fuzz-doc.json")]
    else:
        doc = data.draw(_family_documents())
        argv = out + ["synth", str(root / "fuzz-doc.json")]
    (root / "fuzz-doc.json").write_text(json.dumps(doc))
    _run_fuzzed(argv)


@st.composite
def _generator_documents(draw):
    doc = {"phi": draw(st.sampled_from(["0", "1", "2*t", "t^2", "x", "t +"])),
           "xi": draw(_coefficients), "M": draw(_coefficients)}
    return _mutated(draw, doc, list(doc))


_buoyancy = st.sampled_from(
    ["0.0002", "0.0002*(1 + z/1000)", "exp(z/100)/1000", "0", "-0.0002",
     "1/z", "x", "z +"])


@st.composite
def _profile_documents(draw):
    depth = draw(st.sampled_from([100.0, 300, 1e-300, 0, -100.0]))
    if draw(st.booleans()):
        profile = draw(_buoyancy)
    else:
        cut = draw(st.sampled_from([-50.0, -depth / 2]))
        profile = [{"z": [-depth, cut], "expr": draw(_buoyancy)},
                   {"z": [cut, 0], "expr": draw(_buoyancy)}]
    return _mutated(draw, {"H": depth, "N": profile}, ["H", "N"])


@given(kind=st.sampled_from(["generator", "profile"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_generator_and_profile_fuzz_never_raises(tmp_path_factory, kind,
                                                 data):
    root = tmp_path_factory.getbasetemp()
    out = ["--out", str(root / "fuzz-out"), "--samples", "10"]
    doc = root / "fuzz-doc.json"
    if kind == "generator":
        doc.write_text(json.dumps(data.draw(_generator_documents())))
        heat = root / "fuzz-heat.json"
        heat.write_text(json.dumps(HEAT))
        argv = out + ["check", str(heat), "--gen", str(doc)]
    else:
        doc.write_text(json.dumps(data.draw(_profile_documents())))
        argv = out + ["modes", str(doc), "--modes", "2"]
    _run_fuzzed(argv)


_ARGV_DOCS = {
    "pde.json": HEAT, "gen.json": {"phi": "0", "xi": "2*t", "M": "-x"},
    "ansatz.json": PLAIN_ANSATZ, "family.json": WAVE_FAMILY,
    "profile.json": {"H": 300.0, "N": "0.0002"}, "nokey.json": {"N": "0.0002"},
    "list.json": [1], "broken.json": "{",
}
# every document above, one that is not there and a directory
_ARGV_FILES = [*_ARGV_DOCS, "absent.json", "."]
_argv_expressions = st.sampled_from(
    ["x", "exp(x - t)", "sin(x)*exp(-t)", "x +", "1/x", "log(x - 2)", "q"])


def _file_for(role):
    """The document the argument expects, or any other file."""
    return st.just(role) | st.sampled_from(_ARGV_FILES)


def _option(name, values):
    return st.tuples(st.just(name), values).map(list)


_argv_globals = st.lists(st.one_of(
    _option("--seed", st.sampled_from(["0", "3", "-4", "x"])),
    _option("--samples", st.sampled_from(["1", "10", "0", "-3"])),
    _option("--tol-sym", st.sampled_from(["1e-9", "0", "-1", "nan", "inf"])),
    _option("--tol-sol", st.sampled_from(["1e-10", "1", "nan"])),
), max_size=2)
# per subcommand: the documents its positionals read, and its options
_ARGV_COMMANDS = {
    "synth": (["family.json"], {}),
    "check": (["pde.json"], {"--gen": _file_for("gen.json"),
                             "--solution": _argv_expressions}),
    "reduce": (["pde.json", "ansatz.json"], {}),
    "solve": (["pde.json"], {
        "--ic": _argv_expressions, "--nx": st.sampled_from(["3", "11", "0"]),
        "--nt": st.sampled_from(["0", "40", "-1"]),
        "--levels": st.sampled_from(["0", "3", "x"])}),
    "modes": (["profile.json"], {"--modes": st.sampled_from(["1", "2", "0",
                                                             "-1"])}),
}
_argv_stray = st.sampled_from([["--modes", "2"], ["--gen", "gen.json"],
                               ["--nx", "11"], ["pde.json"], ["-v"]])


def _rarely(draw):
    # hypothesis leans to False, the simplest boolean: well under 1 in 8
    return all(draw(st.booleans()) for _ in range(3))


@st.composite
def _argvs(draw):
    """Global options, then a subcommand (perhaps unknown or missing), its
    files and options in any order, each right or wrong, and now and then
    an argument that does not belong."""
    argv = [t for option in draw(_argv_globals) for t in option]
    command = draw(st.sampled_from([*_ARGV_COMMANDS] * 2 + ["frobnicate",
                                                             None]))
    docs, options = _ARGV_COMMANDS.get(command, ([], {}))
    groups = [[draw(_file_for(doc))] for doc in docs]
    names = set(draw(st.sets(st.sampled_from(sorted(options))))
                if options else ())
    if command == "solve" and not _rarely(draw):
        names.add("--ic")  # required
    groups += [[name, draw(options[name])] for name in sorted(names)]
    if groups and _rarely(draw):
        groups.pop(draw(st.integers(0, len(groups) - 1)))
    if _rarely(draw):
        groups.append(draw(_argv_stray))
    argv += [command] if command else []
    return argv + [t for group in draw(st.permutations(groups)) for t in group]


def _memo_tables():
    return tuple(getattr(simplify_module, name) for name in (
        "_memo", "_expanded", "_derived", "_planned", "_parsed"))


def _entered(command, entered):
    """command, noting in `entered` whether the memo tables are all empty
    as it starts."""
    def run(args):
        entered.append(_memo_tables() == ({},) * 5)
        return command(args)
    return run


@given(argv=_argvs())
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_keeps_the_exit_code_contract(tmp_path_factory, argv):
    root = tmp_path_factory.getbasetemp() / "fuzz-argv"
    root.mkdir(exist_ok=True)
    for name, payload in _ARGV_DOCS.items():
        (root / name).write_text(payload if isinstance(payload, str)
                                 else json.dumps(payload))
    argv = ["--out", str(root / "out")] + [
        str(root / t) if t in _ARGV_FILES else t for t in argv]
    entered = []
    with pytest.MonkeyPatch.context() as patch:
        for name, command in cli._COMMANDS.items():
            patch.setitem(cli._COMMANDS, name, _entered(command, entered))
        try:
            _run_fuzzed(argv)
        except SystemExit as stop:  # argparse rejects the command line
            assert stop.code == 2
    # the job's tables start empty, and are dropped also when it raises
    assert entered in ([], [True])
    assert _memo_tables() == (None,) * 5


def test_a_jobs_sharing_plans_are_gone_before_the_next_job(tmp_path,
                                                           monkeypatch):
    # two solve jobs in one process: each starts with no plan, makes its
    # own, and leaves none behind
    entered, made = [], []
    solve = _entered(cli._COMMANDS["solve"], entered)

    def run(args):
        code = solve(args)
        made.append(len(simplify_module._planned))
        return code

    monkeypatch.setitem(cli._COMMANDS, "solve", run)
    pde = write(tmp_path, "pde.json", dict(HEAT, B="x*cos(t)"))
    for _ in range(2):
        assert main(["--out", str(tmp_path / "out"), "solve", pde, "--ic",
                     "exp(-t)*sin(x)", "--nx", "11", "--levels", "3"]) == 0
        assert simplify_module._planned is None
    assert entered == [True, True]
    assert made[0] > 0 and made == made[:1] * 2


def test_main_reuses_one_parser(tmp_path, capsys):
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "2*t", "M": "-x"})

    def run(out):
        assert main(["--out", str(tmp_path / out), "check", pde, "--gen",
                     gen]) == 0
        return (read_report(tmp_path / out), capsys.readouterr().out)

    cli._build_parser.cache_clear()
    fresh = run("fresh")
    # argparse rejects this only after every option has been read, so a
    # parser that kept what it read would hand seed and samples on
    with pytest.raises(SystemExit) as stop:
        main(["--seed", "7", "--samples", "13", "check", pde, "--nt", "3"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert run("reused") == fresh
    assert cli._build_parser() is cli._build_parser()


def test_write_json_is_json_dump_and_a_newline(tmp_path):
    payload = {"z": [math.inf, -math.inf, math.nan, -0.0, 1e-300, 5e-324],
               "a": {"\u00fc": "\u0394t \u2265 0",
                     "nested": {"b": [1, {"c": None, "d": True}], "a": []}},
               "\u00e9": "na\u00efve", "n": 0.1}
    path = tmp_path / "sub" / "report.json"
    cli._write_json(payload, path)
    ref = io.StringIO()
    json.dump(payload, ref, indent=2, sort_keys=True)
    ref.write("\n")
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("payload", [
    dict(HEAT, C=None),
    dict(HEAT, A="q", params={"q": "fast"}),
])
def test_malformed_coefficient_or_param_is_exit_2(tmp_path, capsys, payload):
    pde = write(tmp_path, "pde.json", payload)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "0", "M": "0"})
    assert main(["--out", str(tmp_path / "out"), "check", pde,
                 "--gen", gen]) == 2
    err = capsys.readouterr().err
    field = "params.q" if "params" in payload else "C"
    assert err.startswith(f"error: {pde}: {field}: expected ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", ["--tol-sym", "--tol-sol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, option,
                                                  value):
    # with inf the wrong closed form x*t would PASS; with nan or -1 every
    # check would FAIL at residual 0
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "2*t", "M": "-x"})
    argv = ["--out", str(tmp_path / "out"), option, value, "check", pde,
            "--gen", gen, "--solution", "x*t"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert f"argument {option}: need a finite number >= 0" in \
        capsys.readouterr().err
    argv[3] = "0"  # zero is a valid tolerance: x*t is no solution
    assert main(argv) == 1


def test_missing_file_is_exit_2(tmp_path):
    assert main(["--out", str(tmp_path / "out"), "synth",
                 str(tmp_path / "nope.json")]) == 2


def test_bad_expression_is_exit_2(tmp_path):
    pde = write(tmp_path, "pde.json",
                {"A": "1 + + x", "B": "0", "C": "0",
                 "domain": {"x": [0, 1], "t": [0, 1]}})
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "0", "M": "0"})
    assert main(["--out", str(tmp_path / "out"), "check", pde,
                 "--gen", gen]) == 2


@pytest.mark.parametrize("value", ["json", "csv"])
def test_format_option_is_a_usage_error(tmp_path, capsys, value):
    # every report is report.json; the option that chose it is gone
    pde = write(tmp_path, "pde.json", HEAT)
    gen = write(tmp_path, "gen.json", {"phi": "0", "xi": "2*t", "M": "-x"})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main(["--out", str(out), "--format", value, "check", pde,
              "--gen", gen])
    assert stop.value.code == 2
    assert capsys.readouterr().err.startswith("usage: liewave ")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["synth", WAVE_FAMILY],
    ["check", HEAT, "--gen", {"phi": "t", "xi": "0", "M": "0"},
     "--solution", "exp(-t)*sin(x)"],
    ["reduce", HEAT, PLAIN_ANSATZ],
    ["solve", dict(HEAT, C="-100000"), "--ic", "exp(-100001*t)*sin(x)",
     "--nx", "11"],
    ["modes", {"H": 300.0, "N": "0.0002"}, "--modes", "3"],
], ids=lambda command: command[0])
def test_report_path_of_every_command(tmp_path, capsys, command):
    argv = [write(tmp_path, f"doc{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(command)]
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv])
    checks = read_report(out)["checks"]
    assert code == (1 if any(c["status"] == "FAIL" for c in checks) else 0)
    printed = capsys.readouterr()
    assert printed.err.startswith("wall time: ")
    assert printed.err.endswith("s\n") and printed.err.count("\n") == 1
    assert [line.split(":")[0] for line in printed.out.splitlines()
            if line.startswith(("[PASS] ", "[FAIL] "))] == \
        [f"[{c['status']}] {c['name']}" for c in checks]
    # a malformed first document: its error line is all there is
    Path(argv[1]).write_text("{not json")
    assert main(["--out", str(tmp_path / "bad"), *argv]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: {argv[1]}: ")
    assert printed.err.count("\n") == 1 and printed.out == ""


def test_reports_are_seed_deterministic(tmp_path):
    family = write(tmp_path, "rossby.json", ROSSBY_PRINTED)
    out = tmp_path / "out"
    main(["--seed", "7", "--out", str(out), "synth", family])
    first = (out / "report.json").read_bytes()
    main(["--seed", "7", "--out", str(out), "synth", family])
    assert (out / "report.json").read_bytes() == first
