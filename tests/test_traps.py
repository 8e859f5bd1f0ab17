"""Known defects as executable traps.

Each open reproducer of ROADMAP.md is one test that asserts the intended
behaviour: an exit code and an `error:` line or a FAIL, never a traceback.
It is marked xfail(strict=True) with its roadmap item as the reason, so
the change that fixes a trap must also remove its marker.  The traps
already closed stay below as ordinary tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liewave
from liewave.cli import main

UNIT = {"x": [0, 1], "t": [0, 1]}
HEAT = {"A": "1", "B": "0", "C": "0", "domain": UNIT}
# C = 1e-12: below the zero test's tolerance
TINY_C = {"A": "1", "B": "0", "C": "1e-12",
          "domain": {"x": [0, 3], "t": [0, 1]}}


def _open(item: int):
    # only the assertion may fail: a crash is a failure, not an open trap
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}")


def _run(tmp_path, capsys, argv, **docs):
    """main(argv) with each keyword written as the JSON file <name>.json and
    named by its path in argv; (exit code, stderr)."""
    paths = {}
    for name, payload in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    argv = [str(paths.get(a, a)) for a in argv]
    try:
        rc = main(["--out", str(tmp_path / "out"), *argv])
    except SystemExit as stop:  # argparse refused the command line
        rc = stop.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


# ------------------------------------------------------------- open traps

@_open(1)
def test_centered_advection_beyond_its_stable_step_fails(tmp_path, capsys):
    # nt = 1 today, and the run exits 0 with error 7.234e+43
    pde = {"A": "0.000001", "B": "100", "C": "0", "domain": UNIT}
    rc, _ = _run(tmp_path, capsys, ["solve", "pde", "--ic",
                                    "exp(x + 100.000001*t)", "--nx", "101"],
                 pde=pde)
    assert rc == 1


@_open(15)
def test_solve_fails_a_closed_form_that_is_not_a_solution(tmp_path, capsys):
    # u_t - u_xx = 1 - 6x: today exit 0 with "checks": []
    rc, _ = _run(tmp_path, capsys, ["solve", "heat", "--ic", "x^3 + t",
                                    "--nx", "21", "--levels", "3"],
                 heat=HEAT)
    assert rc == 1


@_open(2)
def test_reduce_fails_an_ansatz_that_is_not_a_symmetry(tmp_path, capsys):
    # P' = 2x is nonzero on [1, 2]; today OTHER and exit 0
    heat = dict(HEAT, domain={"x": [1, 2], "t": [0, 1]})
    ansatz = {"phi": "1", "P": "x^2", "R": "0", "q": 1.0, "v": 0.0}
    rc, _ = _run(tmp_path, capsys, ["reduce", "heat", "ansatz"], heat=heat,
                 ansatz=ansatz)
    assert rc == 1


@_open(3)
def test_synth_refuses_a_pole_of_A_between_the_samples(tmp_path, capsys):
    # A = 1/P'^2 has a pole at x = 0.7; today six PASS rows
    family = {"family": "wave", "P": "(x - 0.7)^3", "R": "0", "q": 1.0,
              "v": 0.0, "F": "1", "domain": UNIT}
    rc, err = _run(tmp_path, capsys, ["synth", "family"], family=family)
    assert rc == 2 and err.startswith("error: ")


@_open(3)
def test_reduce_refuses_a_zero_of_P_prime_between_the_samples(tmp_path,
                                                               capsys):
    # P' vanishes at x = 0.50001; today OTHER and exit 0
    ansatz = {"phi": "1", "P": "(x - 0.50001)^3", "R": "0", "q": 1.0,
              "v": 0.0}
    rc, err = _run(tmp_path, capsys, ["reduce", "heat", "ansatz"], heat=HEAT,
                   ansatz=ansatz)
    assert rc == 2 and err.startswith("error: ")


@_open(3)
def test_solve_refuses_a_pole_between_the_nodes(tmp_path, capsys):
    # the pole at x = 0.55 is no node of --nx 11; today error 3.962e+02
    rc, err = _run(tmp_path, capsys, [
        "solve", "heat", "--nx", "11",
        "--ic", "exp(-t)*sin(x) + 1/((x - 0.55)^2 + (t - 1)^2)"], heat=HEAT)
    assert rc == 2 and err.startswith("error: ")


@_open(4)
def test_check_solution_fails_a_residual_below_the_tolerance(tmp_path,
                                                              capsys):
    # the residual is exactly 1e-12 exp(-t) sin(x); today PASS at 9.657e-13
    rc, _ = _run(tmp_path, capsys, ["check", "pde", "--solution",
                                    "exp(-t)*sin(x)"], pde=TINY_C)
    assert rc == 1


@_open(11)
def test_check_gen_fails_a_residual_below_the_tolerance(tmp_path, capsys):
    # r3 is the exact constant 1e-12; today PASS at 1.000e-12
    gen = {"phi": "1", "xi": "0", "M": "1e-12*t"}
    rc, _ = _run(tmp_path, capsys, ["check", "pde", "--gen", "gen"],
                 pde=TINY_C, gen=gen)
    assert rc == 1


# ----------------------------------------------------------- closed traps

@pytest.mark.parametrize("seed", ["100000000000000000000", "-1000000", "-1",
                                  str(2**62 + 1)])
def test_seed_outside_its_range_is_exit_2(tmp_path, capsys, seed):
    # a seed past uint64 ended in a numpy traceback; a negative one clipped
    # every Halton index below 1 to the box's corner, where x*t's residual
    # x is 0, and PASSed
    rc, err = _run(tmp_path, capsys, ["--seed", seed, "check", "heat",
                                      "--solution", "x*t"], heat=HEAT)
    assert rc == 2
    assert "argument --seed: need an integer in [0, 2**62]" in err


@pytest.mark.parametrize("seed", ["0", str(2**62)])
def test_seed_in_its_range_runs(tmp_path, capsys, seed):
    rc, _ = _run(tmp_path, capsys, ["--seed", seed, "check", "heat",
                                    "--solution", "x*t"], heat=HEAT)
    assert rc == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["check", "heat", "--solution", "x*t"],
    ["check", "heat", "--gen", "gen"],
    ["synth", "family"],
    ["reduce", "heat", "ansatz"],
    ["solve", "heat", "--ic", "exp(-t)*sin(x)"],
    ["modes", "profile"],
])
def test_samples_below_one_is_refused_naming_the_option(tmp_path, capsys,
                                                        command, samples):
    # `check` exited 2 with "error: n must be >= 1", which names no option,
    # and `solve` ran without complaint; the parser refuses it for every
    # subcommand
    rc, err = _run(tmp_path, capsys, ["--samples", samples, *command],
                   heat=HEAT, gen={"phi": "0", "xi": "2*t", "M": "-x"},
                   family={"family": "wave", "P": "x", "R": "0", "q": 1.0,
                           "v": 0.0, "F": "1", "a": 1.0, "b": 0.0,
                           "domain": UNIT},
                   ansatz={"phi": "1", "P": "x", "R": "0", "q": 1.0,
                           "v": 0.0},
                   profile={"H": 300.0, "N": "0.0002"})
    assert rc == 2
    assert err.startswith("usage: liewave")
    assert "argument --samples: need an integer >= 1" in err
    assert not (tmp_path / "out").exists()


def test_one_sample_runs(tmp_path, capsys):
    rc, _ = _run(tmp_path, capsys, ["--samples", "1", "check", "heat",
                                    "--solution", "x*t"], heat=HEAT)
    assert rc == 1


def test_modes_past_the_cap_is_refused_before_the_search(tmp_path):
    # 10^400 searched for its roots; the cap is checked at parse time.  A
    # fresh interpreter under a time limit: never a huge count in-process
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"H": 300.0, "N": "0.0002"}))
    src = Path(liewave.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "liewave.cli", "--out", str(tmp_path / "out"),
         "modes", str(profile), "--modes", str(10**400)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 2
    assert "argument --modes: need an integer in [1, 1999]" in run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out").exists()
