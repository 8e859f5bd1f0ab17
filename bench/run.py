#!/usr/bin/env python3
"""liewave benchmark: seeded CLI workloads with known-answer verdicts.

    python3 bench/run.py --workload verify-sampled --seed 1 --seconds 30 --trace 0

Run from the repository root.  The runner generates the workload's inputs
from --seed, then drives `liewave.cli.main(argv)` in this process as a closed
loop (one client, one thread): the fixed job list is run in passes, one job
after another, until --seconds have been measured (at least three passes).
Every job's verdict is checked against the answer known from how its input
was built, and every job's output bytes are compared with the first pass.

A job's time is the CPU time this process spends in it (jobs are
single-threaded, so this is wall time minus the time a hypervisor takes the
CPU away), reported at a reference machine speed: a fixed kernel that does
not touch liewave (probe.py) is timed between jobs, and each job's time is
multiplied by probe.REFERENCE_S / (the median of the six kernel readings
around it).  Unscaled wall-clock figures are printed before the result line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (see tracing.py) and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

# BLAS/OpenMP pools are pinned to one thread before numpy can be imported.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3          # untraced passes per run (two of each kind when tracing)
SETUP_REPEATS = 5       # set-up is measured this many times; the median counts
TAIL_BEYOND = 10        # job_tail_s leaves at least this many jobs beyond it

IMPORT_PROBE = ("import time; t = time.process_time(); import numpy, liewave.cli; "
                "print(repr(time.process_time() - t))")


def _import_liewave():
    """Import the checkout's liewave; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import liewave.cli
        import numpy
    except ImportError as err:
        print(f"error: cannot import liewave from {SRC}: {err}", file=sys.stderr)
        return None
    if Path(liewave.cli.__file__).resolve().parent != (SRC / "liewave").resolve():
        print(f"error: liewave was imported from {liewave.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return None
    return liewave.cli, numpy


def measure_setup(workload: str, seed: int, work: Path):
    """Median over SETUP_REPEATS of: importing numpy and liewave in a fresh
    interpreter (as every CLI call does) plus generating the inputs.
    Returns CPU seconds at reference speed and unscaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for i in range(SETUP_REPEATS):
        before = probe.kernel_seconds()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        import_s = float(done.stdout.strip())
        target = work / f"setup-{i}"
        c0 = time.process_time()
        workloads.build(workload, seed, target)
        seconds = import_s + time.process_time() - c0
        shutil.rmtree(target)
        slowdown = statistics.median([before, probe.kernel_seconds()]) / probe.REFERENCE_S
        scaled.append(seconds / slowdown)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def _digest_dir(out: Path):
    """sha256 over the directory's files (names and bytes) and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


class Runner:
    def __init__(self, cli, jobs, work: Path, cli_seed: int):
        self.cli = cli
        self.jobs = jobs
        self.work = work
        self.cli_seed = cli_seed
        self.reference = {}        # job index -> output digest of its first run
        self.attempted = 0
        self.failed = 0
        self.problems = []         # (pass, job name, problem)
        self.probes = []           # kernel readings, for the notes line
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def run_pass(self, pass_no: int):
        """Run every job once; return per-job CPU seconds at reference speed,
        per-job wall seconds, and the bytes the jobs wrote."""
        raw, cpu = [], []
        out_bytes = 0
        readings = [probe.kernel_seconds()]   # readings[i] is taken before job i
        for i, job in enumerate(self.jobs):
            out = self.work / f"out-{i:02d}"
            if out.exists():
                shutil.rmtree(out)
            argv = ["--out", str(out), "--seed", str(self.cli_seed)] + job.argv
            self.attempted += 1
            rc = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(self.sink), \
                        contextlib.redirect_stderr(self.sink):
                    rc = self.cli.main(argv)
            except (Exception, SystemExit):  # a job that raises has failed
                problems = ["raised:\n" + traceback.format_exc()]
            raw.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            readings.append(probe.kernel_seconds())
            if rc is not None:
                problems = oracle.verify(job, rc, out)
            digest, size = _digest_dir(out)
            out_bytes += size
            first = self.reference.setdefault(i, digest)
            if digest != first:
                problems.append("output bytes differ from the first run")
            if problems:
                self.failed += 1
                self.problems += [(pass_no, job.name, p) for p in problems]
        self.probes += readings
        times = [seconds * probe.REFERENCE_S
                 / statistics.median(readings[max(0, i - 2):i + 4])
                 for i, seconds in enumerate(cpu)]
        return times, raw, out_bytes


def run_untraced(runner, seconds):
    """Passes until `seconds` are used up; returns the scaled and the raw
    per-job times of each pass."""
    passes, raw_passes = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        times, raw, _ = runner.run_pass(len(passes))
        passes.append(times)
        raw_passes.append(raw)
        now = time.perf_counter()
        # stop before a pass that would end after the measuring time
        if len(passes) >= MIN_PASSES and now + (now - t_pass) - t_start > seconds:
            return passes, raw_passes


def _per_job(passes):
    """Each job's median time over the passes, in job-list order."""
    return [statistics.median(times) for times in zip(*passes)]


def _jobs_per_s(passes):
    """Throughput over the job list: jobs / sum of per-job medians."""
    per_job = _per_job(passes)
    return len(per_job) / sum(per_job)


def _job_times(passes):
    """jobs_per_s, job_p50_s and job_tail_s of a list of passes."""
    per_job = sorted(_per_job(passes))
    k = len(per_job)
    # Tail: of the MIN_PASSES * k jobs that every run times, the one with
    # exactly TAIL_BEYOND jobs beyond it (nearest rank), read off the per-job
    # medians so that it does not depend on how many passes fitted.
    rank = MIN_PASSES * k - TAIL_BEYOND
    tail = per_job[math.ceil(rank / MIN_PASSES) - 1]
    return _jobs_per_s(passes), statistics.median(per_job), tail


def end_to_end(passes, raw_passes, jobs, setup):
    jobs_per_s, p50, tail = _job_times(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "jobs_per_s": (jobs_per_s, "jobs/s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    k = len(jobs)
    raw_jobs_per_s, raw_p50, raw_tail = _job_times(raw_passes)
    notes = {"job_tail_percentile": round(100 * (1 - TAIL_BEYOND / (MIN_PASSES * k)), 2),
             "job_tail_jobs": MIN_PASSES * k, "jobs_per_pass": k,
             "passes": len(passes),
             "wall_clock": {"jobs_per_s": raw_jobs_per_s, "job_p50_s": raw_p50,
                            "job_tail_s": raw_tail},
             "setup_s_unscaled": setup[1],
             "job_median_s": {job.name: t
                              for job, t in zip(jobs, _per_job(passes))}}
    return metrics, notes


def run_traced(runner, tracer, seconds):
    """Alternate untraced and traced passes; per-layer values come from the
    traced ones."""
    untraced, traced, layers = [], [], []
    last = {False: 0.0, True: 0.0}
    t_start = time.perf_counter()
    while True:
        tracing = len(untraced) > len(traced)
        t_pass = time.perf_counter()
        if tracing:
            tracer.clear()
            tracer.install()
        try:
            times, _, out_bytes = runner.run_pass(len(untraced) + len(traced))
        finally:
            tracer.uninstall()
        last[tracing] = time.perf_counter() - t_pass
        if tracing:
            traced.append(times)
            layers.append(_layer_values(tracer, out_bytes))
        else:
            untraced.append(times)
        elapsed = time.perf_counter() - t_start
        if len(traced) >= 2 and len(untraced) >= 2 \
                and elapsed + last[len(untraced) > len(traced)] > seconds:
            return untraced, traced, layers


COUNT_KEYS = (
    "expr.parser.parse.calls", "expr.simplify.simplify.calls",
    "expr.simplify.expand.calls", "expr.calculus.diff.calls",
    "expr.calculus.eval_numeric.calls", "expr.sampling.is_zero_sampled.calls",
    "expr.sampling.is_zero_sampled.points", "expr.sampling.is_zero_sampled.nodes",
    "expr.sampling.sample_box.calls", "symmetry.determining_residuals.calls",
    "reduction.similarity_reduce.calls", "numverify.fd_solve.calls",
    "numverify.fd_solve.steps", "numverify.eval_on_grid.calls",
    "numverify.shoot.calls",
)
SELF_KEYS = (
    "expr.parser.parse", "expr.simplify.simplify", "expr.simplify.expand",
    "expr.calculus.diff", "expr.calculus.substitute", "expr.calculus.eval_numeric",
    "expr.sampling.is_zero_sampled", "expr.sampling.sample_box",
    "symmetry.determining_residuals", "symmetry.symmetry_check",
    "reduction.similarity_reduce", "reduction.classify_target",
    "synth.rossby_residual_report", "numverify.fd_solve",
    "numverify.eval_on_grid", "numverify.convergence_order",
    "numverify.mode_solve", "numverify.shoot", "cli.main", "cli.solution_csv",
)


def _layer_values(tracer, out_bytes):
    """One traced pass -> {metric: value} (counts exact, times in seconds)."""
    values = {}
    for key in COUNT_KEYS:
        if key.endswith(".calls"):
            values[key] = tracer.calls[key[:-len(".calls")]]
        else:
            values[key] = tracer.counts[key]
    shots = tracer.calls["numverify.shoot"]
    values["numverify.modes_per_shot"] = (
        tracer.counts["numverify.modes_found"] / shots if shots else 0.0)
    values["cli.output_bytes"] = out_bytes
    for key in SELF_KEYS:
        values[key + ".self_s"] = tracer.self_s[key]
    values["synth.self_s"] = sum(v for k, v in tracer.self_s.items()
                                 if k.startswith("synth."))
    values["trace.spans"] = len(tracer.starts)
    return values


PER_LAYER_UNITS = {".calls": "count", ".points": "count", ".nodes": "count",
                   ".steps": "count", ".self_s": "s", "_bytes": "bytes",
                   "_per_shot": "ratio", ".spans": "count"}


def per_layer(untraced, traced, layers):
    metrics = {}
    mismatched = []
    for key in layers[0]:
        unit = next(u for suffix, u in PER_LAYER_UNITS.items()
                    if key.endswith(suffix))
        values = [layer[key] for layer in layers]
        if unit == "s":
            metrics[key] = (statistics.median(values), unit)
        else:
            if any(v != values[0] for v in values):
                mismatched.append(key)
            metrics[key] = (values[0], unit)
    plain = _jobs_per_s(untraced)
    with_spans = _jobs_per_s(traced)
    metrics["trace.untraced_jobs_per_s"] = (plain, "jobs/s")
    metrics["trace.traced_jobs_per_s"] = (with_spans, "jobs/s")
    metrics["trace.overhead_jobs_per_s"] = (plain - with_spans, "jobs/s")
    return metrics, mismatched


def provenance(args, numpy):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "src_sha256": _tree_digest(SRC),
        "load": "closed loop, 1 client, 1 thread, in-process",
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    imported = _import_liewave()
    if imported is None:
        return 2
    cli, numpy = imported
    work = OUT / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, work / "in")
        runner = Runner(cli, jobs, work, args.seed % 1000)
        try:
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
                untraced, traced, layers = run_traced(runner, tracer, args.seconds)
                metrics, mismatched = per_layer(untraced, traced, layers)
                notes = {"jobs_per_pass": len(jobs), "untraced_passes": len(untraced),
                         "traced_passes": len(traced),
                         "counts_not_repeated": mismatched}
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
                tracer.write_spans(spans, json.dumps(provenance(args, numpy)))
                notes["spans_file"] = str(spans.relative_to(ROOT))
            else:
                setup = measure_setup(args.workload, args.seed, work)
                passes, raw_passes = run_untraced(runner, args.seconds)
                metrics, notes = end_to_end(passes, raw_passes, jobs, setup)
                mismatched = []
        finally:
            runner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for pass_no, name, problem in runner.problems[:20]:
        print(f"FAILED pass {pass_no} {name}: {problem}", file=sys.stderr)
    failed_share = runner.failed / runner.attempted
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{runner.attempted} jobs attempted, {runner.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(f"  {'failed_share':45s} {failed_share:.6g} ratio")
    notes["probe_median_s"] = statistics.median(runner.probes)
    notes["probe_reference_s"] = probe.REFERENCE_S
    print(json.dumps({"provenance": provenance(args, numpy), "notes": notes}))
    result = {
        "correct": runner.failed == 0 and not mismatched,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
