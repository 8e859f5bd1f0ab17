#!/usr/bin/env python3
"""Sample where one benchmark workload's jobs spend their CPU time.

    python3 tools/sample_profile.py <workload> <seed> [--passes N] > shares.txt

The jobs are those `bench/workloads.build` makes for <workload> and <seed>
(read from this checkout's `bench/`, which is not changed), run through
this checkout's `src/` in this process, as the benchmark runs them, inside
a fresh temporary directory.  One unsampled pass lets caches fill; then N
passes (default 5) run with an ITIMER_PROF timer that asks for an
interrupt every millisecond of CPU time the process uses; the kernel may
deliver it only at its clock tick, which is often coarser.  At each
interrupt the handler walks the interrupted Python stack up to the job's
`cli.main` call; an interrupt outside a job is dropped.

Its first line gives the samples taken, the CPU seconds the sampled passes
used and the CPU time per sample that follows (the interval the timer
actually had), and the one-sigma sampling error of a 5 % share,
sqrt(p (1 - p) / samples) at p = 0.05.  The second line splits that CPU
time into user and system time and gives the minor page faults of the
sampled passes (`resource.getrusage`): the kernel's work, such as a page
fault or a file's creation, is charged to whichever Python frame runs
next, so a frame's share may be system time.  Below them, per module and per
function (`module.qualname`), it prints the share of samples in which it
was on the stack (inclusive: a recursive function counts once per sample)
and the share in which it was the innermost Python frame (self: time in C
code is charged to the Python function that called it).  Functions are
ranked twice: the top 40 by inclusive share, then the top 40 by self share,
where a small function called often (a hash, a sort key) shows even when
it is far down the inclusive ranking.  Unlike cProfile,
this adds nothing to each call, so small functions called often are not
overstated.  Exit 1 if a job's exit code is not the one the workload
expects.  Unix only (signal.setitimer); stdlib only.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import math
import os
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INTERVAL_S = 0.001  # CPU time between samples asked of the timer
TOP = 40            # function rows printed


class _Sampler:
    """SIGPROF handler that counts the Python frames of each sample below
    (and including) the frame running `stop_code`."""

    def __init__(self, stop_code):
        self.stop_code = stop_code
        self.samples = 0
        # (module, qualname) and module -> samples
        self.inclusive = collections.Counter()
        self.self_ = collections.Counter()

    def __call__(self, signum, frame):
        labels = []
        while frame is not None:
            code = frame.f_code
            # co_qualname is new in Python 3.11; 3.10 has only co_name
            labels.append((frame.f_globals.get("__name__", "?"),
                           getattr(code, "co_qualname", code.co_name)))
            if code is self.stop_code:
                break
            frame = frame.f_back
        else:
            return  # outside a job
        self.samples += 1
        self.self_[labels[0]] += 1
        self.self_[labels[0][0]] += 1
        self.inclusive.update(set(labels) | {module for module, _ in labels})


def _run(cli, job, seed: int, out: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--out", out, "--seed", str(seed % 1000)] + job.argv)


def _table(title: str, sampler: _Sampler, kind, rows: int,
           by_self: bool = False) -> list:
    """The `rows` labels of type `kind` with the largest inclusive share,
    or self share when `by_self`."""
    total = sampler.samples
    lines = [title, f"{'incl %':>7} {'self %':>7}  name"]
    counts = sampler.self_ if by_self else sampler.inclusive
    ranked = [(n, label) for label, n in counts.items()
              if isinstance(label, kind)]
    for n, label in sorted(ranked, key=lambda r: (-r[0], r[1]))[:rows]:
        name = label if kind is str else ".".join(label)
        lines.append(f"{100 * n / total:7.1f} "
                     f"{100 * sampler.self_[label] / total:7.1f}  {name}")
    return lines


def _header(workload: str, seed: int, jobs: int, passes: int, samples: int,
            cpu_s: float) -> str:
    """The first line: what was sampled, and how finely."""
    line = (f"{workload} seed {seed}: {jobs} jobs x {passes} passes, "
            f"{samples} samples in {cpu_s:.2f} s of CPU")
    if not samples:
        return line
    error = 100 * math.sqrt(0.05 * 0.95 / samples)
    return (f"{line} ({1e3 * cpu_s / samples:.2f} ms of CPU per sample; "
            f"a 5 % share is +-{error:.2f} % at one sigma)")


def _kernel(before, after) -> str:
    """The second line: user and system CPU and minor page faults between
    two `resource.getrusage` readings."""
    return (f"kernel: {after.ru_utime - before.ru_utime:.2f} s user and "
            f"{after.ru_stime - before.ru_stime:.2f} s system CPU, "
            f"{after.ru_minflt - before.ru_minflt} minor page faults")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--passes", type=int, default=5,
                    help="sampled passes over the jobs (default 5)")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be >= 1")
    sys.path.insert(0, str(HERE / "bench"))
    sys.path.insert(0, str(HERE / "src"))
    import workloads
    import liewave.cli as cli

    sampler = _Sampler(cli.main.__code__)
    home = Path.cwd()
    wrong = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            jobs = workloads.build(args.workload, args.seed, Path("in"))
            for job in jobs:  # warm-up pass, not sampled
                _run(cli, job, args.seed, "out")
            # one timer for all passes: the kernel may fire it only at its
            # clock tick, so one re-armed per job would miss short jobs;
            # samples between jobs are dropped by the sampler
            previous = signal.signal(signal.SIGPROF, sampler)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            cpu0 = time.process_time()
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            try:
                for _ in range(args.passes):
                    for job in jobs:
                        rc = _run(cli, job, args.seed, "out")
                        if rc != job.exit_code:
                            wrong.append(f"{job.name}: exit {rc}, "
                                         f"expected {job.exit_code}")
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0.0)
                cpu_s = time.process_time() - cpu0
                usage1 = resource.getrusage(resource.RUSAGE_SELF)
                signal.signal(signal.SIGPROF, previous)
        finally:
            os.chdir(home)

    print(_header(args.workload, args.seed, len(jobs), args.passes,
                  sampler.samples, cpu_s))
    print(_kernel(usage0, usage1))
    if sampler.samples:
        print("\n".join(_table("by module", sampler, str, len(sampler.self_))))
        print()
        print("\n".join(_table(f"by function (top {TOP} inclusive)", sampler,
                               tuple, TOP)))
        print()
        print("\n".join(_table(f"by function (top {TOP} self)", sampler,
                               tuple, TOP, by_self=True)))
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
