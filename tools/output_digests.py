#!/usr/bin/env python3
"""Digest every output of one benchmark workload, run through a given tree.

    python3 tools/output_digests.py <tree> <workload> <seed> [--reverse] > digests.txt

<tree> is a liewave checkout (its `src/` is imported).  The inputs come from
this checkout's `bench/workloads.build`, so two trees digested by the same
copy of this script run the same jobs on the same files.  Every job runs
once, in this process, as the benchmark runs it (`--out`, `--seed` as in
`bench/run.py`), inside a fresh temporary directory with relative paths, so
paths written into reports do not depend on where the run took place.

Per job it prints the exit code, the sha256 of every output file, of
stdout, and of stderr with the `wall time:` line removed (the one output
that differs from run to run).  Two trees produce the same bytes exactly
when `diff` of their digest files is empty.  With --reverse the jobs run
last to first and are still printed in job order, so a diff against the
forward run shows any output that depends on the jobs run before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(cli, job, seed: int, out: Path) -> list:
    """Run one job into `out`; its digest lines."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["--out", str(out), "--seed", str(seed % 1000)]
                      + job.argv)
    err = "".join(line for line in stderr.getvalue().splitlines(keepends=True)
                  if not line.startswith("wall time: "))
    lines = [f"{job.name}\texit\t{rc}"]
    for path in sorted(out.rglob("*")):
        if path.is_file():
            lines.append(f"{job.name}\t{path.relative_to(out).as_posix()}"
                         f"\t{_sha(path.read_bytes())}")
    lines.append(f"{job.name}\tstdout\t{_sha(stdout.getvalue().encode())}")
    lines.append(f"{job.name}\tstderr\t{_sha(err.encode())}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    reverse = argv[3:] == ["--reverse"]
    if len(argv) != 3 and not reverse:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    tree, workload, seed = Path(argv[0]).resolve(), argv[1], int(argv[2])
    sys.path.insert(0, str(HERE / "bench"))
    sys.path.insert(0, str(tree / "src"))
    import workloads
    import liewave.cli
    if not Path(liewave.cli.__file__).resolve().is_relative_to(tree / "src"):
        print(f"liewave was imported from {liewave.cli.__file__}, "
              f"not from {tree / 'src'}", file=sys.stderr)
        return 2

    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            jobs = workloads.build(workload, seed, Path("in"))
            order = range(len(jobs))
            digests = {i: _digest(liewave.cli, jobs[i], seed,
                                  Path(f"out-{i:02d}"))
                       for i in (reversed(order) if reverse else order)}
        finally:
            os.chdir(home)
    for i in order:
        print("\n".join(digests[i]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
