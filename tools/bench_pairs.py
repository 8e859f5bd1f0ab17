#!/usr/bin/env python3
"""Run two checkouts' benchmarks in interleaved pairs and summarize them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B \\
        --seconds S [--trace 0|1] [--out RECORD.json --set NAME [--note T]]

PARENT and CHANGE are liewave checkouts; each runs its own `bench/run.py`
from its root, so each side builds and runs what it holds.  Seeds A..B
give one pair each: both sides run the same seed, the parent first on
even pairs (counted from 0) and the change first on odd ones, so a drift
of the machine's speed falls on both sides alike.  Every run's last line
(the runner's result object) is printed as it arrives, prefixed with its
seed and side, and then the summary of the set:

- pairs, attempted and failed (summed over both sides), all_correct;
- per metric (end-to-end, or per-layer with --trace 1): the medians of
  each side, change_pct (the change median against the parent median, in
  percent), the quartiles of each side (`statistics.quantiles(n=4)`, the
  first and the third), parent_iqr, and change_better_in, "k of n": the
  pairs in which the change's value is better than its parent's, in the
  direction BENCHMARK.json gives.

With --out and --set, the runs are also added to the JSON record
RECORD.json (created if missing) under sets[NAME] (with the runner's
command line and the --note text), and summary[NAME][W] becomes the summary of all of the
set's runs of W: the layout of the committed BENCH_*.json files, so one
record can hold several sets and workloads, and a set can grow.
Stdlib only; it changes nothing under the checkouts' `bench/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def _better(checkout: Path) -> dict:
    """metric name -> "higher" or "lower", from its BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec.get("per_layer", [])}


def run_one(checkout: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One bench/run.py run in `checkout`; its last line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs: list, better: dict) -> dict:
    """The summary of one workload's runs: each run is a dict with the keys
    seed, side ("parent" or "change") and result (the runner's last line).
    A metric missing from better counts as better when lower."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
    results = [r["result"] for r in runs]
    out = {
        "pairs": len(pairs),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "all_correct": all(r["correct"] for r in results),
    }
    for name in results[0]["metrics"]:
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs.values()]
                for s in ("parent", "change")}
        higher = better.get(name) == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(side["parent"], side["change"]))
        parent, change = (statistics.median(side[s])
                          for s in ("parent", "change"))
        parent_q = _quartiles(side["parent"])
        out[name] = {
            "parent_median": parent,
            "change_median": change,
            "change_pct": (100 * (change - parent) / parent if parent
                           else None),  # a count that is 0 on this workload
            "parent_quartiles": parent_q,
            "change_quartiles": _quartiles(side["change"]),
            "parent_iqr": parent_q[1] - parent_q[0],
            "change_better_in": f"{wins} of {len(pairs)}",
        }
    return out


def store(record: Path, set_name: str, workload: str, runs: list,
          better: dict, command: str, note: str = "") -> None:
    """Add runs to set `set_name` of the JSON record at `record`, and
    summarize the workload over all of the set's runs of it.  A note, when
    given, replaces the set's note."""
    data = json.loads(record.read_text()) if record.exists() else {}
    entry = data.setdefault("sets", {}).setdefault(
        set_name, {"command": command, "runs": []})
    if note:
        entry["note"] = note
    entry["runs"].extend(runs)
    data.setdefault("summary", {}).setdefault(set_name, {})[workload] = \
        summarize([r for r in entry["runs"] if r["workload"] == workload],
                  better)
    record.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds,
                    help="A-B: one pair per seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="JSON record to add the set to")
    ap.add_argument("--set", dest="set_name", help="the set's name in --out")
    ap.add_argument("--note", default="",
                    help="what the set measures, stored with it in --out")
    args = ap.parse_args(argv)
    if (args.out is None) != (args.set_name is None):
        ap.error("--out and --set go together")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_one(checkouts[side], args.workload, seed,
                             args.seconds, args.trace)
            runs.append({"workload": args.workload, "seed": seed,
                         "side": side, "first": order[0], "result": result})
            print(f"{args.workload} seed {seed} {side}: {json.dumps(result)}",
                  flush=True)
    better = _better(checkouts["change"])
    summary = summarize(runs, better)
    print(json.dumps({"workload": args.workload, "summary": summary}))
    if args.out is not None:
        command = (f"python3 bench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace {args.trace}")
        store(args.out, args.set_name, args.workload, runs, better, command,
              args.note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
