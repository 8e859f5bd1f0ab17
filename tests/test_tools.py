"""The tools under tools/ that the suite can run without a workload."""

import importlib.util
import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sample_profile.py"
_SPEC = importlib.util.spec_from_file_location("sample_profile", _PATH)
sample_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sample_profile)


def _frame(module, code, back=None):
    return SimpleNamespace(f_code=code, f_globals={"__name__": module},
                           f_back=back)


def test_sampler_counts_frames_up_to_the_job():
    def job():
        sampler(signal.SIGPROF, sys._getframe())

    sampler = sample_profile._Sampler(job.__code__)
    job()
    sampler(signal.SIGPROF, sys._getframe())  # outside a job: dropped
    assert sampler.samples == 1
    label = (__name__, job.__qualname__)
    assert sampler.self_[label] == sampler.inclusive[label] == 1
    assert sampler.inclusive[__name__] == 1


def test_sampler_reads_code_without_a_qualname():
    # Python 3.10's code objects have co_name only
    stop = SimpleNamespace(co_name="main")
    inner = SimpleNamespace(co_name="step")
    sampler = sample_profile._Sampler(stop)
    sampler(signal.SIGPROF, _frame("a.b", inner, _frame("a.cli", stop)))
    assert sampler.samples == 1
    assert sampler.self_[("a.b", "step")] == 1
    assert sampler.inclusive[("a.cli", "main")] == 1


def test_header_reports_the_measured_interval_and_error():
    line = sample_profile._header("fd-modes", 3, 42, 20, 400, 2.0)
    assert line == ("fd-modes seed 3: 42 jobs x 20 passes, 400 samples in "
                    "2.00 s of CPU (5.00 ms of CPU per sample; a 5 % share "
                    "is +-1.09 % at one sigma)")
    # no samples: nothing to divide by
    assert sample_profile._header("fd-modes", 3, 42, 1, 0, 0.01) == (
        "fd-modes seed 3: 42 jobs x 1 passes, 0 samples in 0.01 s of CPU")


def test_kernel_line_gives_user_and_system_cpu_and_minor_faults():
    before = SimpleNamespace(ru_utime=1.5, ru_stime=0.25, ru_minflt=1000)
    after = SimpleNamespace(ru_utime=3.75, ru_stime=0.5, ru_minflt=1917)
    assert sample_profile._kernel(before, after) == (
        "kernel: 2.25 s user and 0.25 s system CPU, 917 minor page faults")


def test_function_tables_rank_by_inclusive_and_by_self_share():
    # two samples in a.outer (one of them in a.inner), one in a.leaf:
    # outer leads the inclusive ranking and leaf the self ranking
    stop = SimpleNamespace(co_name="main")
    outer, inner, leaf = (SimpleNamespace(co_name=n)
                          for n in ("outer", "inner", "leaf"))
    sampler = sample_profile._Sampler(stop)
    job = _frame("a", stop)
    sampler(signal.SIGPROF, _frame("a", inner, _frame("a", outer, job)))
    sampler(signal.SIGPROF, _frame("a", leaf, job))
    sampler(signal.SIGPROF, _frame("a", leaf, job))
    assert sample_profile._table("incl", sampler, tuple, 3) == [
        "incl", " incl %  self %  name",
        "  100.0     0.0  a.main",
        "   66.7    66.7  a.leaf",
        "   33.3    33.3  a.inner"]
    assert sample_profile._table("self", sampler, tuple, 3,
                                 by_self=True) == [
        "self", " incl %  self %  name",
        "   66.7    66.7  a.leaf",
        "   33.3    33.3  a.inner"]  # no self samples, no row: main, outer


_PAIRS_PATH = _PATH.parent / "bench_pairs.py"
_PAIRS_SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                                     _PAIRS_PATH)
bench_pairs = importlib.util.module_from_spec(_PAIRS_SPEC)
_PAIRS_SPEC.loader.exec_module(bench_pairs)


def _result(jobs_per_s, tail_s, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
                        "job_tail_s": {"value": tail_s, "unit": "s"}}}


def test_bench_pairs_summary_arithmetic():
    # four pairs, the sides listed in each pair's run order (parent first
    # on even pairs); the change is faster in three of them
    canned = [(1, "parent", _result(100.0, 0.010)),
              (1, "change", _result(110.0, 0.009)),
              (2, "change", _result(104.0, 0.011)),
              (2, "parent", _result(105.0, 0.010)),
              (3, "parent", _result(90.0, 0.012)),
              (3, "change", _result(120.0, 0.008, attempted=90)),
              (4, "change", _result(100.0, 0.010, failed=2)),
              (4, "parent", _result(95.0, 0.011))]
    runs = [{"workload": "w", "seed": seed, "side": side, "result": result}
            for seed, side, result in canned]
    got = bench_pairs.summarize(runs, {"jobs_per_s": "higher",
                                       "job_tail_s": "lower"})
    assert (got["pairs"], got["attempted"], got["failed"],
            got["all_correct"]) == (4, 790, 2, False)
    jobs = got["jobs_per_s"]
    # parent 90, 95, 100, 105; change 100, 104, 110, 120
    assert jobs["parent_median"] == 97.5
    assert jobs["change_median"] == 107.0
    assert jobs["change_pct"] == 100 * (107.0 - 97.5) / 97.5
    # statistics.quantiles(n=4), exclusive: positions (n + 1) p
    assert jobs["parent_quartiles"] == [91.25, 103.75]
    assert jobs["change_quartiles"] == [101.0, 117.5]
    assert jobs["parent_iqr"] == 12.5
    assert jobs["change_better_in"] == "3 of 4"
    tail = got["job_tail_s"]
    assert tail["parent_median"] == (0.010 + 0.011) / 2
    assert tail["change_better_in"] == "3 of 4"  # lower is better
    assert tail["parent_iqr"] == tail["parent_quartiles"][1] - \
        tail["parent_quartiles"][0]


def test_bench_pairs_one_pair_has_a_zero_spread():
    runs = [{"seed": 5, "side": "parent", "result": _result(80.0, 0.01)},
            {"seed": 5, "side": "change", "result": _result(80.0, 0.01)}]
    got = bench_pairs.summarize(runs, {"jobs_per_s": "higher"})
    assert got["all_correct"] and got["pairs"] == 1
    assert got["jobs_per_s"]["parent_quartiles"] == [80.0, 80.0]
    assert got["jobs_per_s"]["parent_iqr"] == 0.0
    assert got["jobs_per_s"]["change_better_in"] == "0 of 1"  # a tie


def test_bench_pairs_seed_ranges():
    assert bench_pairs._seeds("3-6") == [3, 4, 5, 6]
    assert bench_pairs._seeds("7") == [7]


def test_bench_pairs_reproduces_a_committed_summary():
    # BENCH_27.json's summary was assembled from its runs by hand
    root = _PATH.parent.parent
    record = json.loads((root / "BENCH_27.json").read_text())
    better = bench_pairs._better(root)
    for set_name in ("claim", "others"):
        runs = record["sets"][set_name]["runs"]
        for workload, want in record["summary"][set_name].items():
            got = bench_pairs.summarize(
                [r for r in runs if r["workload"] == workload], better)
            assert got == want


def test_bench_pairs_record_grows_and_summarizes_every_run(tmp_path):
    record = tmp_path / "BENCH.json"
    better = {"jobs_per_s": "higher"}

    def pair(seed, parent, change):
        return [{"workload": "w", "seed": seed, "side": "parent",
                 "result": _result(parent, 0.01)},
                {"workload": "w", "seed": seed, "side": "change",
                 "result": _result(change, 0.01)}]

    bench_pairs.store(record, "claim", "w", pair(1, 100.0, 90.0), better,
                      "cmd")
    bench_pairs.store(record, "claim", "w", pair(2, 100.0, 120.0)
                      + pair(3, 100.0, 130.0), better, "cmd", "seeds 1-3")
    data = json.loads(record.read_text())
    assert data["sets"]["claim"]["command"] == "cmd"
    assert data["sets"]["claim"]["note"] == "seeds 1-3"
    assert len(data["sets"]["claim"]["runs"]) == 6
    summary = data["summary"]["claim"]["w"]
    assert summary["pairs"] == 3
    assert summary["jobs_per_s"]["change_median"] == 120.0
    assert summary["jobs_per_s"]["change_better_in"] == "2 of 3"


def test_bench_pairs_zero_parent_median_has_no_percentage():
    runs = [{"seed": 1, "side": side,
             "result": {"correct": True, "attempted": 5, "failed": 0,
                        "metrics": {"numverify.fd_solve.calls":
                                    {"value": 0, "unit": "count"}}}}
            for side in ("parent", "change")]
    got = bench_pairs.summarize(runs, {})
    assert got["numverify.fd_solve.calls"]["change_pct"] is None
    assert got["numverify.fd_solve.calls"]["change_better_in"] == "0 of 1"
