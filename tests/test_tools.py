"""The tools under tools/ that the suite can run without a workload."""

import importlib.util
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
