"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import golden, run, stats, tracing, workloads  # noqa: E402
from repro.faults import campaign_library  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_reportable(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= 10


def test_floor_takes_each_windows_fastest_repetition():
    assert stats.floor([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        stats.floor([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        stats.floor([])


def test_median_and_scaling_exponent():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.scaling_exponent([10, 20, 40], [1.0, 2.0, 4.0]) == pytest.approx(1.0)
    assert stats.scaling_exponent([10, 20, 40], [1.0, 4.0, 16.0]) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # root(0..100) > child(10..60) > grandchild(20..30); root > sibling(70..90)
    names = [0, 1, 2, 1]
    starts = [0, 10, 20, 70]
    ends = [100, 60, 30, 90]
    parents = [-1, 0, 1, 0]
    totals = tracing.self_times(names, starts, ends, parents)
    assert totals == {0: 100 - 50 - 20, 1: (50 - 10) + 20, 2: 10}
    assert sum(totals.values()) == 100  # self times partition the root


class _Layered:
    """Stand-in layers: ``outer`` calls ``inner`` twice."""

    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


def test_ledger_records_nested_spans_and_counts():
    ticks = itertools.count(0, 10)
    hooks = (
        tracing.Hook(f"{__name__}:_Layered.outer", span="outer_ms", count="outer_calls"),
        tracing.Hook(f"{__name__}:_Layered.inner", span="inner_ms", count="inner_calls"),
    )
    ledger = tracing.Ledger(hooks, clock=lambda: next(ticks))
    with ledger:
        assert _Layered().outer() == "done"
    # clock reads: outer start 0, inner 10..20, inner 30..40, outer end 50
    self_ms, counts = ledger.fold()
    assert counts == {"outer_calls": 1, "inner_calls": 2}
    assert self_ms == {"outer_ms": 30 / 1e6, "inner_ms": 20 / 1e6}
    # folding resets the ledger
    assert ledger.fold() == ({"outer_ms": 0.0, "inner_ms": 0.0},
                             {"outer_calls": 0, "inner_calls": 0})


def test_ledger_restores_every_wrapped_method():
    before = {}
    for hook in tracing.HOOKS:
        cls, attr = tracing._resolve(hook.target)
        before[hook.target] = (cls, attr, cls.__dict__.get(attr, tracing._ABSENT))
    with tracing.Ledger() as ledger:
        assert ledger.missing == []
        for cls, attr, original in before.values():
            assert cls.__dict__.get(attr, tracing._ABSENT) is not original
    for cls, attr, original in before.values():
        assert cls.__dict__.get(attr, tracing._ABSENT) is original


def test_ledger_restores_on_error_and_skips_missing_targets():
    hooks = (tracing.Hook(f"{__name__}:_Layered.inner", span="inner_ms"),
             tracing.Hook(f"{__name__}:_Layered.gone", span="gone_ms"))
    original = _Layered.__dict__["inner"]
    ledger = tracing.Ledger(hooks)
    with pytest.raises(RuntimeError):
        with ledger:
            raise RuntimeError("boom")
    assert _Layered.__dict__["inner"] is original
    assert ledger.missing == [f"{__name__}:_Layered.gone"]


# ----------------------------------------------------------------------
# Seeded inputs and determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    make = workloads.INPUTS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_corpus_seeds_are_consecutive():
    assert workloads.corpus_inputs(0)["campaign_seeds"] == list(range(10))
    assert workloads.corpus_inputs(3)["campaign_seeds"] == list(range(30, 40))


@pytest.mark.parametrize("workload", ["fleet-dataplane", "fleet-planes"])
def test_small_fleet_repeats_exactly(workload):
    inputs = workloads.INPUTS[workload](1, devices=8, horizon=120.0)
    first = workloads.RUNNERS[workload](inputs)
    second = workloads.RUNNERS[workload](inputs)
    assert first.digest == second.digest
    assert workloads.sim_metrics(first.outcome) == workloads.sim_metrics(second.outcome)
    assert all(ok for __, ok, __ in first.checks)


def test_planes_setup_records_uncommitted_epochs_instead_of_waiting(monkeypatch):
    monkeypatch.setattr(workloads, "PLANES_COMMIT_DEADLINE", 0.0)
    rep = workloads.run_planes(workloads.planes_inputs(1, devices=4, horizon=30.0))
    verdicts = {name: ok for name, ok, __ in rep.checks}
    assert verdicts["onboarding epochs commit"] is False


def test_corpus_times_build_home_apart_and_restores_it():
    original = campaign_library.build_home
    names = list(workloads.CAMPAIGNS)[:2]
    rep = workloads.run_corpus({"campaign_seeds": [0], "campaigns": names})
    assert campaign_library.build_home is original
    assert len(rep.windows_s) == 2
    assert rep.setup_s > 0 and all(w > 0 for w in rep.windows_s)


def test_corpus_restores_build_home_on_error(monkeypatch):
    original = campaign_library.build_home

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads, "run_campaign", boom)
    with pytest.raises(RuntimeError):
        workloads.run_corpus({"campaign_seeds": [0], "campaigns": list(workloads.CAMPAIGNS)[:1]})
    assert campaign_library.build_home is original


# ----------------------------------------------------------------------
# Golden reference
# ----------------------------------------------------------------------
def test_golden_has_a_fingerprint_per_workload():
    entries = golden.load()
    assert sorted(entries) == sorted(workloads.WORKLOADS)
    sim_keys = set(workloads.sim_metrics(workloads.Outcome()))
    for entry in entries.values():
        assert set(entry) == {"digest", "sim", "misses"}
        assert set(entry["sim"]) == sim_keys


def test_golden_names_what_differs():
    want = {"digest": "a", "misses": [], "sim": {"ttc_p50_s": 1.0, "detection_recall": 1.0}}
    got = {"digest": "b", "misses": [], "sim": {"ttc_p50_s": 2.0, "detection_recall": 1.0}}
    assert golden._differences(got, want) == "differs in digest, sim.ttc_p50_s"


# ----------------------------------------------------------------------
# Contract with BENCHMARK.json and the command line
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {name: unit for name, unit, __, __ in run.END_TO_END}
    better = {name: b for name, __, __, b in run.END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == units[metric["name"]]
        assert metric["better"] == better[metric["name"]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-dataplane",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
