"""Tests of the benchmark itself: smoke runs, span self times, wrapper removal."""

import json
import os
import types

import pytest

import compare
import run
import tracing

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    record = run.run_benchmark(workload, seed=3, seconds=0, trace=bool(trace),
                               tiny=True)
    line = record["result"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name, mv in line["metrics"].items():
        assert isinstance(mv["value"], float), name
    if trace:
        assert set(run.TRACE_DETAIL_UNITS) <= set(record["metrics"])
    else:
        assert record["metrics"]["failed_frac"]["value"] == 0.0
    assert not os.listdir(tmp_path / "work")


def _span(id, parent, start, end):
    return tracing.Span(id, parent, 0, f"s{id}", start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),    # overlaps span 1
        _span(3, 0, 8.0, 12.0),   # runs past its parent
        _span(4, 1, 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}


def _lrhist_modules():
    mods = run.import_lrhist()
    return [m for k, m in mods.items() if k != "numpy"]


def test_install_then_remove_restores_every_attribute():
    mods = _lrhist_modules()
    before = [dict(vars(m)) for m in mods]
    tracer = tracing.Tracer()
    tracer.install(mods)
    experiment = mods[[m.__name__ for m in mods].index("lrhist.experiment")]
    assert experiment.mu_fit_batch is not before[mods.index(experiment)]["mu_fit_batch"]
    tracer.remove()
    for m, snapshot in zip(mods, before):
        after = vars(m)
        assert after.keys() == snapshot.keys(), m.__name__
        for k, v in snapshot.items():
            assert after[k] is v, f"{m.__name__}.{k}"


def test_spans_nest_under_the_caller():
    mod = types.ModuleType("lrhist.fake")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    inner.__module__ = outer.__module__ = "lrhist.fake"
    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.install([mod])
    try:
        assert mod.outer() == 2
    finally:
        tracer.remove()
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("fake.outer", None, 0), ("fake.inner", 0, 0),
                     ("fake.inner", 0, 0)]


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "higher", "gain"),
    ([10, 10.1, 9.9, 10, 10.05], [10, 10.1, 9.9, 10, 10.05], "higher", "no regression"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "higher", "regression"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "lower", "gain"),
    ([5, 15, 10, 6, 14], [10, 10, 10, 10, 10], "higher", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    p = list(enumerate(parent))
    c = list(enumerate(change))
    assert compare.verdict(p, c, better, bound=0.1)["verdict"] == expected
