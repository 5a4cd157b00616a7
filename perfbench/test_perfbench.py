"""Tests of the benchmark itself: tracer arithmetic and tiny runs of every workload."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from levybridge import pricing
from levybridge.laws import LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from perfbench import run as bench
from perfbench import tracer as tracing

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the issue-level metrics each workload reports next to the end-to-end ones
WORKLOAD_REPORT = {
    "quote": {"quote_per_s", "quote_p50_ms", "quote_p99_ms"},
    "option": {"option_p50_s", "psi_points_per_s", "option_wall_s"},
    "mc": {"path_steps_per_s", "oracle_wall_s"},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_call():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def inner(d):
        clock.now += d

    w_inner = tracing._make_wrapper(tr, inner, "b.inner", "b", "b.inner")

    def outer():
        clock.now += 1.0
        w_inner(3.0)
        clock.now += 2.0
        w_inner(1.0)
        clock.now += 4.0

    tracing._make_wrapper(tr, outer, "a.outer", "a", "a.outer")()
    assert tr.self_time == {"a": 7.0, "b": 4.0}
    assert tr.fn_self_time == {"a.outer": 7.0, "b.inner": 4.0}
    assert tr.calls == {"a.outer": 1, "b.inner": 2}
    assert tr.entries == {"a": 1, "b": 2}
    assert tr.nested == {("a.outer", "b.inner"): 2}
    assert [(tr.names[n], parent, start, end) for n, parent, start, end in tr.spans] == [
        ("a.outer", -1, 0.0, 11.0), ("b.inner", 0, 1.0, 4.0), ("b.inner", 0, 6.0, 7.0)]


def test_instrument_counts_nested_calls_and_restores():
    model = MarketModel(1.0, 1.0, 1.0, RateCurve.flat(0.0), PayoffDistribution.binary(0.0, 1.0, 0.5),
                        LevyLaw.poisson(1.0))
    original = pricing.likelihood_q
    expect = pricing.bond_price(model, 0.5, 0.7).price
    tr = tracing.Tracer()
    undo = tracing.instrument(tr)
    try:
        assert pricing.likelihood_q is not original
        assert pricing.bond_price(model, 0.5, 0.7).price == expect
    finally:
        undo()
    assert pricing.likelihood_q is original
    assert tr.calls["pricing.likelihood_q"] == 2
    assert tr.binding_calls["pricing.integrate_levy"] == 2
    assert tr.entries["numerics"] == 2
    assert tr.counts["numerics.integrand_evals.poisson"] > 0
    metrics = tracing.layer_metrics(tr)
    assert metrics["pricing.likelihood_q.calls"] == (2, "count")
    assert metrics["pricing.self_s"][0] > 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["quote", "option", "mc"])
def test_tiny_run_emits_every_metric(tmp_path, workload, trace):
    doc = bench.run(workload, 3, 0.01, trace, out_dir=str(tmp_path), tiny=True, setup_repeats=1)
    result = doc["result"]
    assert result["correct"], doc["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    reported = {row["name"] for row in doc["report"]}
    assert "fail_frac" in reported
    if not trace:
        assert WORKLOAD_REPORT[workload] | {"setup_s", "peak_rss_mb"} <= reported
        assert all(m["value"] > 0 for m in result["metrics"].values())
    prov = doc["provenance"]
    assert prov["seed"] == 3 and prov["workload"] == workload and prov["ops_per_pass"]
    assert os.path.exists(tmp_path / f"{workload}-seed3-trace{trace}.json")
    assert not [p for p in os.listdir(tmp_path) if p.startswith("work-")]


def test_traced_work_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        doc = bench.run("quote", 11, 0.01, 1, out_dir=str(tmp_path), tiny=True)
        counts.append({k: m["value"] for k, m in doc["result"]["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["numerics.integrate_levy.calls"] > 0


def test_setup_only_process_reports_its_setup_time():
    assert bench.child_setup_s("quote", 1) > 0.0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(os.path.dirname(bench.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quote", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_workload_reasons_match_the_spec():
    from perfbench.workloads import WORKLOADS

    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
