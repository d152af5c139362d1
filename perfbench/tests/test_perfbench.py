"""The benchmark's own tests: its checks catch tampering, its span
arithmetic holds, and its simulated metrics repeat exactly.

    python3 -m pytest -q perfbench/tests

Workloads run here at reduced sizes, so they are checked against
digests recorded in the test, not against perfbench/reference.json."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, workloads
from perfbench.spans import layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
RUN = str(ROOT / "perfbench" / "run.py")
REPORT = (ROOT / "benchmarks" / "results" / "results_full.txt").read_text()


def small(name):
    sizes = {
        "store-ycsb-a": dict(ops=300, keyspace=64),
        "cluster-failover": dict(ops=120, keyspace=64, horizon=20),
    }
    return workloads.make(name, **sizes[name])


def empty_reference():
    return {name: {"digests": {}} for name in ("store-ycsb-a", "cluster-failover")}


# ----------------------------------------------------------------------
# checks catch a tampered reference
# ----------------------------------------------------------------------

def _figure_from_report(figure, series, apps):
    from repro.analysis.experiments import FigureResult

    printed = workloads.reference_rows(REPORT, figure, series)
    fig = FigureResult(figure=figure, series=tuple(series))
    for app in apps:
        row = {"benchmark": app, "suite": "x"}
        row.update({s: float(v) for s, v in zip(series, printed[app])})
        fig.rows.append(row)
    return fig


def test_figure_rows_match_the_report_and_digest():
    fig = _figure_from_report("Fig. 7", ("Capri", "PPA", "LightWSP"), ("mcf", "xz"))
    digests = {"Fig. 7": workloads.rows_digest(fig.rows)}
    assert workloads.check_figures([fig], REPORT, digests) == ([], [])


def test_tampered_reference_row_fails_the_check():
    fig = _figure_from_report("Fig. 7", ("Capri", "PPA", "LightWSP"), ("mcf", "xz"))
    digests = {"Fig. 7": workloads.rows_digest(fig.rows)}
    tampered = REPORT.replace(
        "xz                1.171       1.037       0.997",
        "xz                1.171       1.037       0.998",
    )
    assert tampered != REPORT
    bad, problems = workloads.check_figures([fig], tampered, digests)
    assert bad == ["Fig. 7"] and "xz" in problems[0]


def test_tampered_row_digest_fails_the_check():
    fig = _figure_from_report("Fig. 11", ("WPQ-256", "WPQ-128", "WPQ-64"), ("intruder",))
    bad, problems = workloads.check_figures([fig], REPORT, {"Fig. 11": "0" * 16})
    assert bad == ["Fig. 11"] and "digest" in problems[0]


@pytest.mark.parametrize("name", ["store-ycsb-a", "cluster-failover"])
def test_tampered_serving_digest_fails_the_check(name):
    workload = small(name)
    reference = empty_reference()
    result = workload.run(workload.prepare(5))
    clean = workload.check(result, 5, reference)
    assert clean.problems == [] and clean.failed == 0
    reference[name]["digests"]["5"] = clean.digest
    assert workload.check(result, 5, reference).problems == []
    reference[name]["digests"]["5"] = "0" * 16
    tampered = workload.check(result, 5, reference)
    assert tampered.problems and tampered.failed == tampered.attempted
    assert tampered.ok_units == 0


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def _span(span_id, name, parent, start, end):
    return {"id": span_id, "name": name, "parent": parent,
            "start_ns": start, "end_ns": end, "counts": {}}


def test_self_time_subtracts_child_spans():
    spans = [
        _span(1, "parallel.fan_out", None, 0, 100),
        _span(2, "core.run", 1, 10, 40),
        _span(3, "core.run", 1, 50, 90),
        _span(4, "core.crash", 3, 60, 70),
    ]
    own = self_times(spans)
    assert own == {1: 30, 2: 30, 3: 30, 4: 10}
    metrics = layer_metrics(spans)
    assert metrics["core.run_s"] == pytest.approx(70e-9)
    assert metrics["core.run_self_s"] == pytest.approx(60e-9)


def test_self_time_never_exceeds_total_in_a_traced_pass():
    workload = small("cluster-failover")
    traced = harness.run_pass(workload, 3, empty_reference(), traced=True)
    assert traced.outcome.problems == []
    metrics = layer_metrics(traced.spans)
    assert metrics["parallel.fan_out_calls"] > 0
    assert metrics["core.run_calls"] > 0
    for stem in ("core.run", "cluster.epoch", "parallel.fan_out"):
        assert 0 <= metrics[stem + "_self_s"] <= metrics[stem + "_s"]
    for span_id, ns in self_times(traced.spans).items():
        span = next(s for s in traced.spans if s["id"] == span_id)
        assert 0 <= ns <= span["end_ns"] - span["start_ns"]


def test_simulate_repeats_are_keyed_on_every_argument():
    from repro.analysis import experiments
    from perfbench.spans import Tracer

    tracer = Tracer()
    probe = tracer._simulate_probe(experiments.simulate)
    events = [object()] * 3
    calls = [
        ((events, "cfg", "pol"), {"hardware_cores": 2}),
        ((events, "cfg", "pol", None, 2), {}),
        ((events, "cfg", "pol", 0.5), {"hardware_cores": 2}),
        ((events, "cfg", "pol"), {"hardware_cores": 2, "ack_faults": "f"}),
        ((events, "cfg", "pol", 0.5, 2), {}),
    ]
    repeats = [probe(args, kwargs)(None)["repeat"] for args, kwargs in calls]
    assert repeats == [0, 1, 0, 0, 1]


# ----------------------------------------------------------------------
# simulated metrics repeat exactly
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["store-ycsb-a", "cluster-failover"])
def test_sim_metrics_identical_across_runs_and_under_tracing(name):
    reference = empty_reference()
    first = harness.run(small(name), 9, 0, False, reference)
    second = harness.run(small(name), 9, 0, True, reference)
    assert first["correct"] and second["correct"]
    assert second["detail"]["traced_passes"] == 1
    assert first["detail"]["sim"] == second["detail"]["sim"]
    assert first["detail"]["digest"] == second["detail"]["digest"]
    assert any(first["detail"]["sim"].values())
    for metric in harness.SIM_METRICS:
        assert second["metrics"][metric]["value"] == first["detail"]["sim"][metric]


def test_runs_print_exactly_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = empty_reference()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        summary = harness.run(small("store-ycsb-a"), 4, 0, trace, reference)
        printed = {n: m["unit"] for n, m in summary["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[key]}
        if not trace:
            assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_a_pass_that_disagrees_with_the_first_fails_the_run():
    workload = small("store-ycsb-a")
    passes = [harness.run_pass(workload, 2, empty_reference(), False)
              for _ in range(2)]
    passes[1].outcome.sim = dict(passes[1].outcome.sim, sim_p99_ns=1.0)
    summary = harness.summarise(workload, 2, False, 0.1, passes)
    assert not summary["correct"]


# ----------------------------------------------------------------------
# the command line refuses what it cannot measure
# ----------------------------------------------------------------------

def test_refuses_a_code_path_switch():
    env = dict(os.environ, REPRO_SIM_VECTOR="0")
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "store-ycsb-a", "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert "REPRO_SIM_VECTOR" in out.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
