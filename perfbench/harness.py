"""Run one workload for a time budget and summarise it.

A run imports the program once, then repeats *passes* until the time
budget is spent (at least two).  Each pass prepares fresh inputs from
the seed (timed as set-up), runs the timed phase, and checks the
output after the clock stops.  Every pass starts from empty caches, as
the figure drivers and servers do.

Without tracing, every pass is untraced and the run reports the
end-to-end metrics.  With tracing, passes alternate untraced and
traced, starting untraced: the traced passes give the per-layer
metrics, and the untraced ones give the tracing overhead and the
deterministic values the traced passes must reproduce.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import workloads
from .spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_PASSES = 2

#: each of these selects a different code path from the one measured
GUARDED_ENV = (
    "REPRO_VERIFY",
    "REPRO_SIM_VECTOR",
    "REPRO_PARALLEL_FORCE_SERIAL",
    "REPRO_PARALLEL_KILL",
    "REPRO_TRACE_STRICT",
)

SIM_METRICS = ("sim_slowdown", "sim_p99_ns", "sim_mops", "sim_epochs")
#: counters the program reports; zero on workloads whose layer never runs
COUNTERS = (
    "store.epochs", "store.commits", "store.compactions",
    "store.max_wpq_occupancy", "cluster.dispatches", "cluster.retries",
    "cluster.retry_frac", "cluster.shipped", "cluster.promotions",
)


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    figs = reference["paper-figs"]
    figs["report_path"] = str(ROOT / figs["report"])
    return reference


def host() -> Dict[str, Any]:
    """The machine and the environment a result was measured under."""
    import platform
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "env": {name: os.environ.get(name) for name in GUARDED_ENV},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, which runs every pass.  Its
    only children are the interpreters that time the import, so they
    are left out."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float
    outcome: workloads.Outcome
    spans: Optional[List[Dict[str, Any]]]


def run_pass(workload: Any, seed: int, reference: Dict[str, Any], traced: bool) -> Pass:
    tracer = Tracer() if traced else None
    with tracer.installed() if tracer is not None else nullcontext():
        start = time.perf_counter()
        state = workload.prepare(seed)
        prepared = time.perf_counter()
        result = workload.run(state)
        done = time.perf_counter()
    outcome = workload.check(result, seed, reference)
    return Pass(traced, prepared - start, done - prepared, outcome,
                tracer.spans if tracer is not None else None)


def run(workload: Any, seed: int, seconds: float, trace: bool,
        reference: Dict[str, Any]) -> Dict[str, Any]:
    """Every pass of one run, summarised: the result line's fields plus
    the detail record printed before it."""
    import_s = workloads.import_seconds(workload)
    passes: List[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, reference, traced))
    return summarise(workload, seed, trace, import_s, passes)


def summarise(workload: Any, seed: int, trace: bool, import_s: float,
              passes: List[Pass]) -> Dict[str, Any]:
    from repro.analysis.metrics import percentile

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    problems: List[str] = []
    for i, p in enumerate(passes):
        problems.extend("pass %d: %s" % (i, msg) for msg in p.outcome.problems)
    first = passes[0].outcome
    for i, p in enumerate(passes[1:], start=1):
        if (p.outcome.sim, p.outcome.digest) != (first.sim, first.digest):
            problems.append(
                "pass %d%s: simulated output %s/%s differs from pass 0's %s/%s"
                % (i, " (traced)" if p.traced else "", p.outcome.sim,
                   p.outcome.digest, first.sim, first.digest)
            )
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)

    epoch_s = [s for p in plain for s in p.outcome.epoch_s]
    epoch_ms = {
        "p50": percentile(epoch_s, 50) * 1e3 if epoch_s else 0.0,
        "p95": percentile(epoch_s, 95) * 1e3 if epoch_s else 0.0,
        "samples": len(epoch_s),
    }
    sim = {name: first.sim.get(name, 0.0) for name in SIM_METRICS}
    detail: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "host": host(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "import_s": import_s,
        "setup_s_samples": [p.setup_s for p in plain],
        "wall_s_samples": [p.wall_s for p in plain],
        "epoch_ms": epoch_ms,
        "failed_frac": failed / attempted if attempted else 1.0,
        "sim": sim,
        "digest": first.digest,
        "problems": problems,
    }
    if trace:
        metrics = layer_summary(plain, traced, first, sim, epoch_ms)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(p.setup_s for p in plain),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "ops_per_s": statistics.median(
                p.outcome.ok_units / p.wall_s for p in plain
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = declared_units()
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "detail": detail,
        "spans": [p.spans for p in traced],
    }


def layer_summary(plain: List[Pass], traced: List[Pass],
                  first: workloads.Outcome, sim: Dict[str, float],
                  epoch_ms: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced passes; the program's
    own counters, the epoch latency and the deterministic values from
    the untraced passes; and the tracing overhead."""
    per_pass = [layer_metrics(p.spans or []) for p in traced]
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    metrics.update(dict.fromkeys(COUNTERS, 0))
    metrics.update(first.counters)
    metrics["cluster.epoch_p50_ms"] = epoch_ms["p50"]
    metrics["cluster.epoch_p95_ms"] = epoch_ms["p95"]
    metrics.update(sim)
    metrics["tracing.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain)
    )
    return metrics


def declared_units() -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    return {
        m["name"]: m["unit"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }


def write_spans(summary: Dict[str, Any], out_dir: Path) -> Path:
    """Write the traced passes' spans, with the run's detail record."""
    detail = summary["detail"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.json" % (detail["workload"], detail["seed"]))
    with open(path, "w") as fh:
        json.dump({"detail": detail, "passes": summary["spans"]}, fh)
    return path
