"""The benchmark's three workloads: inputs, timed phase, and checks.

Each workload has three steps.  ``prepare(seed)`` generates the inputs
from the seed and constructs what the timed phase needs; it is timed
as set-up.  ``run(state)`` is the timed phase.  ``check(result, seed,
reference)`` runs after the clock stops and turns the result into an
:class:`Outcome`: units attempted and failed, units completed ``ok``,
the deterministic simulated metrics, and the layer counters the program
itself reports.

Why these three (README.md has the layer -> metric map):

* ``paper-figs`` is the paper-regeneration path.  ``sim`` and ``interp``
  do nearly all of its work and its ``simulate`` calls repeat, so trace
  shrinking and memoisation show here.  The machine, store, cluster and
  pool do nothing.
* ``store-ycsb-a`` is the ``repro serve`` path.  The functional machine
  and the store epoch do the work; 64-request batches make per-request
  cost dominate.  ``sim`` and ``parallel`` do nothing.
* ``cluster-failover`` is the ``repro cluster serve`` path.  A
  shard-epoch carries at most 8 requests, so per-epoch fixed cost
  dominates, and every epoch goes through the pool's ``fan_out``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one pass of a workload produced, judged."""

    attempted: int
    failed: int
    ok_units: int
    #: deterministic simulated metrics; equal on every pass of one seed
    sim: Dict[str, float]
    #: counters the program reports about its own layers
    counters: Dict[str, float] = field(default_factory=dict)
    #: host seconds per lock-step epoch, where the workload has epochs
    epoch_s: List[float] = field(default_factory=list)
    #: fingerprint of the pass's output; equal on every pass of one seed
    digest: str = ""
    problems: List[str] = field(default_factory=list)


def _judged(outcome: Outcome) -> Outcome:
    """A pass that fails a check counts every unit it attempted as
    failed: its timing is never a valid sample."""
    if outcome.problems:
        outcome.failed = outcome.attempted
        outcome.ok_units = 0
    return outcome


# ----------------------------------------------------------------------
# paper-figs
# ----------------------------------------------------------------------

def _row_cells(row: Dict[str, Any], series: Sequence[str]) -> List[str]:
    """A row's cells as ``format_figure`` prints them."""
    return ["%.3f" % row[s] for s in series]


def reference_rows(text: str, figure: str, series: Sequence[str]) -> Dict[str, List[str]]:
    """The printed rows of one figure in a ``reproduce_paper.py`` report:
    benchmark name -> its cells."""
    title = "%s  (%s)" % (figure, ", ".join(series))
    lines = text.splitlines()
    if title not in lines:
        return {}
    rows: Dict[str, List[str]] = {}
    for line in lines[lines.index(title) + 1:]:
        if not line.strip() or line.startswith("["):
            break
        cells = line.split()
        if len(cells) == len(series) + 1 and cells[0] != "benchmark":
            rows[cells[0]] = cells[1:]
    return rows


def rows_digest(rows: List[Dict[str, Any]]) -> str:
    """Fingerprint of a figure's rows at full float precision."""
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_figures(
    figures: List[Any], report_text: str, digests: Dict[str, str]
) -> Tuple[List[str], List[str]]:
    """Check each figure's rows against the committed full report, as
    printed, and against the full-precision digest recorded for the
    slice.  Returns (figures that failed, problems)."""
    bad: List[str] = []
    problems: List[str] = []
    for fig in figures:
        printed = reference_rows(report_text, fig.figure, fig.series)
        mine: List[str] = []
        for row in fig.rows:
            want = printed.get(row["benchmark"])
            got = _row_cells(row, fig.series)
            if want != got:
                mine.append("%s %s: %s, reference %s"
                            % (fig.figure, row["benchmark"], got, want))
        if rows_digest(fig.rows) != digests.get(fig.figure):
            mine.append("%s: row digest %s, recorded %s"
                        % (fig.figure, rows_digest(fig.rows),
                           digests.get(fig.figure)))
        if mine:
            bad.append(fig.figure)
            problems.extend(mine)
    return bad, problems


@dataclass
class PaperFigs:
    """Fig. 7, 11 and 12 over one shared ExperimentContext.

    mcf is memory-bound with a 240k-event trace, xz is a small
    single-threaded store mix, and intruder is an 8-thread STAMP app
    whose slowdown moves with the WPQ size.  Scale 0.2 is the scale of
    ``benchmarks/results/results_full.txt``, so every row can be checked
    against that report as printed."""

    name = "paper-figs"
    modules = ("repro.analysis.experiments",)
    apps = ("mcf", "xz", "intruder")
    scale = 0.2

    def prepare(self, seed: int) -> Any:
        # the figure inputs are the paper's applications: no part of
        # them is drawn from the seed
        from repro.analysis.experiments import ExperimentContext

        return ExperimentContext(scale=self.scale, benchmarks=list(self.apps))

    def run(self, ctx: Any) -> List[Any]:
        from repro.analysis import experiments as ex

        return [
            ex.fig7_slowdown(ctx),
            ex.fig11_wpq_size(ctx),
            ex.fig12_threshold(ctx),
        ]

    def check(self, figures: List[Any], seed: int, reference: Dict[str, Any]) -> Outcome:
        ref = reference[self.name]
        with open(ref["report_path"]) as fh:
            report_text = fh.read()
        bad, problems = check_figures(figures, report_text, ref["row_digests"])
        rows = sum(len(fig.rows) for fig in figures if fig.figure not in bad)
        return _judged(Outcome(
            attempted=len(figures),
            failed=len(bad),
            ok_units=rows,
            sim={"sim_slowdown": figures[0].overall["LightWSP"]},
            digest=hashlib.sha256("".join(
                rows_digest(fig.rows) for fig in figures
            ).encode()).hexdigest()[:16],
            problems=problems,
        ))


# ----------------------------------------------------------------------
# store-ycsb-a
# ----------------------------------------------------------------------

@dataclass
class StoreYcsbA:
    """Zipfian ycsb-a on a 2-shard StoreServer, 64 requests per epoch:
    a load phase (one PUT per key) and then a 50/50 read/update mix."""

    name = "store-ycsb-a"
    modules = ("repro.store.server", "repro.store.workload", "repro.store.layout")
    shards = 2
    batch = 64
    value_words = 4
    ops: int = 6000
    keyspace: int = 1024

    def prepare(self, seed: int) -> Any:
        from repro.store.layout import StoreLayout
        from repro.store.server import StoreServer
        from repro.store.workload import generate_workload

        requests = generate_workload(
            "ycsb-a", self.ops, self.keyspace, seed=seed, dist="zipfian"
        )
        layout = StoreLayout.sized(
            self.keyspace, value_words=self.value_words, max_batch=self.batch
        )
        server = StoreServer(self.shards, layout, seed=seed)
        server.submit(requests)
        return server, seed, len(requests)

    def run(self, state: Any) -> Any:
        from repro.store.server import ServeReport

        server, seed, n_requests = state
        server.serve(self.batch)
        reports = server.finalize()
        report = ServeReport(
            workload="ycsb-a", dist="zipfian", seed=seed, ops=self.ops,
            load_ops=self.keyspace, shards=reports, sim_ns=server.sim_ns,
            violations=server.violations, crash_epoch=None,
        )
        return report, n_requests

    def check(self, result: Any, seed: int, reference: Dict[str, Any]) -> Outcome:
        report, n_requests = result
        problems = ["oracle: %s" % v for v in report.violations]
        acked = sum(s.acked for s in report.shards)
        if acked != n_requests:
            problems.append("%d of %d requests acknowledged" % (acked, n_requests))
        digest = report.digest()
        recorded = reference[self.name]["digests"].get(str(seed))
        if recorded is not None and digest != recorded:
            problems.append("digest %s, recorded %s for seed %d"
                            % (digest, recorded, seed))
        return _judged(Outcome(
            attempted=n_requests,
            failed=n_requests - acked,
            ok_units=acked,
            sim={
                "sim_p99_ns": report.latency["p99"],
                "sim_mops": report.throughput_mops,
            },
            counters={
                "store.epochs": sum(s.epochs for s in report.shards),
                "store.commits": sum(s.commits for s in report.shards),
                "store.compactions": sum(s.compactions for s in report.shards),
                "store.max_wpq_occupancy": max(
                    s.max_wpq_occupancy for s in report.shards
                ),
            },
            digest=digest,
            problems=problems,
        ))


# ----------------------------------------------------------------------
# cluster-failover
# ----------------------------------------------------------------------

@dataclass
class ClusterFailover:
    """A replicated 4-shard ClusterSession under a seeded chaos schedule
    (power cuts, a follower kill, transport and message faults, a
    partition), serving the crud mix with 2PC transactions.

    It runs at ``jobs=1``, the ``repro cluster serve`` default, so
    ``fan_out`` takes its serial path.  At ``jobs=2`` every epoch forks
    two workers, and on a 2-vCPU host shared with other tenants that
    made passes 1.8 times slower and 2.5 times noisier than ``jobs=1``
    (coefficient of variation 0.104 against 0.04 over alternating
    passes).  Ten-seed spreads of ``wall_s`` then reached 0.32 and 0.36,
    above the 0.25 bound.

    Epoch cap: ``ClusterSession`` stops at a fixed 400 epochs and reports
    the cut as a violation.  The benchmark neither passes ``max_epochs``
    nor bypasses the cap.  Admission is capped at 8 ops per epoch, so
    the 2000 ops plus the 512-key load phase quiesce in 314-348 epochs
    (50 seeds), clear of the cap; 2500 ops would end at exactly 400.  If a
    run is ever cut, its unsettled ops count as failed."""

    name = "cluster-failover"
    modules = ("repro.cluster",)
    shards = 4
    ops: int = 2000
    keyspace: int = 512
    #: chaos is spread over most of the run, not just its start
    horizon: int = 240

    def prepare(self, seed: int) -> Any:
        from repro.cluster import ClusterSession, generate_cluster_chaos

        chaos = generate_cluster_chaos(
            seed, self.shards, horizon=self.horizon, kills=2, transport=5,
            partitions=1, msg_faults=2, follower_kills=1,
        )
        return ClusterSession.build(
            n_shards=self.shards, keyspace=self.keyspace, ops=self.ops,
            seed=seed, mix="crud", chaos=chaos, jobs=1,
            replicate=True,
        )

    def run(self, session: Any) -> Any:
        epoch_s: List[float] = []
        step = session.step_epoch

        def timed_step() -> None:
            start = time.perf_counter()
            step()
            epoch_s.append(time.perf_counter() - start)

        # an instance attribute, so run() keeps its own loop and cap
        session.step_epoch = timed_step
        session.run()
        del session.step_epoch
        return session, epoch_s

    def check(self, result: Any, seed: int, reference: Dict[str, Any]) -> Outcome:
        from repro.cluster.protocol import OK

        session, epoch_s = result
        attempted = len(session.ops_by_token)
        ok = sum(1 for r in session.responses.values() if r.status == OK)
        unsettled = attempted - len(session.responses)
        # a run cut at the epoch cap reports it among the violations
        problems = ["oracle: %s" % v for v in session.violations]
        if unsettled:
            problems.append("%d ops never settled" % unsettled)
        digest = session.digest()
        recorded = reference[self.name]["digests"].get(str(seed))
        if recorded is not None and digest != recorded:
            problems.append("digest %s, recorded %s for seed %d"
                            % (digest, recorded, seed))
        counters = session.counters
        dispatches = counters["dispatches"]
        return _judged(Outcome(
            attempted=attempted,
            failed=attempted - ok,
            ok_units=ok,
            sim={"sim_epochs": session.epoch},
            counters={
                "cluster.dispatches": dispatches,
                "cluster.retries": counters["retries"],
                "cluster.retry_frac": (
                    counters["retries"] / dispatches if dispatches else 0.0
                ),
                "cluster.shipped": counters["shipped"],
                "cluster.promotions": counters["promotions"],
            },
            epoch_s=epoch_s,
            digest=digest,
            problems=problems,
        ))


WORKLOADS = {w.name: w for w in (PaperFigs, StoreYcsbA, ClusterFailover)}


def make(name: str, **sizes: Any) -> Any:
    """A workload by name; ``sizes`` shrink it (the tests use this)."""
    return WORKLOADS[name](**sizes)


#: fresh interpreters the import is timed in; their median is reported
IMPORT_SAMPLES = 7


def import_seconds(workload: Any) -> float:
    """Import the program modules the workload needs, then time that
    import in ``IMPORT_SAMPLES`` fresh interpreters; the median, in
    seconds.

    The first import writes the bytecode caches, so every timed sample
    reads them, as a user's second and later commands do."""
    import importlib
    import statistics
    import subprocess
    import sys

    for module in workload.modules:
        importlib.import_module(module)
    src = str(Path(importlib.import_module("repro").__file__).parent.parent)
    code = (
        "import sys, time; sys.path.insert(0, %r); start = time.perf_counter()\n"
        "%s\nprint(time.perf_counter() - start)"
        % (src, "\n".join("import %s" % m for m in workload.modules))
    )
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True,
        ).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(times)
