"""Spans around each layer's public functions, recorded from outside.

The traced run wraps the functions each layer exposes *where its caller
binds the name* (a module global such as ``repro.analysis.experiments.
simulate``, or a class attribute such as ``StoreServer.serve``) and
restores them afterwards.  Nothing under ``src/`` is edited.

A span records a name, start and end (``perf_counter_ns``) and its
parent span, plus a few counts read at the call (events, steps, pool
mode).  Spans are kept in memory and written out by the harness when
the benchmark ends.

A re-entrant call of a layer already open on the stack (``run`` calling
``run``, ``FaultyMachine.crash`` calling ``PersistentMachine.crash``)
records no second span, so a layer's total never counts the same
interval twice.

Spans are recorded in this process only.  No workload forks (the
cluster runs at ``jobs=1``), so ``fan_out`` runs its units inline and
their spans nest under it like any other call.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: the span names, in report order; each yields ``<name>_s``,
#: ``<name>_self_s`` and ``<name>_calls``
SPAN_LAYERS = (
    "workloads.build",
    "compiler.compile",
    "interp.trace",
    "sim.simulate",
    "core.run",
    "core.crash",
    "store.serve",
    "cluster.epoch",
    "parallel.fan_out",
)

#: a probe is called before the wrapped function with its arguments and
#: returns a finisher that turns the result into the span's counts
Probe = Callable[[Tuple[Any, ...], Dict[str, Any]], Callable[[Any], Dict[str, int]]]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._simulate_keys: set = set()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, name: str, fn: Callable, probe: Optional[Probe] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if any(open_name == name for _, open_name in tracer._stack):
                return fn(*args, **kwargs)
            finish = probe(args, kwargs) if probe is not None else None
            span_id = tracer._new_id()
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((span_id, name))
            counts: Dict[str, int] = {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if finish is not None:
                    counts = finish(result)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append({
                    "id": span_id, "name": name, "parent": parent,
                    "start_ns": start, "end_ns": end, "counts": counts,
                })

        return traced

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _simulate_probe(self, simulate: Callable) -> Probe:
        """Counts a call's events and whether an earlier call of the pass
        had the same trace and the same value for every other argument."""
        signature = inspect.signature(simulate)

        def probe(args: Tuple[Any, ...], kwargs: Dict[str, Any]):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = dict(bound.arguments)
            events = arguments.pop("events")
            # the context caches each trace as one list object, so its
            # id names the trace for the lifetime of the pass
            key = (id(events), repr(sorted(arguments.items())))
            repeat = key in self._simulate_keys
            self._simulate_keys.add(key)
            n = len(events)
            return lambda result: {"events": n, "repeat": int(repeat)}

        return probe

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer binding for the duration of the block."""
        import repro.analysis.experiments as experiments
        import repro.cluster.coordinator as coordinator
        import repro.core.machine as machine
        import repro.faults.machine as faulty
        import repro.parallel.pool as pool
        import repro.store.server as server
        import repro.workloads.suite as suite

        def trace_events(args, kwargs):
            return lambda result: {"events": len(result[0])}

        def machine_steps(args, kwargs):
            before = args[0].stats.steps
            return lambda result: {"steps": args[0].stats.steps - before}

        def pool_mode(args, kwargs):
            def finish(result):
                stats = pool.last_stats()
                return {"forked": int(stats.mode == "fork"),
                        "worker_deaths": stats.worker_deaths}
            return finish

        bindings = [
            (suite.Benchmark, "build", "workloads.build", None),
            (experiments, "compile_program", "compiler.compile", None),
            (server, "compile_program", "compiler.compile", None),
            (coordinator, "compile_program", "compiler.compile", None),
            (experiments, "run_single", "interp.trace", trace_events),
            (experiments, "run_threads", "interp.trace", trace_events),
            (experiments, "simulate", "sim.simulate",
             self._simulate_probe(experiments.simulate)),
            (machine.PersistentMachine, "run", "core.run", machine_steps),
            (machine.PersistentMachine, "crash", "core.crash", None),
            (faulty.FaultyMachine, "crash", "core.crash", None),
            (server.StoreServer, "serve", "store.serve", None),
            (coordinator.ClusterSession, "step_epoch", "cluster.epoch", None),
            (coordinator, "fan_out", "parallel.fan_out", pool_mode),
        ]
        saved = []
        for owner, attr, name, probe in bindings:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, probe))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Span id -> self time in ns: the span's duration minus its child
    spans' durations (children run one at a time, inside the parent)."""
    own = {span["id"]: span["end_ns"] - span["start_ns"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end_ns"] - span["start_ns"]
    return own


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Busy time, self time, calls and counts per layer of one pass."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        mine = [s for s in spans if s["name"] == name]
        out[name + "_s"] = sum(s["end_ns"] - s["start_ns"] for s in mine) / 1e9
        out[name + "_self_s"] = sum(own[s["id"]] for s in mine) / 1e9
        out[name + "_calls"] = len(mine)

    def total(name: str, count: str) -> int:
        return sum(s["counts"].get(count, 0) for s in spans if s["name"] == name)

    out["interp.trace_events"] = total("interp.trace", "events")
    out["sim.events"] = total("sim.simulate", "events")
    calls = out["sim.simulate_calls"]
    out["sim.simulate_repeat_frac"] = (
        total("sim.simulate", "repeat") / calls if calls else 0.0
    )
    out["core.steps"] = total("core.run", "steps")
    out["parallel.forked_calls"] = total("parallel.fan_out", "forked")
    out["parallel.worker_deaths"] = total("parallel.fan_out", "worker_deaths")
    return out
