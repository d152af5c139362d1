"""The timing-simulator substrate: trace files, caches, memory
controllers, queueing primitives, and the scheme-parameterized engine.
The trace-event schema itself is :mod:`repro.trace`."""

from .cache import Cache, CacheHierarchy
from .engine import SimResult, TimingEngine, simulate
from .mc import CommitPipeline, MemoryController
from .memory import AddressMap
from .queues import SerialServer, SlotPool
from .tracefile import dump_trace, dumps_trace, load_trace, loads_trace

__all__ = [
    "Cache",
    "CacheHierarchy",
    "SimResult",
    "TimingEngine",
    "simulate",
    "CommitPipeline",
    "MemoryController",
    "AddressMap",
    "SerialServer",
    "SlotPool",
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
]
