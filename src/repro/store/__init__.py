"""``repro.store`` — a crash-consistent persistent KV store served on the
LightWSP machine.

The store's data structures (open-addressing hash index, append-only
record heap with tombstones and compaction) live in the machine's word
memory, and GET/PUT/DELETE/SCAN run as compiled LightWSP programs — so
crash consistency comes from whole-system persistence, not from any
store-side logging.  See DESIGN.md ("The persistent KV store") for the
layout, the recovery invariant, and the acked-write oracle.

Layers:

* :mod:`repro.store.layout`   — PM-resident data layout + sizing
* :mod:`repro.store.programs` — the operations as IR, compiled for real
* :mod:`repro.store.workload` — seeded YCSB-style request generation
* :mod:`repro.store.oracle`   — executable spec + acked-write theorem
* :mod:`repro.store.epoch`    — one shard epoch: boot, cut, recover, settle
* :mod:`repro.store.server`   — sharded epoch serving, latency, crashes
* :mod:`repro.store.bench`    — store programs as fault-campaign targets
"""

from .epoch import (
    DATA_FLOOR,
    MAX_EPOCH_STEPS,
    EpochResult,
    execute_shard_epoch,
    fence_admits,
    image_digest,
)
from .layout import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SCAN,
    RESP_DEVICE,
    StoreLayout,
    checksum,
)
from .oracle import (
    StoreModel,
    check_recovery,
    recovery_alignment,
    visible_state,
)
from .programs import Request, build_store_program, request_words
from .server import (
    ReplayedEpochError,
    ServeReport,
    ShardReport,
    StoreServer,
    run_serve,
    shard_of,
)
from .workload import DISTRIBUTIONS, MIXES, generate_workload
from .bench import STORE_BENCHMARKS, STORE_SUITE

__all__ = [
    "DATA_FLOOR",
    "MAX_EPOCH_STEPS",
    "EpochResult",
    "execute_shard_epoch",
    "fence_admits",
    "image_digest",
    "OP_DELETE",
    "OP_GET",
    "OP_PUT",
    "OP_SCAN",
    "RESP_DEVICE",
    "StoreLayout",
    "checksum",
    "StoreModel",
    "check_recovery",
    "recovery_alignment",
    "visible_state",
    "Request",
    "build_store_program",
    "request_words",
    "ReplayedEpochError",
    "ServeReport",
    "ShardReport",
    "StoreServer",
    "run_serve",
    "shard_of",
    "DISTRIBUTIONS",
    "MIXES",
    "generate_workload",
    "STORE_BENCHMARKS",
    "STORE_SUITE",
]
