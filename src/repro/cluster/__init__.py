"""``repro.cluster`` — a resilient sharded store cluster on LightWSP.

N store shards (consistent hashing over keys), each a full LightWSP
machine with its own pluggable persist backend, run as real worker
processes via :mod:`repro.parallel`, fronted by a coordinator that
routes GET/PUT/DELETE/SCAN and executes cross-shard multi-key writes as
epoch-ordered two-phase commits over shadow keys.  The robustness spine:

* a supervisor that detects shard crashes and drives
  recovery-and-rejoin (DOWN -> DEAD -> RECOVERING -> UP);
* a client protocol with idempotency tokens, per-request deadlines, and
  seeded-jitter exponential backoff — retries through duplicate and
  delayed deliveries never double-apply an operation;
* graceful degradation: un-replicated, a shard dead past its deadline
  turns its key range into typed ``unavailable`` errors while every
  other range keeps serving;
* per-range **replication** (``replicate=True``): primary + follower
  images with epoch-ordered log shipping, promote-on-DEAD behind a
  bumped fencing token — the range keeps serving with zero acked-write
  loss instead of degrading;
* **live resharding** (``reshard_at``): a new shard joins the extended
  hash ring and the arcs it steals migrate — chunked copy, dirty-key
  delta sync, one atomic handoff between epochs — while clients keep
  being served.

The cluster oracle (:mod:`repro.cluster.oracle`) extends the store's
acked-prefix theorem: zero acked-write loss and no visible 2PC
half-commit after *any* shard-kill schedule; the seeded chaos campaign
(:mod:`repro.cluster.chaos`) hammers the cluster with kills, partitions,
and message faults, shrinks failures, and replays from the JSONL trace.
See DESIGN.md ("The resilient store cluster") for the full narrative.

Layers:

* :mod:`repro.cluster.ring`        — consistent-hash key placement
* :mod:`repro.cluster.protocol`    — tokens, deadlines, typed errors, backoff
* :mod:`repro.cluster.workload`    — logical client ops + transactions
* :mod:`repro.cluster.shard`       — shard and key-range state between epochs
* :mod:`repro.cluster.supervisor`  — the crash/recovery state machine
* :mod:`repro.cluster.coordinator` — routing, retries, 2PC, the epoch loop
* :mod:`repro.cluster.oracle`      — zero acked-write loss + atomicity
* :mod:`repro.cluster.chaos`       — fault vocabulary, campaign, replay
"""

from .chaos import (
    CLUSTER_FAULT_KINDS,
    ClusterCampaignReport,
    ClusterFault,
    ClusterScenario,
    chaos_from_json,
    chaos_to_json,
    generate_cluster_chaos,
    replay_cluster_trace,
    run_cluster_campaign,
)
from .coordinator import Applied, ClusterSession
from .oracle import check_cluster
from .protocol import (
    ABORTED,
    DEADLINE_EXCEEDED,
    FOLLOWER,
    OK,
    PRIMARY,
    ROLES,
    STATUSES,
    UNAVAILABLE,
    ClusterResponse,
    RetryPolicy,
    SessionTracker,
)
from .ring import DEFAULT_VNODES, HashRing, moved_keys
from .shard import RangeState, ShardState
from .supervisor import DEAD, DOWN, RECOVERING, SUSPECT, UP, Supervisor
from .workload import LogicalOp, generate_cluster_ops

__all__ = [
    "CLUSTER_FAULT_KINDS",
    "ClusterCampaignReport",
    "ClusterFault",
    "ClusterScenario",
    "chaos_from_json",
    "chaos_to_json",
    "generate_cluster_chaos",
    "replay_cluster_trace",
    "run_cluster_campaign",
    "Applied",
    "ClusterSession",
    "check_cluster",
    "ABORTED",
    "DEADLINE_EXCEEDED",
    "FOLLOWER",
    "OK",
    "PRIMARY",
    "ROLES",
    "STATUSES",
    "UNAVAILABLE",
    "ClusterResponse",
    "RetryPolicy",
    "SessionTracker",
    "DEFAULT_VNODES",
    "HashRing",
    "moved_keys",
    "RangeState",
    "ShardState",
    "DEAD",
    "DOWN",
    "RECOVERING",
    "SUSPECT",
    "UP",
    "Supervisor",
    "LogicalOp",
    "generate_cluster_ops",
]
