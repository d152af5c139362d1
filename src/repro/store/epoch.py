"""One epoch of one store shard: the executor behind both ``repro serve``
(:class:`~repro.store.server.StoreServer`) and ``repro cluster serve``
(:class:`~repro.cluster.coordinator.ClusterSession`).

A shard is a full LightWSP store node — a
:class:`~repro.faults.machine.FaultyMachine` with all defenses on and a
pluggable persist backend — but the executor holds **no** live machine
between epochs: a shard's identity is its durable data (``image``, a
word map) plus how many requests it has served.  Every epoch boots a
fresh machine from that image, seeds the request ring, runs the store
program compiled once by the caller, and returns the new image.
Acknowledgement payloads are *local* request indices; the caller adds
the batch's ``first_id`` to get global ids.  That makes
:func:`execute_shard_epoch` a deterministic, picklable function of its
arguments, which is what lets the cluster fan shards out over worker
processes with bit-identical results at any ``--jobs``.

Three robustness guards live here, at the point of application:

* **promotion fencing** — every batch is stamped with its range's
  fencing token; a token that is not the range's current one is refused
  (``fenced_rejected``), checked *before* the sequence fence: a demoted
  primary speaking after failover is split brain, not replay, and
  nothing it applies may count.  Callers without replication leave both
  tokens at 1.
* **sequence fencing** — a batch whose ``first_id`` does not equal the
  shard's served count is refused (``replay_rejected``): a duplicated or
  re-ordered epoch delivery can never double-apply non-idempotent ops.
* **crash-means-finish** — a power cut mid-epoch triggers the machine's
  real recovery (§IV-F), and the interrupted batch *resumes and
  completes* on restored power.  The result separates the acks that were
  durable before the cut (all a live client saw) from those produced
  after recovery, and the store's acked-prefix theorem is checked at the
  cut via :func:`~repro.store.oracle.check_recovery`.

Client latency comes from the machine's per-region commit steps, which
the executor always collects: a request is served once the region
holding its ``io`` acknowledgement commits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.ir import Program
from ..compiler.pipeline import CompiledProgram
from ..config import DEFAULT_CONFIG, SystemConfig
from ..faults.defenses import ALL_ON
from ..faults.machine import FaultyMachine
from ..faults.model import FaultEvent
from .layout import StoreLayout
from .oracle import StoreModel, check_recovery
from .programs import Request, request_words

__all__ = [
    "DATA_FLOOR",
    "MAX_EPOCH_STEPS",
    "EpochResult",
    "execute_shard_epoch",
    "fence_admits",
    "image_digest",
]

#: everything below this word address is the checkpoint array
DATA_FLOOR = Program.CHECKPOINT_WORDS_PER_CORE * Program.MAX_CONTEXTS

#: per-epoch machine step budget.  A batch that exceeds it is a bug, not
#: a slow run: the machine raises
#: :class:`~repro.errors.MachineLimitError` (with ``steps`` and
#: ``limit``) out of the executor and the serving loop stops there
MAX_EPOCH_STEPS = 8_000_000


def fence_admits(range_fence: int, batch_fence: int) -> bool:
    """Whether a batch stamped with ``batch_fence`` may enter the
    range's settled log when the range's current fencing token is
    ``range_fence``.  Only the exact current token is admitted: a stale
    token is a demoted primary speaking after its promotion (split
    brain), a newer token is a sequencing bug — both are refused."""
    return batch_fence == range_fence


def image_digest(image: Dict[int, int]) -> str:
    """Deterministic fingerprint of a shard's durable word image."""
    h = hashlib.sha256()
    for w in sorted(image):
        h.update(("%d=%d;" % (w, image[w])).encode())
    return h.hexdigest()[:16]


@dataclass
class EpochResult:
    """What one :func:`execute_shard_epoch` call produced (picklable)."""

    shard: int
    #: "ok" | "crashed" | "replay_rejected" | "fenced_rejected"
    outcome: str = "ok"
    image: Dict[int, int] = field(default_factory=dict)
    #: local request indices whose acks were durable before any cut —
    #: the acknowledgements a live client actually receives
    acked_local: List[int] = field(default_factory=list)
    #: local indices acked only after crash-recovery resumed the batch
    late_local: List[int] = field(default_factory=list)
    #: durable result word per local request index, post-epoch
    results: List[int] = field(default_factory=list)
    #: local request index -> machine step at which its ack's region
    #: committed (the first committed occurrence of each ack)
    ack_steps: Dict[int, int] = field(default_factory=dict)
    steps: int = 0
    commits: int = 0
    boundaries: int = 0
    max_wpq_occupancy: int = 0
    crash_step: int = 0
    violations: List[str] = field(default_factory=list)


def execute_shard_epoch(
    shard: int,
    compiled: CompiledProgram,
    layout: StoreLayout,
    image: Dict[int, int],
    served: int,
    batch: Sequence[Request],
    first_id: int,
    base_model: StoreModel,
    backend: object,
    config: SystemConfig = DEFAULT_CONFIG,
    crash_step: Optional[int] = None,
    crash_event: Optional[FaultEvent] = None,
    msg_faults: Sequence[FaultEvent] = (),
    batch_fence: int = 1,
    range_fence: int = 1,
) -> EpochResult:
    """Run one epoch of one shard.  Pure in its arguments; touches no
    global state, so it can run in a forked worker or inline with
    identical results."""
    result = EpochResult(shard=shard)
    if not fence_admits(range_fence, batch_fence):
        # promotion fence: a batch stamped with a stale (or future)
        # fencing token is split brain, refused before anything applies
        result.outcome = "fenced_rejected"
        result.image = dict(image)
        return result
    if first_id != served:
        # sequence fence: the message layer (or a buggy caller) delivered
        # an epoch the shard is not at — refuse rather than double-apply
        result.outcome = "replay_rejected"
        result.image = dict(image)
        return result

    machine = FaultyMachine(
        compiled, config=config, defenses=ALL_ON,
        max_steps=MAX_EPOCH_STEPS, backend=backend,
    )
    machine.pm.update(image)
    machine.volatile.words.update(image)
    ring = request_words(layout, list(batch))
    machine.pm.update(ring)
    machine.volatile.words.update(ring)
    commit_steps: List[Tuple[int, int]] = []
    io_steps: List[Tuple[int, int, int]] = []
    machine.stats.commit_steps = commit_steps
    machine.stats.io_steps = io_steps
    for event in msg_faults:
        machine.arm_msg(event)

    crashed = False
    pre_acked: List[int] = []
    if crash_step is not None:
        machine.run(steps=max(1, crash_step))
        if not machine.finished:
            crashed = True
            result.crash_step = machine.stats.steps
            machine.crash(crash_event)
            # acks durable at the cut: payloads are local indices
            pre_acked = sorted({entry[3] for entry in machine.io_log})
            acked_global = {first_id + p for p in pre_acked}
            found = check_recovery(
                machine.pm, acked_global, base_model, list(batch), first_id
            )
            result.violations.extend(
                "shard %d epoch at id %d (cut at step %d): %s"
                % (shard, first_id, result.crash_step, v)
                for v in found
            )
    # whole-system persistence: on restored power the interrupted batch
    # resumes from its checkpoint and completes (or the step budget
    # raises MachineLimitError)
    machine.run()
    machine.finish_messages()

    all_acked = sorted({entry[3] for entry in machine.io_log})
    if crashed:
        result.outcome = "crashed"
        result.acked_local = pre_acked
        result.late_local = sorted(set(all_acked) - set(pre_acked))
    else:
        result.acked_local = all_acked
    # re-executed ios after a cut come later: first committed one wins
    commit_at = dict(commit_steps)
    for payload, region, _step in io_steps:
        if payload not in result.ack_steps and region in commit_at:
            result.ack_steps[payload] = commit_at[region]
    result.image = {
        w: v for w, v in machine.pm.items()
        if w >= DATA_FLOOR and v != 0
    }
    result.results = [
        machine.pm.get(layout.out + i, 0) for i in range(len(batch))
    ]
    stats = machine.stats
    result.steps = stats.steps
    result.commits = stats.commits
    result.boundaries = stats.boundaries
    result.max_wpq_occupancy = stats.max_wpq_occupancy
    return result
