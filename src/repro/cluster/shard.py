"""Coordinator-held shard state: what survives between epochs.

A cluster shard holds **no** live machine between epochs.  Its identity
is its durable data (``image``, a word map) plus how many requests it
has served; every epoch runs through the store's shared executor,
:func:`repro.store.epoch.execute_shard_epoch`, which boots a fresh
:class:`~repro.faults.machine.FaultyMachine` from that image and returns
the new one.

:class:`RangeState` is the coordinator-held replication record per key
range: the fencing token, the follower image the primary's settled
batches are shipped to, the ship log itself, and — after a failover —
the retired primary kept around for the oracle's split-brain checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..store.epoch import image_digest
from ..store.oracle import StoreModel
from ..store.programs import Request

__all__ = [
    "ShardState",
    "RangeState",
    "ShipEntry",
]


@dataclass
class ShardState:
    """Everything durable about one shard between epochs (parent-side)."""

    shard: int
    image: Dict[int, int] = field(default_factory=dict)
    model: StoreModel = None  # type: ignore[assignment]
    served: int = 0           # requests applied in completed epochs
    epochs: int = 0
    crashes: int = 0
    replays_rejected: int = 0

    def image_digest(self) -> str:
        return image_digest(self.image)


#: one shipped unit of the replication log: the epoch the batch settled,
#: its sequence-fence position, and the requests it applied, in order
ShipEntry = Tuple[int, int, List[Request]]


@dataclass
class RangeState:
    """Replication bookkeeping for one key range (coordinator-held).

    The *range* is the unit of failover: its primary is always
    ``ClusterSession.shards[range_id]`` (promotion swaps the object into
    that slot), its follower re-applies the primary's settled batches
    from ``ship_log`` — each exactly once, in order, through the same
    executor — lagging by at most the configured window.  ``fence``
    starts at 1 and bumps at every promotion; the retired primary and
    the token it was fenced at stay on record so the oracle can prove no
    post-demotion write of it was ever admitted."""

    range_id: int
    fence: int = 1
    follower: Optional[ShardState] = None
    #: settled batches not all of which have reached the follower yet
    ship_log: List[ShipEntry] = field(default_factory=list)
    shipped: int = 0          # ship_log prefix applied at the follower
    promotions: int = 0
    retired: Optional[ShardState] = None
    retired_fence: int = 0    # token the retired primary was fenced at

    @property
    def lag(self) -> int:
        """Settled batches the follower has not applied yet."""
        return len(self.ship_log) - self.shipped
