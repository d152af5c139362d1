"""The concrete backends: every scheme's policy + runtime, defined once.

Each scheme is a single :class:`~repro.runtime.backend.PersistBackend`
registered here, owning both its timing knobs (the
:class:`~repro.runtime.policy.SchemePolicy` the shared engine replays
traces under) and its functional crash semantics.  The paper-mapping
rationale for each policy's knob values sits in the comment above the
policy.

Fault-class capabilities are literal tuples (kept a subset of
:data:`repro.faults.model.FAULT_CLASSES` by test) rather than imports,
so this module never pulls the fault subsystem into the import chain.
"""

from __future__ import annotations

from .backend import PersistBackend, register
from .policy import SchemePolicy
from .runtime import (
    EadrRuntime,
    EagerUndoRuntime,
    LrpoRuntime,
    VolatileCacheRuntime,
)

__all__ = [
    "LIGHTWSP",
    "CWSP",
    "CAPRI",
    "PPA",
    "PSP_IDEAL",
    "MEMORY_MODE",
    "LIGHTWSP_LRPO",
    "CWSP_EAGER",
    "CAPRI_BACKEND",
    "PPA_BACKEND",
    "PSP_BACKEND",
    "MEMORY_MODE_BACKEND",
]

#: every fault class is meaningful against the full gated protocol
_LRPO_FAULTS = (
    "clean_cut", "torn_cut", "drained_cut",
    "msg_drop", "msg_delay", "msg_dup", "skew_cut", "nested_cut",
)
#: eager-undo schemes have no boundary message layer, no battery-drained
#: WPQ, and no per-MC skew surface — cuts (plain and nested) remain
_EAGER_FAULTS = ("clean_cut", "nested_cut")


# ----------------------------------------------------------------------
# timing policies (one per scheme, with the paper-mapping rationale)
# ----------------------------------------------------------------------

# LightWSP (§III-§IV):
# * every store (data, checkpoint, PC-checkpointing boundary) places one
#   8-byte entry on the non-temporal persist path;
# * WPQs are gated: entries quarantine per region and flush via the
#   commit pipeline, i.e. lazy region-level persist ordering (§III-B);
# * the core never waits at a region boundary; the only stalls are
#   front-end-buffer back-pressure when the path or WPQ cannot keep up.
# Hardware cost (§V-G4): a 2-byte flush ID per MC; everything else (WCB
# as front-end buffer, battery-backed WPQ) already exists.
LIGHTWSP = SchemePolicy(
    name="LightWSP",
    persists=True,
    entry_factor=1,
    gated=True,
    boundary_wait=False,
    drain_factor=1.0,
    uses_dram_cache=True,
    snoop=True,
)

# cWSP, compiler-directed whole-system persistence (ISCA'24): the state
# of the art LightWSP compares against in Fig. 10 (§II-C2).  It forms
# idempotent regions (no checkpoint stores) and persists speculatively
# across region boundaries, undoing via hardware undo logs on a
# mis-speculated power failure.
# * idempotent regions, no instrumentation: the original binary with
#   hardware-tracked region markers (implicit_region_stores=16, since
#   anti-dependences force short regions);
# * speculative persistence: stores drain to PM at once, never waiting
#   for older regions (gated=False, boundary_wait=False);
# * undo-logging delay: every PM write first copies the old value,
#   inflating the drain (drain_factor=1.25), which is why cWSP degrades
#   on write-intensive workloads (§II-C2);
# * core-MC speculation tracking: recurring messages keep region
#   persistence status coherent (region_comm_cycles=6).
# Net effect: a slightly better average slowdown than LightWSP (5.7% vs
# 8.5% in Fig. 10, no checkpoint-store overhead) at the price of
# intrusive core + MC changes.
CWSP = SchemePolicy(
    name="cWSP",
    persists=True,
    entry_factor=1,
    gated=False,
    boundary_wait=False,
    drain_factor=1.25,
    region_comm_cycles=6.0,
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=16,
)

# Capri (HPDC'22): compiler/architecture WSP via a separate L1-to-PM
# persist path with hardware redo+undo logging (§II-C2).
# * 64-byte granularity: every 8 B store pushes a whole cacheline down
#   the persist path, an 8x bandwidth amplification (entry_factor=8).
#   This buries Capri at the practical 4 GB/s path bandwidth (Fig. 7);
#   with its original 32 GB/s assumption it would sit near 20%;
# * hardware-delineated failure-atomic regions: front-end/back-end
#   buffers bound the region size (implicit_region_stores), and Capri
#   runs the original binary (no compiler instrumentation);
# * multi-MC ordering by stopping traffic: Capri stalls its persist path
#   at each region end until the previous region is flushed to PM
#   (boundary_wait=True, wait_for="flush").
# Hardware cost (§V-G4): 54 KB per core for the redo+undo buffers.
CAPRI = SchemePolicy(
    name="Capri",
    persists=True,
    entry_factor=8,          # 64 B of path traffic per 8 B store
    gated=False,             # per-region eager persistence (own buffers)
    boundary_wait=True,
    wait_for="flush",        # stops traffic until flushed *in PM*
    drain_factor=8.0,        # 64 B per entry hits the PM drain too
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=32,
)

# PPA, the Persistent Processor Architecture (MICRO'23), §II-C2.  PPA
# replays unpersisted stores after a failure, which needs store
# integrity: operand registers of committed stores stay pinned in the
# physical register file (PRF) until the stores persist.
# * hardware-delineated regions: a region ends when the PRF can no
#   longer pin registers, proxied by a fixed store budget
#   (implicit_region_stores=24), on the original binary;
# * eager writeback: every store starts persisting as soon as it reaches
#   L1 (gated=False), overlapping only with its own region;
# * boundary stall: at each implicit boundary the pipeline waits until
#   the region's stores reach the battery-backed WPQ
#   (boundary_wait=True).  LightWSP's LRPO removes this wait, which is
#   why PPA's persistence efficiency trails it in Fig. 8 when regions
#   are short.
# Hardware cost (§V-G4): 337 B per core for store-integrity tracking.
PPA = SchemePolicy(
    name="PPA",
    persists=True,
    entry_factor=1,
    gated=False,
    boundary_wait=True,
    uses_dram_cache=True,
    snoop=True,
    implicit_region_stores=24,
)

# The ideal partial-system-persistence scheme of Fig. 9 (§V-D), modelled
# after an optimized BBB (battery-backed buffers, HPCA'21) approaching
# Intel eADR: the whole cache hierarchy is inside the persistence
# domain, so persistence is free (persists=False).  What it cannot do is
# use DRAM as a last-level cache: no battery saves terabytes of DRAM, so
# persistent data lives in PM behind the SRAM caches only
# (uses_dram_cache=False).  Every L2 miss pays full PM latency, the
# whole 51.2% average gap Fig. 9 reports for memory-intensive apps.
PSP_IDEAL = SchemePolicy(
    name="PSP-Ideal",
    persists=False,
    uses_dram_cache=False,
    snoop=False,
)

# The evaluation baseline: Intel Optane PMem's memory mode running the
# original binary.  DRAM caches PM as in LightWSP, but nothing persists
# crash-consistently: no persist path, no WPQ gating, no region
# boundaries.  Every slowdown is normalized to it (§V-A).
MEMORY_MODE = SchemePolicy(
    name="memory-mode",
    persists=False,
    uses_dram_cache=True,
    snoop=False,
)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------

LIGHTWSP_LRPO = register(PersistBackend(
    name="lightwsp-lrpo",
    policy=LIGHTWSP,
    runtime_cls=LrpoRuntime,
    recovers=True,
    fault_classes=_LRPO_FAULTS,
    validates_defenses=True,
    description="LightWSP: WPQ quarantine + lazy region-level persist "
                "ordering (boundary broadcast/ACK, flush-ID commits)",
))

CWSP_EAGER = register(PersistBackend(
    name="cwsp-eager",
    policy=CWSP,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="cWSP: eager speculative persistence, hardware undo "
                "logs rolled back on a mis-speculated power failure",
))

CAPRI_BACKEND = register(PersistBackend(
    name="capri",
    policy=CAPRI,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="Capri: cacheline-granular eager persist path with "
                "redo+undo buffers (undo rollback at a crash)",
))

PPA_BACKEND = register(PersistBackend(
    name="ppa",
    policy=PPA,
    runtime_cls=EagerUndoRuntime,
    recovers=True,
    fault_classes=_EAGER_FAULTS,
    description="PPA: eager writeback with store-integrity replay "
                "(modelled as undo-logged write-through)",
))

PSP_BACKEND = register(PersistBackend(
    name="psp",
    policy=PSP_IDEAL,
    runtime_cls=EadrRuntime,
    recovers=False,
    fault_classes=(),
    description="ideal PSP/eADR: every store durable at retire — "
                "partial-region state persists, so whole-system "
                "recovery is NOT crash-consistent",
))

MEMORY_MODE_BACKEND = register(PersistBackend(
    name="memory-mode",
    policy=MEMORY_MODE,
    runtime_cls=VolatileCacheRuntime,
    recovers=False,
    fault_classes=(),
    description="memory-mode: DRAM-cached, nothing persists before a "
                "clean shutdown — acked writes are lost at a crash",
))
