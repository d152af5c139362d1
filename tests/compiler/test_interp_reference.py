"""Pinned instruction semantics of the trace-generating interpreter.

``run_single`` / ``run_threads`` build every timing-plane trace.  Each
case below runs a compiled program through them and reduces the result
to one sha256 over every event's ``(kind, addr, tid, lock_id,
boundary_uid, payload)`` plus the sorted final memory words.  The
digests in ``tests/data/interp_reference.json`` were recorded with the
per-opcode single-step interpreter that predated the batched trace
path, so they are the instruction-semantics reference: any change to
what an instruction computes, which event it emits, or how threads are
interleaved shows up here as a digest mismatch.

Regenerate only for a deliberate semantics change, and say why in the
change log::

    PYTHONPATH=src python -m tests.compiler.test_interp_reference \\
        > tests/data/interp_reference.json
"""

import hashlib
import json
import os
from typing import Dict, List

from repro.compiler import Program, compile_program, run_single, run_threads
from repro.compiler.interp import WordMemory
from repro.trace import TraceEvent
from repro.workloads import BENCHMARKS
from repro.workloads.randprog import random_mt_program, random_program
from tests.core.test_io import io_program

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data",
    "interp_reference.json",
)

SINGLE_SEEDS = range(60)
MT_SEEDS = range(20)
QUANTA = (1, 3, 16)
SCHEDULE_SEEDS = (0, 1)
#: multi-threaded suite benchmarks: ssca2 exercises ATOMIC_RMW, intruder
#: locks; both run their default 8 threads at the smallest scale
SUITE_CASES = ("ssca2", "intruder")
SUITE_SCALE = 0.01


def digest(
    program: Program, events: List[TraceEvent], memory: WordMemory
) -> Dict[str, object]:
    """Event count and sha256 of one run.  Instruction uids come from a
    process-wide counter, so boundary uids (in BOUNDARY events and the
    PC checkpoint slots) are renumbered by program order first."""
    order = {
        instr.uid: i
        for i, instr in enumerate(
            instr
            for func in program.functions.values()
            for block in func.blocks.values()
            for instr in block.instrs
        )
    }
    pc_slots = {Program.pc_slot(tid) for tid in range(Program.MAX_CONTEXTS)}
    h = hashlib.sha256()
    for e in events:
        h.update(
            (
                "%s,%d,%d,%d,%d,%d;"
                % (
                    e.kind, e.addr, e.tid, e.lock_id,
                    order.get(e.boundary_uid, -1), e.payload,
                )
            ).encode()
        )
    h.update(b"|")
    for word, value in sorted(memory.words.items()):
        if word in pc_slots:
            value = order[value]
        h.update(("%d=%d;" % (word, value)).encode())
    return {"events": len(events), "sha256": h.hexdigest()}


def _compiled(program: Program) -> Program:
    return compile_program(program, verify=False).program


def compute_reference() -> Dict[str, Dict[str, object]]:
    ref: Dict[str, Dict[str, object]] = {}
    for seed in SINGLE_SEEDS:
        program = _compiled(random_program(seed))
        ref["single/rand%d" % seed] = digest(program, *run_single(program))
    program = _compiled(io_program())
    ref["single/io_program"] = digest(program, *run_single(program))
    for seed in MT_SEEDS:
        prog, entries = random_mt_program(seed)
        program = _compiled(prog)
        for quantum in QUANTA:
            for sched in SCHEDULE_SEEDS:
                ref["threads/randmt%d/q%d/s%d" % (seed, quantum, sched)] = digest(
                    program,
                    *run_threads(
                        program, entries, schedule_seed=sched, quantum=quantum
                    ),
                )
    for name in SUITE_CASES:
        bench = BENCHMARKS[name]
        program = _compiled(bench.build(scale=SUITE_SCALE))
        ref["threads/%s" % name] = digest(
            program, *run_threads(program, bench.entries())
        )
    return ref


def test_traces_match_pinned_reference():
    with open(REFERENCE) as fh:
        pinned = json.load(fh)
    computed = compute_reference()
    assert [name for name in computed if computed[name] != pinned.get(name)] == []
    assert sorted(computed) == sorted(pinned)


if __name__ == "__main__":
    print(json.dumps(compute_reference(), indent=1, sort_keys=True))
