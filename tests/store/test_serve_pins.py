"""Pinned outputs of the serving path: a clean run, a seeded crash and a
torn crash of one fixed workload must reproduce these figures exactly.

Every number here is deterministic in the arguments (no wall clock), so
any change to how an epoch is compiled, seeded, cut or settled that
moves a step, a commit or an image word shows up as a mismatch.
"""

import pytest

from repro.store import run_serve

SIZING = dict(ops=600, shards=2, seed=3, keyspace=64, batch=16)

#: the durable end state is the same whether or not power failed
DIGEST = "227a977819817afb"
IMAGES = ("426de2132b59f653", "b52b9f2aa371453b")

#: per case: sim_ns, latency summary, and per shard
#: (ops, epochs, steps, commits, boundaries, max WPQ occupancy, acked,
#: crashes, recovered ops)
PINS = {
    "clean": (
        dict(),
        22809.75,
        dict(count=664.0, mean=470.22289156626505, max=2464.875,
             p50=433.5, p95=856.2, p99=2251.3950000000004),
        [(369, 24, 55544, 5221, 5197, 8, 369, 0, 0),
         (295, 19, 45203, 4205, 4186, 8, 295, 0, 0)],
    ),
    "crash": (
        dict(crash_epoch=3, crash_seed=5),
        22809.75,
        dict(count=664.0, mean=470.2590361445783, max=2464.875,
             p50=433.5, p95=856.2, p99=2251.3950000000004),
        [(369, 24, 55549, 5221, 5197, 8, 369, 1, 13),
         (295, 19, 45203, 4205, 4186, 8, 295, 1, 15)],
    ),
    "torn": (
        dict(crash_epoch=2, crash_seed=9, crash_torn=True),
        22810.875,
        dict(count=664.0, mean=470.2573418674699, max=2464.875,
             p50=433.5, p95=857.1562500000001, p99=2251.3950000000004),
        [(369, 24, 55545, 5221, 5197, 8, 369, 1, 13),
         (295, 19, 45206, 4205, 4186, 8, 295, 1, 16)],
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_serve_reproduces_pinned_figures(case):
    crash, sim_ns, latency, shards = PINS[case]
    report = run_serve(**SIZING, **crash)
    assert report.ok, report.violations
    assert report.digest() == DIGEST
    assert report.sim_ns == sim_ns
    assert report.latency == latency
    got = [
        (s.ops, s.epochs, s.steps, s.commits, s.boundaries,
         s.max_wpq_occupancy, s.acked, s.crashes, s.recovered_ops)
        for s in report.shards
    ]
    assert got == shards
    assert tuple(s.image_digest for s in report.shards) == IMAGES
