"""Property test for the engine's trace precompute: ``_next_nontrivial``
must give, for every index, the first event at or after it that is not
ALU/FENCE.  Lengths straddle 4096 events, where the precompute once
switched implementations, and include the empty trace."""

from bisect import bisect_left

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import _next_nontrivial
from repro.trace import EK, TraceEvent

KINDS = (
    EK.ALU, EK.LOAD, EK.STORE, EK.CHECKPOINT, EK.BOUNDARY, EK.ATOMIC,
    EK.FENCE, EK.LOCK, EK.UNLOCK, EK.IO, EK.HALT,
)
TRIVIAL = {EK.ALU, EK.FENCE}


def forward_definition(events):
    """Index ``i`` maps to the smallest non-trivial index ``>= i``, or
    ``n`` when there is none; one extra sentinel entry for ``i == n``."""
    n = len(events)
    stops = [j for j, ev in enumerate(events) if ev.kind not in TRIVIAL]
    stops.append(n)
    return [stops[bisect_left(stops, i)] for i in range(n + 1)]


def expand(runs):
    return [TraceEvent(kind) for kind, length in runs for _ in range(length)]


#: runs of one kind, so long ALU/FENCE stretches and back-to-back
#: non-trivial events both occur; hypothesis shrinks a failure run by
#: run.  Stretching every run 50x carries typical draws well past 4096
#: events.
RUNS = st.builds(
    lambda runs, stretch: [(kind, n * stretch) for kind, n in runs],
    st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 200)), max_size=40),
    st.sampled_from([1, 50]),
)


@settings(max_examples=100, deadline=None)
@given(runs=RUNS)
@example(runs=[])
@example(runs=[(EK.ALU, 4096)])
@example(runs=[(EK.FENCE, 4095), (EK.STORE, 1), (EK.ALU, 1)])
def test_matches_forward_definition(runs):
    events = expand(runs)
    assert _next_nontrivial(events) == forward_definition(events)


def test_generated_lengths_straddle_4096():
    """The strategy reaches both sides of the old 4096-event switch."""
    lengths = []

    @settings(max_examples=100, deadline=None, database=None)
    @given(runs=RUNS)
    def collect(runs):
        lengths.append(sum(length for _, length in runs))

    collect()
    assert min(lengths) < 4096 < max(lengths)
