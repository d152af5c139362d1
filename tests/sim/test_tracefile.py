"""Tests for trace serialization."""

import pytest

from repro.sim.tracefile import dumps_trace, loads_trace
from repro.trace import EK, TraceEvent


class TestRoundTrip:
    EVENTS = [
        TraceEvent(EK.ALU),
        TraceEvent(EK.LOAD, addr=4096, tid=3),
        TraceEvent(EK.STORE, addr=8),
        TraceEvent(EK.BOUNDARY, addr=16, boundary_uid=42),
        TraceEvent(EK.LOCK, lock_id=5, tid=1),
        TraceEvent(EK.IO, lock_id=2),
        TraceEvent(EK.HALT, tid=7),
    ]

    def test_round_trip(self):
        assert loads_trace(dumps_trace(self.EVENTS)) == self.EVENTS

    def test_defaults_omitted(self):
        text = dumps_trace([TraceEvent(EK.ALU)])
        assert text.strip() == "alu"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nalu\nload,a=64\n"
        events = loads_trace(text)
        assert len(events) == 2
        assert events[1].addr == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            loads_trace("warp,a=1\n")

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError, match="bad field"):
            loads_trace("alu,z=1\n")

    def test_io_payload_round_trips(self):
        event = TraceEvent(EK.IO, tid=1, lock_id=3, payload=42)
        assert dumps_trace([event]).strip() == "io,t=1,l=3,p=42"
        assert loads_trace(dumps_trace([event])) == [event]

    def test_bad_integer_names_its_line(self):
        with pytest.raises(ValueError, match=r"line 2: bad field 'a=zz'"):
            loads_trace("alu\nload,a=zz\n")

    def test_real_trace_round_trips(self):
        from helpers import saxpy_program
        from repro.compiler import run_single

        events, _ = run_single(saxpy_program(n=8))
        assert loads_trace(dumps_trace(events)) == events

    def test_loaded_trace_simulates_identically(self):
        from helpers import saxpy_program
        from repro.compiler import run_single
        from repro.config import SystemConfig
        from repro.runtime.backends import MEMORY_MODE
        from repro.sim.engine import simulate

        events, _ = run_single(saxpy_program(n=32))
        reloaded = loads_trace(dumps_trace(events))
        config = SystemConfig()
        assert (
            simulate(events, config, MEMORY_MODE).cycles
            == simulate(reloaded, config, MEMORY_MODE).cycles
        )
