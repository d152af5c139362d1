"""Integration tests for the experiment drivers (small scales, a few
benchmarks — the full runs live in benchmarks/)."""

import hashlib
from dataclasses import replace

import pytest

from repro.analysis import experiments
from repro.analysis import (
    ExperimentContext,
    fig7_slowdown,
    fig8_efficiency,
    fig9_psp_vs_wsp,
    fig10_cwsp,
    fig11_wpq_size,
    fig12_threshold,
    fig13_victim_policy,
    fig14_miss_rate,
    fig15_bandwidth,
    fig16_threads,
    fig17_cxl,
    fig18_wpq_hits,
    format_figure,
    format_mapping,
    table1_config,
    table2_conflict_rate,
    table3_cxl,
    vg2_cam_latency,
    vg3_region_stats,
    vg4_hw_cost,
)
from repro.compiler.interp import trace_of
from repro.compiler.pipeline import compile_program
from repro.compiler.textir import print_program
from repro.config import DEFAULT_CONFIG, CompilerConfig
from repro.runtime.backends import CAPRI, LIGHTWSP, MEMORY_MODE, PPA
from repro.sim.engine import simulate
from repro.workloads.suite import BENCHMARKS


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        scale=0.08, benchmarks=["lbm", "namd", "vacation", "rb"]
    )


@pytest.fixture(scope="module")
def ctx_st():
    return ExperimentContext(scale=0.08, benchmarks=["lbm", "namd"])


class TestContext:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            ExperimentContext(benchmarks=["nope"])

    def test_traces_cached(self, ctx):
        a = ctx.baseline_trace("namd")
        b = ctx.baseline_trace("namd")
        assert a is b

    def test_compiled_trace_has_boundaries(self, ctx):
        from repro.trace import EK

        events = ctx.compiled_trace("namd")
        assert any(e.kind == EK.BOUNDARY for e in events)

    def test_baseline_trace_has_none(self, ctx):
        from repro.trace import EK

        events = ctx.baseline_trace("namd")
        assert not any(e.kind == EK.BOUNDARY for e in events)


#: at this scale namd compiles to one program at every threshold, lbm
#: and intruder (8 threads) to a different one at threshold 16; only
#: lbm's cycles move with it, so only lbm's rows catch an over-shared
#: trace
MEMO_APPS = ("lbm", "namd", "intruder")
MEMO_SCALE = 0.05
#: every compiler config fig7/11/12 ask for: the default, fig11's
#: threshold-tracks-WPQ/2 points and fig12's thresholds
MEMO_CONFIGS = (
    [DEFAULT_CONFIG]
    + [DEFAULT_CONFIG.with_wpq_entries(s) for s in (256, 128, 64)]
    + [DEFAULT_CONFIG.with_store_threshold(t) for t in (16, 32, 64)]
)


def _program_digest(name, cc):
    program = BENCHMARKS[name].build(scale=MEMO_SCALE)
    compiled = compile_program(program, cc).program
    return hashlib.sha256(print_program(compiled).encode()).hexdigest()


class _Direct:
    """Slowdowns from plain ``trace_of`` + ``simulate`` calls, with no
    context: one trace per (app, compiler config), one simulation per
    cell, nothing shared between sweep points."""

    def __init__(self):
        self._traces = {}

    def trace(self, name, policy, config):
        lightwsp = policy.name.startswith(LIGHTWSP.name)
        key = (name, config.compiler if lightwsp else None)
        if key not in self._traces:
            bench = BENCHMARKS[name]
            program = bench.build(scale=MEMO_SCALE)
            if lightwsp:
                program = compile_program(program, config.compiler).program
            self._traces[key] = trace_of(
                program, bench.entries(None), max_steps=12_000_000
            )
        return self._traces[key]

    def slowdown(self, name, policy, config):
        base = simulate(self.trace(name, MEMORY_MODE, config), config, MEMORY_MODE)
        res = simulate(self.trace(name, policy, config), config, policy)
        return res.cycles / base.cycles

    def rows(self, columns):
        """``columns`` maps a row key to (policy, config)."""
        out = []
        for name in MEMO_APPS:
            row = {"benchmark": name, "suite": BENCHMARKS[name].suite}
            for column, (policy, config) in columns.items():
                row[column] = self.slowdown(name, policy, config)
            out.append(row)
        return out


@pytest.fixture(scope="module")
def memo_run():
    """fig7/11/12 on one fresh context, counting every trace generated
    and every simulation the context asks the engine for."""
    sims, traces = [], []

    def counting(fn, log):
        def wrapped(*args, **kwargs):
            log.append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "simulate", counting(experiments.simulate, sims))
        for fn in ("run_single", "run_threads"):
            mp.setattr(experiments, fn, counting(getattr(experiments, fn), traces))
        ctx = ExperimentContext(scale=MEMO_SCALE, benchmarks=list(MEMO_APPS))
        figures = [fig7_slowdown(ctx), fig11_wpq_size(ctx), fig12_threshold(ctx)]
    return ctx, figures, sims, traces


class TestMemo:
    def test_rows_equal_uncached_simulation(self, memo_run):
        _, (fig7, fig11, fig12), _, _ = memo_run
        direct = _Direct()
        cfg = DEFAULT_CONFIG
        assert fig7.rows == direct.rows({
            p.name: (p, cfg) for p in (CAPRI, PPA, LIGHTWSP)
        })
        assert fig11.rows == direct.rows({
            "WPQ-%d" % s: (LIGHTWSP, cfg.with_wpq_entries(s))
            for s in (256, 128, 64)
        })
        assert fig12.rows == direct.rows({
            "St-Threshold-%d" % t: (LIGHTWSP, cfg.with_store_threshold(t))
            for t in (16, 32, 64)
        })

    def test_no_simulation_repeats(self, memo_run):
        _, _, sims, _ = memo_run
        keys = [
            (id(args[0]), replace(args[1], compiler=CompilerConfig()),
             args[2], kwargs.get("hardware_cores"))
            for args, kwargs in sims
        ]
        assert len(keys) == len(set(keys))
        # fig11/12 re-ask fig7's default point and each other's
        # threshold-32 point, so fewer simulations than cells ran
        cells = len(MEMO_APPS) * (1 + 3 + 2 * 3 + 2 * 3)
        assert len(sims) < cells

    def test_one_trace_per_distinct_program(self, memo_run):
        _, _, _, traces = memo_run
        programs = {
            (name, _program_digest(name, config.compiler))
            for name in MEMO_APPS for config in MEMO_CONFIGS
        }
        # plus one uninstrumented-binary trace per app
        assert len(traces) == len(programs) + len(MEMO_APPS)
        assert len(programs) < len(MEMO_APPS) * len(
            {config.compiler for config in MEMO_CONFIGS}
        )

    def test_changed_program_gets_its_own_trace(self, memo_run):
        ctx = memo_run[0]
        low = DEFAULT_CONFIG.with_store_threshold(16)
        high = DEFAULT_CONFIG.with_store_threshold(64)
        split = [
            name for name in MEMO_APPS
            if _program_digest(name, low.compiler)
            != _program_digest(name, high.compiler)
        ]
        assert split, "no app's program moves with the threshold"
        for name in MEMO_APPS:
            shared = ctx.compiled_trace(name, low) is ctx.compiled_trace(name, high)
            assert shared == (name not in split)
        for name in split:
            assert ctx.compiled_trace(name, low) != ctx.compiled_trace(name, high)
            assert ctx.run(name, LIGHTWSP, low) is not ctx.run(name, LIGHTWSP, high)

    def test_memoized_result_is_shared(self, memo_run):
        ctx = memo_run[0]
        assert ctx.run("namd", LIGHTWSP) is ctx.run(
            "namd", LIGHTWSP, DEFAULT_CONFIG.with_store_threshold(64)
        )


class TestFigureDrivers:
    def test_fig7_shape(self, ctx):
        fig = fig7_slowdown(ctx)
        assert fig.series == ("Capri", "PPA", "LightWSP")
        assert len(fig.rows) == 4
        assert fig.overall["LightWSP"] >= 0.95
        assert fig.overall["Capri"] >= fig.overall["LightWSP"]

    def test_fig8_efficiency_bounds(self, ctx_st):
        fig = fig8_efficiency(ctx_st)
        for row in fig.rows:
            assert 0.0 <= row["PPA"] <= 100.0
            assert 0.0 <= row["LightWSP"] <= 100.0

    def test_fig9_only_memory_intensive(self, ctx):
        fig = fig9_psp_vs_wsp(ctx)
        names = {row["benchmark"] for row in fig.rows}
        assert names == {"lbm", "rb"}  # the mem-intensive ones in ctx

    def test_fig10_excludes_npb(self):
        ctx = ExperimentContext(scale=0.08, benchmarks=["namd", "cg"])
        fig = fig10_cwsp(ctx)
        assert all(row["suite"] != "NPB" for row in fig.rows)

    def test_fig11_series(self, ctx_st):
        fig = fig11_wpq_size(ctx_st, sizes=(128, 64))
        assert fig.series == ("WPQ-128", "WPQ-64")
        for row in fig.rows:
            assert row["WPQ-128"] > 0

    def test_fig12_thresholds(self, ctx_st):
        fig = fig12_threshold(ctx_st, thresholds=(16, 32))
        assert "St-Threshold-16" in fig.series

    def test_table2_rates_non_negative(self, ctx_st):
        fig = table2_conflict_rate(ctx_st)
        for row in fig.rows:
            assert row["conflict_permille"] >= 0.0

    def test_fig13_policies(self, ctx_st):
        fig = fig13_victim_policy(ctx_st)
        assert set(fig.series) == {"Full Victim", "Half Victim", "Zero Victim"}

    def test_fig14_includes_stale_load(self, ctx_st):
        fig = fig14_miss_rate(ctx_st)
        assert "Stale Load" in fig.series
        for row in fig.rows:
            assert 0.0 <= row["Stale Load"] <= 100.0

    def test_fig15_bandwidth_ordering(self, ctx_st):
        fig = fig15_bandwidth(ctx_st, bandwidths=(4.0, 1.0))
        # lower bandwidth must not be faster overall
        assert fig.overall["1GB/s"] >= fig.overall["4GB/s"] * 0.99

    def test_fig16_multithreaded_only(self, ctx):
        fig = fig16_threads(ctx, counts=(2, 4))
        names = {row["benchmark"] for row in fig.rows}
        assert names == {"vacation", "rb"}
        for row in fig.rows:
            assert "overflows_2" in row

    def test_fig17_cxl_presets(self, ctx_st):
        fig = fig17_cxl(ctx_st)
        assert set(fig.series) == {"CXL-I", "CXL-II", "CXL-III", "CXL-PMem"}

    def test_fig18_hit_rates(self, ctx_st):
        fig = fig18_wpq_hits(ctx_st, sizes=(64,))
        for row in fig.rows:
            assert row["WPQ-64"] >= 0.0

    def test_vg3_region_stats(self, ctx_st):
        fig = vg3_region_stats(ctx_st)
        for row in fig.rows:
            assert row["instrumentation_pct"] >= 0.0
            assert row["insts_per_region"] > 0
            assert row["stores_per_region"] > 0


class TestStaticTables:
    def test_table1_rows(self):
        table = table1_config()
        assert "Processor" in table
        assert "WPQ" in table["Memory Controller"]

    def test_table3_rows(self):
        fig = table3_cxl()
        assert len(fig.rows) == 4

    def test_vg2_cam(self):
        result = vg2_cam_latency()
        assert result["search_cycles"] == 2

    def test_vg4_costs(self):
        costs = vg4_hw_cost()
        assert "LightWSP" in costs and "0.5B" in costs["LightWSP"]


class TestReport:
    def test_format_figure_renders(self, ctx_st):
        fig = fig7_slowdown(ctx_st)
        text = format_figure(fig)
        assert "Fig. 7" in text
        assert "geomean(all)" in text
        assert "lbm" in text

    def test_format_mapping(self):
        text = format_mapping("Table I", {"a": 1, "b": 2.5})
        assert "Table I" in text and "2.500" in text
