"""Tests for the `python -m repro` CLI."""

import pytest

from repro.__main__ import main

#: the timing-plane scheme names `repro list` prints, in its order
LISTED_SCHEMES = ("Capri", "LightWSP", "PPA", "PSP-Ideal", "cWSP", "memory-mode")


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "LightWSP" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "WHISPER" in out
        assert "fig7" in out

    def test_list_includes_store_mixes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "STORE" in out
        assert "ycsb-a" in out
        assert "store-crud" in out

    def test_run_benchmark(self, capsys):
        assert main(["run", "namd", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_list_pins_scheme_names(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [ln for ln in lines if ln.startswith("schemes:")]
        assert line == "schemes: " + ", ".join(LISTED_SCHEMES)

    @pytest.mark.parametrize("scheme", LISTED_SCHEMES)
    def test_every_listed_scheme_runs(self, scheme, capsys):
        assert main(["run", "namd", "--scheme", scheme, "--scale", "0.02"]) == 0
        assert "namd under %s:" % scheme in capsys.readouterr().out

    def test_run_unknown_benchmark(self, capsys):
        assert main(["run", "nope"]) == 2

    def test_run_unknown_scheme(self, capsys):
        assert main(["run", "namd", "--scheme", "nope"]) == 2

    def test_figure(self, capsys):
        assert main(
            ["figure", "fig9", "--scale", "0.02", "--benchmarks", "lbm"]
        ) == 0
        out = capsys.readouterr().out
        assert "PSP-Ideal" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_figure_unknown_benchmarks(self, capsys):
        assert main(["figure", "fig7", "--benchmarks", "lbm", "nope"]) == 2
        assert capsys.readouterr().out.strip() == "unknown benchmarks: nope"

    def test_compile_malformed_lir(self, capsys, tmp_path):
        bad = tmp_path / "bad.lir"
        bad.write_text("program p\nfunc main()\nentry:\n    frobnicate r1\n")
        assert main(["compile", str(bad)]) == 2
        assert capsys.readouterr().out.strip() == (
            "%s:4: unknown mnemonic 'frobnicate'" % bad
        )

    def test_compile_malformed_array_declaration(self, capsys, tmp_path):
        bad = tmp_path / "bad.lir"
        bad.write_text("program p\narray a x\n")
        assert main(["compile", str(bad)]) == 2
        assert capsys.readouterr().out.strip() == (
            "%s:2: bad array declaration" % bad
        )

    def test_verify_malformed_lir(self, capsys, tmp_path):
        bad = tmp_path / "bad.lir"
        bad.write_text("func main()\n")
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().out.strip() == (
            "%s:1: missing 'program <name>' header" % bad
        )

    def test_compile_lir(self, capsys):
        assert main(["compile", "examples/counter.lir", "--threshold", "8"]) == 0
        out = capsys.readouterr().out
        assert "boundary" in out
        assert "boundaries=" in out

    def test_crash_sweep(self, capsys):
        assert main(
            ["crash-sweep", "hmmer", "--scale", "0.005", "--stride", "37"]
        ) == 0
        out = capsys.readouterr().out
        assert "crash-consistent" in out

    def test_crash_sweep_unknown(self, capsys):
        assert main(["crash-sweep", "nope"]) == 2


class TestServeCLI:
    def test_serve_smoke(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "p50=" in out
        assert "acked-write oracle: PASS" in out

    def test_serve_smoke_deterministic(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--smoke", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "nope"]) == 2

    def test_serve_crash_options(self, capsys):
        assert main([
            "serve", "--workload", "crud", "--ops", "60",
            "--keys", "16", "--batch", "16", "--shards", "2",
            "--seed", "3", "--crash-epoch", "1", "--crash-torn",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash" in out
        assert "acked-write oracle: PASS" in out

    def test_faults_list_mentions_store_targets(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "store-ycsb-a" in out


class TestClusterCLI:
    def test_cluster_serve_smoke(self, capsys):
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "responses:" in out
        assert "zero acked-write loss" in out

    def test_cluster_serve_smoke_deterministic(self, capsys):
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["cluster", "serve", "--smoke", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_cluster_serve_rejects_lossy_backend(self, capsys):
        assert main([
            "cluster", "serve", "--smoke", "--backend", "psp",
        ]) == 2
        assert "not crash-consistent" in capsys.readouterr().out

    def test_cluster_campaign_and_replay(self, capsys, tmp_path):
        trace = str(tmp_path / "cluster.jsonl")
        assert main([
            "faults", "campaign", "--workload", "cluster",
            "--backend", "lightwsp-lrpo", "--seed", "1",
            "--trace", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster campaign" in out
        assert "PASS" in out
        assert main(["faults", "replay", trace]) == 0
        assert "0 mismatch(es)" in capsys.readouterr().out


class TestVerifyCLI:
    def test_verify_single_benchmark(self, capsys):
        assert main(["verify", "bzip2"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out
        assert "0 failure(s)" in out

    def test_verify_store_program(self, capsys):
        assert main(["verify", "store-crud"]) == 0
        out = capsys.readouterr().out
        assert "store-crud" in out

    def test_verify_unknown_target(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_verify_self_test(self, capsys):
        assert main(["verify", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "self-test: PASS" in out
        for rule in ("R1", "R2", "R3", "R4", "R5"):
            assert rule in out

    def test_verify_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        assert main(["verify", "hmmer", "--json", str(path)]) == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["failed"] == 0
        assert payload["targets"]["hmmer"]["ok"] is True

    def test_verify_nonconverged_threshold_warns(self, capsys):
        assert main(["verify", "bzip2", "--threshold", "2"]) == 0
        out = capsys.readouterr().out
        assert "warning" in out

    def test_run_with_verify_gate(self, capsys):
        assert main(["run", "namd", "--scale", "0.02", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_serve_smoke_with_verify_gate(self, capsys):
        assert main(["serve", "--smoke", "--seed", "7", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "acked-write oracle: PASS" in out
