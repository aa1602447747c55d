"""Tests for the command-line interface."""

import pytest

from repro.cli import MODEL_ALIASES, SYSTEMS, build_parser, main


class TestParser:
    def test_specs_command(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Llama-70B" in out
        assert "A100-80GB" in out
        assert "muxwise" in out

    def test_table1_command(self, capsys):
        assert main(["table1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ShareGPT" in out
        assert "Tool&Agent" in out

    def test_run_command_small(self, capsys):
        code = main([
            "run", "--system", "muxwise", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "4.0", "--requests", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TBT p99" in out
        assert "Useful Tok/s" in out

    def test_run_writes_jsonl(self, tmp_path, capsys):
        output = tmp_path / "records.jsonl"
        code = main([
            "run", "--system", "chunked", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "4.0", "--requests", "10",
            "--output", str(output),
        ])
        assert code == 0
        assert output.exists()
        assert len(output.read_text().strip().splitlines()) == 10

    def test_run_output_reuses_the_printed_run(self, tmp_path, monkeypatch, capsys):
        """``--output`` dumps the records of the one run the tables came
        from: the simulation runs once, and every printed request is a row."""
        from repro.bench import runner

        capped = []
        runs = []
        real_capped, real_simulate = runner.run_capped, runner.simulate

        def count_capped(sim, until):
            capped.append(until)
            real_capped(sim, until)

        def spy_simulate(*args, **kwargs):
            runs.append(real_simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(runner, "run_capped", count_capped)
        monkeypatch.setattr(runner, "simulate", spy_simulate)
        output = tmp_path / "records.jsonl"
        code = main([
            "run", "--system", "chunked", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "4.0", "--requests", "10",
            "--output", str(output),
        ])
        assert code == 0
        assert len(runs) == 1 and len(capped) == 1
        assert capped[0] is not None  # the drain horizon, not run-to-empty
        system, _ = runs[0]
        rows = output.read_text().strip().splitlines()
        assert len(rows) == system.metrics.summarize().requests_finished == 10

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--workload", "sharegpt", "--model", "8b", "--gpus", "1",
            "--rate", "3.0", "--requests", "15", "--systems", "muxwise,chunked",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "muxwise" in out and "chunked" in out

    def test_goodput_command(self, capsys):
        code = main([
            "goodput", "--system", "muxwise", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--requests", "20", "--rates", "2.0,4.0",
        ])
        assert code == 0
        assert "goodput:" in capsys.readouterr().out

    def test_perf_by_kind(self, capsys):
        assert main(["perf", "--scenarios", "single_goodput", "--scale", "0.05", "--by-kind"]) == 0
        out = capsys.readouterr().out
        assert "realloc lone/pair/general" in out
        assert "single_goodput: heap pushes / cancels by callback kind" in out
        assert "Device._on_update" in out

    def test_cluster_command(self, capsys):
        code = main([
            "cluster", "--system", "chunked", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "4.0", "--requests", "16",
            "--replicas", "2", "--policy", "least-outstanding",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet goodput" in out
        assert "r0" in out and "r1" in out

    def test_cluster_with_autoscaler_and_shed_admission(self, capsys):
        code = main([
            "cluster", "--system", "chunked", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "8.0", "--requests", "16",
            "--replicas", "1", "--policy", "round-robin",
            "--admission", "shed", "--max-outstanding", "4",
            "--autoscale", "--min-replicas", "1", "--max-replicas", "2",
        ])
        assert code == 0
        assert "fleet goodput" in capsys.readouterr().out

    def test_cluster_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "fleet.json"
        code = main([
            "cluster", "--system", "chunked", "--workload", "sharegpt",
            "--model", "8b", "--gpus", "1", "--rate", "4.0", "--requests", "8",
            "--replicas", "2", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        assert '"route:' in trace.read_text()

    def test_cluster_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--policy", "teleport", "--model", "8b", "--gpus", "1"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "nope", "--workload", "sharegpt"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "gpt-17", "--workload", "sharegpt"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "nope", "--model", "8b", "--gpus", "1"])

    def test_tenancy_command_small(self, capsys):
        code = main(["study", "tenancy", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "isolated" in out
        assert "wfq+brownout" in out
        assert "interactive TBT attainment" in out

    def test_tenancy_json_output(self, capsys):
        import json as _json

        code = main(["study", "tenancy", "--scale", "0.1", "--json"])
        assert code == 0
        study = _json.loads(capsys.readouterr().out)
        assert set(study["contended"]) == {"fifo", "wfq", "wfq+brownout"}
        assert "degradation_pts" in study
        tiers = {t["tier"] for t in study["contended"]["wfq+brownout"]["tiers"]}
        assert "interactive" in tiers

    def test_all_aliases_resolve(self):
        parser = build_parser()
        assert parser is not None
        assert set(MODEL_ALIASES.values()) <= {
            "Llama-8B", "Llama-70B", "Qwen3-235B-A22B", "CodeLlama-34B",
        }
        assert "muxwise" in SYSTEMS and "hybrid-pd" in SYSTEMS


class TestColdStart:
    """``specs`` and ``--help`` import neither numpy nor the harness.

    ``specs`` lists the systems, so it loads the system table and nothing
    else of :mod:`repro.bench`.
    """

    RUN = """
import json, runpy, sys
sys.argv = ["repro", *{argv!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy" or m.startswith("repro.bench"))]))
"""

    @pytest.mark.parametrize(
        "argv,bench",
        [(["specs"], ["repro.bench", "repro.bench.systems"]), (["--help"], [])],
        ids=["specs", "--help"],
    )
    def test_loads_neither_numpy_nor_bench(self, argv, bench, fresh_python):
        assert fresh_python(self.RUN.format(argv=argv)) == [0, bench]


class TestAgenticRagCli:
    def test_run_agentic_workload(self, capsys):
        code = main([
            "run", "--system", "muxwise", "--workload", "agentic",
            "--model", "8b", "--gpus", "1", "--rate", "2.0", "--requests", "8",
        ])
        assert code == 0
        assert "Useful Tok/s" in capsys.readouterr().out

    def test_run_rag_workload(self, capsys):
        code = main([
            "run", "--system", "chunked", "--workload", "rag",
            "--model", "8b", "--gpus", "1", "--rate", "2.0", "--requests", "10",
        ])
        assert code == 0
        assert "Useful Tok/s" in capsys.readouterr().out

    def test_scenarios_json(self, capsys):
        import json as _json

        code = main(["study", "scenarios", "--scale", "0.05", "--json"])
        assert code == 0
        study = _json.loads(capsys.readouterr().out)
        assert set(study["verdicts"]) == {
            "affinity_wins_cache", "pause_shifts_gap", "calibration_ok",
        }
        assert all(study["verdicts"].values())

    def test_scenarios_human_output(self, capsys):
        code = main(["study", "scenarios", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RAG routing" in out
        assert "prefix-affinity" in out
        assert "calibration_ok: yes" in out


class TestProfileCli:
    def test_capture_show_replay_round_trip(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        code = main([
            "profile", "capture", "--model", "8b", "--gpus", "1",
            "--requests", "12", "--rate", "4.0", "--output", str(path),
        ])
        assert code == 0
        assert path.exists()
        assert "profile written" in capsys.readouterr().out

        code = main(["profile", "show", "--profile", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase prefill" in out and "phase decode" in out

        code = main([
            "profile", "replay", "--model", "8b", "--gpus", "1",
            "--requests", "12", "--rate", "4.0", "--profile", str(path),
        ])
        assert code == 0
        assert "replaying profile" in capsys.readouterr().out
