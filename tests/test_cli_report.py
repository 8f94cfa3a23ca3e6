"""Tests for the CLI and the markdown report generator."""

import json

import pytest

from repro.cli import main
from repro.core.kernel import BatchSimulationResult, RunContext, current_run_context, run_kernel
from repro.core.simulation import SimulationConfig
from repro.experiments import run_experiment
from repro.experiments.report import (
    generate_report,
    records_to_markdown_table,
    result_to_markdown,
)
from repro.topology.torus import Torus2D


class TestMarkdownRendering:
    def test_records_to_markdown_table(self):
        table = records_to_markdown_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert len(lines) == 4

    def test_empty_records(self):
        assert "no rows" in records_to_markdown_table([])

    def test_nan_rendered(self):
        table = records_to_markdown_table([{"a": float("nan")}])
        assert "nan" in table

    def test_result_to_markdown_contains_claim_and_notes(self):
        result = run_experiment("E17", quick=True, seed=0)
        text = result_to_markdown(result)
        assert text.startswith("### E17")
        assert "Paper claim." in text
        assert "|" in text

    def test_generate_report_subset(self):
        text = generate_report(quick=True, seed=0, experiment_ids=["E17"], header="# Title")
        assert text.startswith("# Title")
        assert "### E17" in text
        assert "### E01" not in text


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E01" in output and "E18" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E17", "--quick", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "[E17]" in output

    def test_run_with_figure(self, capsys):
        assert main(["run", "E01", "--quick", "--figure"]) == 0
        output = capsys.readouterr().out
        assert "[E01]" in output
        assert "empirical_epsilon vs rounds" in output

    def test_run_json_output(self, capsys):
        assert main(["run", "E17", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E17"
        assert isinstance(payload["records"], list)

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "E99", "--quick"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_backend_flag_is_bit_identical(self, capsys):
        """--backend only changes wall-clock: records match across backends."""
        outputs = {}
        for backend in ("reference", "fused", "auto"):
            assert main(["run", "E17", "--quick", "--json", "--backend", backend]) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["reference"] == outputs["fused"] == outputs["auto"]

    def test_run_context_flags_do_not_outlive_main(self, capsys):
        argv = ["run", "E01", "--quick", "--json", "--backend", "analytic", "--shard-workers", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert current_run_context() == RunContext()
        # A later in-process kernel call simulates again.
        outcome = run_kernel(Torus2D(8), SimulationConfig(num_agents=4, rounds=3), 2, 0)
        assert type(outcome) is BatchSimulationResult

    def test_run_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "E17", "--quick", "--backend", "turbo"])

    @pytest.mark.slow
    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        # Restrict indirectly by using quick mode; the full suite in quick mode
        # is still fast enough for a test.
        assert main(["report", "--quick", "--output", str(target)]) == 0
        assert target.exists()
        assert "### E01" in target.read_text()

    @pytest.mark.slow
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--quick"]) == 0
        assert "### E18" in capsys.readouterr().out
