"""CLI tests for `repro sweep ...`, `repro store ...`, and `report --from-store`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.store import ResultStore
from repro.sweeps import GridAxis, SweepSpec, TargetSpec


def _files(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


@pytest.fixture
def spec_path(tmp_path):
    spec = SweepSpec(
        name="cli-sweep",
        seed=5,
        targets=(
            TargetSpec(
                kind="experiment",
                name="E02",
                base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                axes=(GridAxis("densities", ((0.1,), (0.2,))),),
            ),
            TargetSpec(
                kind="scenario",
                name="stable",
                base={"side": 8, "num_agents": 4, "replicates": 2, "rounds": 4},
            ),
        ),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


class TestSweepCommands:
    def test_run_then_resume_reports_cache_hits(self, spec_path, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        # Interrupt deterministically after one computed cell: exit code 3
        # signals an incomplete sweep.
        assert main(["sweep", "run", "--spec", spec_path, "--store", store_dir, "--max-cells", "1"]) == 3
        out = capsys.readouterr()
        assert "1 computed" in out.out and "2 pending" in out.out
        assert "resume with:" in out.out
        assert "computed" in out.err  # per-cell progress goes to stderr
        assert main(["sweep", "resume", "--spec", spec_path, "--store", store_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cached"] == 1 and summary["computed"] == 2 and summary["pending"] == 0
        # A second resume recomputes nothing at all.
        assert main(["sweep", "resume", "--spec", spec_path, "--store", store_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cached"] == 3 and summary["computed"] == 0

    def test_resume_without_prior_run_fails(self, spec_path, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "resume", "--spec", spec_path, "--store", store_dir]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_status_without_running(self, spec_path, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["sweep", "status", "--spec", spec_path, "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "3 cells" in out and "3 pending" in out

    def test_status_json_after_partial_run(self, spec_path, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        main(["sweep", "run", "--spec", spec_path, "--store", store_dir, "--max-cells", "2"])
        capsys.readouterr()
        assert main(["sweep", "status", "--spec", spec_path, "--store", store_dir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cached"] == 2 and status["pending"] == 1
        assert [entry["stored"] for entry in status["per_cell"]] == [True, True, False]

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "run", "--spec", str(tmp_path / "none.json"), "--store", str(tmp_path / "s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_flag_changes_nothing_in_the_store(self, spec_path, tmp_path, capsys):
        main(["sweep", "run", "--spec", spec_path, "--store", str(tmp_path / "s1"), "--workers", "1"])
        main(["sweep", "run", "--spec", spec_path, "--store", str(tmp_path / "s2"), "--workers", "2"])
        capsys.readouterr()
        rows_1 = list(ResultStore(tmp_path / "s1").rows())
        rows_2 = list(ResultStore(tmp_path / "s2").rows())
        assert rows_1 == rows_2


class TestStoreCommands:
    @pytest.fixture
    def store_dir(self, spec_path, tmp_path, capsys):
        directory = str(tmp_path / "store")
        main(["sweep", "run", "--spec", spec_path, "--store", directory])
        capsys.readouterr()
        return directory

    def test_query_rows_json(self, store_dir, capsys):
        assert main(["store", "query", "--store", store_dir, "--where", "target=E02", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["target"] == "E02" for row in rows)

    def test_query_projection_and_limit(self, store_dir, capsys):
        assert (
            main(
                ["store", "query", "--store", store_dir, "--where", "target=E02",
                 "--columns", "target_density,empirical_epsilon", "--limit", "1", "--json"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert set(rows[0]) == {"target_density", "empirical_epsilon"}

    def test_query_aggregate_by(self, store_dir, capsys):
        assert (
            main(
                ["store", "query", "--store", store_dir, "--where", "target=E02",
                 "--aggregate", "mean:empirical_epsilon", "--by", "cell", "--json"]
            )
            == 0
        )
        groups = json.loads(capsys.readouterr().out)
        assert [group["cell"] for group in groups] == [0, 1]
        assert all(group["mean_empirical_epsilon"] is not None for group in groups)

    def test_query_aggregate_with_columns_projects(self, store_dir, capsys):
        assert (
            main(
                ["store", "query", "--store", store_dir, "--where", "target=E02",
                 "--aggregate", "mean:empirical_epsilon", "--by", "cell",
                 "--columns", "mean_empirical_epsilon", "--json"]
            )
            == 0
        )
        groups = json.loads(capsys.readouterr().out)
        assert all(set(group) == {"mean_empirical_epsilon"} for group in groups)

    def test_query_aggregate_with_unknown_column_rejected(self, store_dir, capsys):
        assert (
            main(
                ["store", "query", "--store", store_dir,
                 "--aggregate", "mean:empirical_epsilon", "--columns", "bogus"]
            )
            == 2
        )
        assert "not in the aggregated output" in capsys.readouterr().err

    def test_query_by_without_aggregate_rejected(self, store_dir, capsys):
        assert main(["store", "query", "--store", store_dir, "--by", "cell"]) == 2
        assert "--by only makes sense" in capsys.readouterr().err

    def test_query_bad_aggregate_rejected(self, store_dir, capsys):
        assert main(["store", "query", "--store", store_dir, "--aggregate", "avg=epsilon"]) == 2
        assert "metrics look like" in capsys.readouterr().err

    def test_query_missing_store_rejected(self, tmp_path, capsys):
        assert main(["store", "query", "--store", str(tmp_path / "none")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_query_csv_output(self, store_dir, capsys):
        assert (
            main(["store", "query", "--store", store_dir, "--where", "target=E02",
                  "--columns", "target,row", "--csv"]) == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "target,row"
        assert all(line.startswith("E02,") for line in lines[1:])

    def test_export_csv(self, store_dir, tmp_path, capsys):
        output = tmp_path / "rows.csv"
        assert main(["store", "export", "--store", store_dir, "--output", str(output)]) == 0
        assert "wrote" in capsys.readouterr().out
        header = output.read_text().splitlines()[0]
        assert "cell_key" in header and "target" in header

    def test_export_ndjson(self, store_dir, tmp_path, capsys):
        output = tmp_path / "rows.ndjson"
        assert (
            main(["store", "export", "--store", store_dir, "--output", str(output),
                  "--format", "ndjson"]) == 0
        )
        capsys.readouterr()
        parsed = [json.loads(line) for line in output.read_text().strip().splitlines()]
        assert parsed == list(ResultStore(store_dir).rows())


class TestShardAndMergeCLI:
    def run_unsharded(self, spec_path, tmp_path, capsys):
        store_dir = tmp_path / "unsharded"
        assert (
            main(["sweep", "run", "--spec", spec_path, "--store", str(store_dir),
                  "--cache-dir", str(tmp_path / "unsharded-cache")]) == 0
        )
        capsys.readouterr()
        return store_dir

    def test_shard_merge_byte_identical_and_queryable(self, spec_path, tmp_path, capsys):
        unsharded = self.run_unsharded(spec_path, tmp_path, capsys)
        for index in range(2):
            assert (
                main(["sweep", "run", "--spec", spec_path,
                      "--store", str(tmp_path / f"shard{index}"),
                      "--cache-dir", str(tmp_path / f"shard{index}-cache"),
                      "--shard", f"{index}/2"]) == 0
            )
        out = capsys.readouterr().out
        assert "(shard 1/2: 2 owned)" in out  # 3 cells split 1 + 2
        assert (
            main(["store", "merge", str(tmp_path / "shard0"), str(tmp_path / "shard1"),
                  "--into", str(tmp_path / "merged")]) == 0
        )
        assert "3 segment(s) copied" in capsys.readouterr().out

        assert _files(tmp_path / "merged") == _files(unsharded)
        # The merged store feeds the streaming aggregate path directly.
        assert (
            main(["store", "query", "--store", str(tmp_path / "merged"),
                  "--where", "target=E02", "--aggregate", "mean:empirical_epsilon",
                  "--by", "cell", "--json"]) == 0
        )
        groups = json.loads(capsys.readouterr().out)
        assert [group["cell"] for group in groups] == [0, 1]

    def test_interrupted_shard_resumes_with_shard_flag_hint(self, spec_path, tmp_path, capsys):
        # Shard 1 of 2 owns two of the three cells, so max-cells=1 leaves it
        # genuinely interrupted (exit code 3).
        assert (
            main(["sweep", "run", "--spec", spec_path, "--store", str(tmp_path / "shard1"),
                  "--cache-dir", str(tmp_path / "cache1"), "--shard", "1/2",
                  "--max-cells", "1"]) == 3
        )
        out = capsys.readouterr().out
        assert "--shard 1/2" in out  # the resume hint carries the shard
        assert (
            main(["sweep", "resume", "--spec", spec_path, "--store", str(tmp_path / "shard1"),
                  "--cache-dir", str(tmp_path / "cache1"), "--shard", "1/2", "--json"]) == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["shard"] == "1/2"
        assert summary["pending"] == 0

    def test_merge_json_summary(self, spec_path, tmp_path, capsys):
        store_dir = self.run_unsharded(spec_path, tmp_path, capsys)
        assert (
            main(["store", "merge", str(store_dir), "--into", str(tmp_path / "copy"),
                  "--json"]) == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["sources"] == 1
        assert summary["segments_copied"] == 3
        assert summary["segments_skipped"] == 0
        assert summary["rows"] == ResultStore(store_dir).count()
        # Re-merging is idempotent — everything already present.
        assert (
            main(["store", "merge", str(store_dir), "--into", str(tmp_path / "copy"),
                  "--json"]) == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["segments_copied"] == 0 and summary["segments_skipped"] == 3

    @pytest.mark.parametrize("shard", ["5/2", "x/y", "1"])
    def test_invalid_shard_flag_rejected(self, spec_path, tmp_path, capsys, shard):
        assert (
            main(["sweep", "run", "--spec", spec_path, "--store", str(tmp_path / "s"),
                  "--shard", shard]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_merge_missing_source_rejected(self, tmp_path, capsys):
        assert (
            main(["store", "merge", str(tmp_path / "none"),
                  "--into", str(tmp_path / "merged")]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestSweepRunContext:
    """Cell keys fold the run context, so cells cached under one backend or
    RNG discipline are never served to a run under another."""

    @pytest.fixture
    def one_cell_spec(self, tmp_path):
        spec = SweepSpec(
            name="context-sweep",
            seed=0,
            targets=(TargetSpec(kind="experiment", name="E01", base={"quick": True}),),
        )
        path = tmp_path / "one-cell.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    @pytest.mark.parametrize("flags", [["--backend", "analytic"], ["--shard-workers", "2"]])
    def test_cached_cells_do_not_cross_contexts(self, one_cell_spec, tmp_path, capsys, flags):
        shared = str(tmp_path / "shared-cache")

        def sweep(command, store, cache, *extra):
            argv = ["sweep", command, "--spec", one_cell_spec, "--store", str(tmp_path / store)]
            assert main([*argv, "--cache-dir", cache, "--json", *extra]) == 0
            return json.loads(capsys.readouterr().out)

        assert sweep("run", "a", shared, *flags)["computed"] == 1
        assert sweep("status", "a", shared, *flags)["cached"] == 1
        assert sweep("status", "a", shared)["cached"] == 0
        summary = sweep("run", "b", shared)
        assert summary["computed"] == 1 and summary["cached"] == 0
        sweep("run", "fresh", str(tmp_path / "fresh-cache"))

        assert _files(tmp_path / "b") == _files(tmp_path / "fresh")

    def test_resume_hint_carries_the_run_flags(self, spec_path, tmp_path, capsys):
        argv = ["sweep", "run", "--spec", spec_path, "--store", str(tmp_path / "s"), "--max-cells", "1"]
        assert main([*argv, "--backend", "fused", "--shard-workers", "2"]) == 3
        assert "--backend fused --shard-workers 2" in capsys.readouterr().out


class TestReportFromStore:
    def test_report_regenerated_without_running(self, spec_path, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        main(["sweep", "run", "--spec", spec_path, "--store", store_dir])
        capsys.readouterr()
        assert main(["report", "--from-store", store_dir]) == 0
        text = capsys.readouterr().out
        # Only the experiment target appears (scenarios are not report
        # sections), with the records of both cells concatenated.
        assert "### E02" in text
        assert "stable" not in text
        assert "| 0.1 |" in text and "| 0.2 |" in text

    def test_report_from_missing_store_fails(self, tmp_path, capsys):
        assert main(["report", "--from-store", str(tmp_path / "none")]) == 2
        assert "no result store" in capsys.readouterr().err
