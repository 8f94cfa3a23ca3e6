"""Tests for the persistent columnar result store (repro.store)."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.store import STORE_SCHEMA_VERSION, ResultStore, StoreError

ROWS_A = [
    {"experiment": "E02", "target_density": 0.05, "empirical_epsilon": 1.5, "row": 0},
    {"experiment": "E02", "target_density": 0.1, "empirical_epsilon": 0.9, "row": 1},
]
ROWS_B = [
    {"experiment": "E17", "topology": "torus2d", "relative_bias": -0.01, "row": 0},
]


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.append("seg-a", ROWS_A) is True
        assert store.segments() == ["seg-a"]
        assert store.read_segment("seg-a") == ROWS_A
        assert list(store.rows()) == ROWS_A
        assert store.count() == 2

    def test_append_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        assert store.append("seg-a", ROWS_B) is False
        assert store.read_segment("seg-a") == ROWS_A

    def test_segments_sorted_and_rows_in_segment_order(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-b", ROWS_B)
        store.append("seg-a", ROWS_A)
        assert store.segments() == ["seg-a", "seg-b"]
        assert list(store.rows()) == ROWS_A + ROWS_B

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A, meta={"title": "t"})
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []

    def test_bad_segment_names_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for name in ("", "a/b", ".hidden", "spaced name"):
            with pytest.raises(StoreError):
                store.append(name, ROWS_A)

    def test_part_file_is_the_commit_point(self, tmp_path):
        # A writer killed after the meta sidecar but before the part file
        # must leave a resumable segment: the retried append goes through
        # and rewrites the sidecar with identical bytes.
        store = ResultStore(tmp_path / "store")
        store.append("seg-0", ROWS_B, meta={"title": "warm-up"})  # creates the store
        meta = {"title": "accuracy", "columns": ["a"]}
        orphan = store.segments_dir / "seg-a.meta.json"
        orphan.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        assert "seg-a" not in store.segments()
        assert store.append("seg-a", ROWS_A, meta=meta) is True
        assert store.read_segment("seg-a") == ROWS_A
        assert store.read_meta("seg-a") == meta

    def test_missing_segment_raises_store_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        with pytest.raises(StoreError, match="segment 'seg-z' does not exist"):
            store.read_segment("seg-z")

    def test_blank_lines_in_a_segment_are_not_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        path = store.segments_dir / "seg-a.ndjson"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n" + "\n\n".join(lines) + "\n\n", encoding="utf-8")
        assert store.read_segment("seg-a") == ROWS_A
        assert store.count() == len(ROWS_A)

    def test_unreadable_meta_sidecar_raises_store_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A, meta={"title": "accuracy"})
        (store.segments_dir / "seg-a.meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable segment metadata"):
            store.read_meta("seg-a")

    def test_meta_sidecar_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A, meta={"title": "accuracy", "columns": ["a"]})
        assert store.read_meta("seg-a") == {"title": "accuracy", "columns": ["a"]}
        assert store.read_meta("missing") is None
        # Sidecars must not be enumerated as data segments.
        assert store.segments() == ["seg-a"]


class TestSchemaAndProvenance:
    def test_schema_document_created_with_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A, provenance={"sweep": "demo", "seed_root": 7})
        schema = store.schema()
        assert schema["schema_version"] == STORE_SCHEMA_VERSION
        assert schema["format"] == "ndjson"
        assert store.provenance()["package_version"] == __version__
        assert store.provenance()["sweep"] == "demo"
        assert store.provenance()["seed_root"] == 7

    def test_provenance_pinned_by_first_writer(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A, provenance={"seed_root": 7})
        store.append("seg-b", ROWS_B, provenance={"seed_root": 99})
        assert store.provenance()["seed_root"] == 7

    def test_columns_are_sorted_union(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        store.append("seg-b", ROWS_B)
        assert store.columns() == sorted(store.columns())
        assert set(store.columns()) == {
            "experiment",
            "target_density",
            "empirical_epsilon",
            "row",
            "topology",
            "relative_bias",
        }

    def test_future_schema_version_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        schema = json.loads(store.schema_path.read_text())
        schema["schema_version"] = STORE_SCHEMA_VERSION + 1
        store.schema_path.write_text(json.dumps(schema))
        with pytest.raises(StoreError, match="schema version"):
            ResultStore(tmp_path / "store").segments()

    @pytest.mark.parametrize("fmt", ["parquet", "sqlite"])
    def test_other_format_rejected_on_open(self, tmp_path, fmt):
        ResultStore(tmp_path / "store").append("seg-a", ROWS_A)
        schema = json.loads((tmp_path / "store" / "_schema.json").read_text())
        schema["format"] = fmt
        (tmp_path / "store" / "_schema.json").write_text(json.dumps(schema))
        with pytest.raises(StoreError, match=f"in format '{fmt}'"):
            ResultStore(tmp_path / "store")

    def test_unreadable_schema_document_rejected_on_open(self, tmp_path):
        ResultStore(tmp_path / "store").append("seg-a", ROWS_A)
        (tmp_path / "store" / "_schema.json").write_text("{truncated", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable store schema"):
            ResultStore(tmp_path / "store")

    def test_missing_store_raises_on_schema_access(self, tmp_path):
        store = ResultStore(tmp_path / "nothing")
        assert not store.exists()
        with pytest.raises(StoreError, match="no store exists"):
            store.schema()


class TestSelect:
    @pytest.fixture
    def store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        store.append("seg-b", ROWS_B)
        return store

    def test_equality_filter(self, store):
        rows = store.select(where={"experiment": "E02"})
        assert [row["row"] for row in rows] == [0, 1]

    def test_numeric_string_filter_matches_numbers(self, store):
        # CLI filters arrive as text; '0.1' must match the stored float 0.1.
        assert len(store.select(where={"target_density": "0.1"})) == 1
        assert len(store.select(where={"target_density": 0.1})) == 1

    def test_missing_column_never_matches(self, store):
        assert store.select(where={"nonexistent": 1}) == []

    def test_projection_and_limit(self, store):
        rows = store.select(columns=["experiment", "row"], limit=2)
        assert rows == [{"experiment": "E02", "row": 0}, {"experiment": "E02", "row": 1}]

    def test_predicate(self, store):
        rows = store.select(predicate=lambda row: row.get("empirical_epsilon", 0) > 1.0)
        assert len(rows) == 1 and rows[0]["target_density"] == 0.05

    def test_corrupt_segment_raises_store_error(self, store):
        path = store.segments_dir / "seg-a.ndjson"
        path.write_text("{not json}\n")
        with pytest.raises(StoreError, match="corrupt row"):
            store.select()


class TestExport:
    def test_csv_export(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        output = tmp_path / "rows.csv"
        assert store.export(output, fmt="csv") == 2
        lines = output.read_text().strip().splitlines()
        assert lines[0].split(",") == store.columns()
        assert len(lines) == 3

    def test_ndjson_export_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        output = tmp_path / "rows.ndjson"
        store.export(output, fmt="ndjson")
        parsed = [json.loads(line) for line in output.read_text().strip().splitlines()]
        assert parsed == ROWS_A

    def test_unknown_export_format_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("seg-a", ROWS_A)
        with pytest.raises(StoreError, match="unknown export format"):
            store.export(tmp_path / "rows.xlsx", fmt="xlsx")


class TestDeterminism:
    def test_identical_appends_identical_bytes(self, tmp_path):
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        for store in (store_a, store_b):
            store.append("seg-a", ROWS_A, meta={"title": "t"}, provenance={"seed_root": 0})
            store.append("seg-b", ROWS_B)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_append_order_does_not_change_final_contents(self, tmp_path):
        store_a = ResultStore(tmp_path / "a")
        store_a.append("seg-a", ROWS_A, provenance={"seed_root": 0})
        store_a.append("seg-b", ROWS_B)
        store_b = ResultStore(tmp_path / "b")
        store_b.append("seg-b", ROWS_B, provenance={"seed_root": 0})
        store_b.append("seg-a", ROWS_A)
        assert list(store_a.rows()) == list(store_b.rows())
        assert store_a.columns() == store_b.columns()
