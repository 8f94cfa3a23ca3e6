"""Out-of-core store reads: iter_select, fast count, streaming export, merge.

The contracts under test:

* ``iter_select`` is *equivalent* to ``select`` (same rows, same order) for
  every where/columns/limit combination — pinned both by crafted cases and
  by a hypothesis sweep against an independent reference implementation;
* it is *streaming*: peak incremental memory stays bounded while the
  materialised ``select`` of the same store scales with the row count, and
  ``limit`` stops before later segments are even opened (observed through
  the ``store.*`` telemetry counters);
* ``count`` never decodes a row but still surfaces unreadable segments;
* ``export`` streams to a temp file and renames — byte-identical output,
  atomic on failure;
* ``merge_stores`` unions shard stores idempotently and refuses conflicts.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregate import StreamStats, aggregate_stream
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.store import ResultStore, StoreError, merge_stores
from repro.store.store import _matches
from repro.utils.atomic import atomic_copy_file, atomic_text_writer, atomic_write_text
from repro.utils.serialization import rows_to_csv


def make_store(root, *, segments=6, rows_per_segment=5) -> ResultStore:
    """A small store of deterministic synthetic rows, several segments wide."""
    store = ResultStore(root)
    counter = 0
    for segment_index in range(segments):
        rows = []
        for _ in range(rows_per_segment):
            rows.append(
                {
                    "cell": segment_index,
                    "row": counter,
                    "value": counter * 0.5,
                    "parity": counter % 2,
                    "label": f"item-{counter % 3}",
                }
            )
            counter += 1
        store.append(f"seg-{segment_index:03d}", rows)
    return store


def reference_select(store, *, where=None, predicate=None, columns=None, limit=None):
    """Independent reimplementation of the select contract (the old code)."""
    out = []
    if limit is not None and limit <= 0:
        return out
    for row in store.rows():
        if where and not _matches(row, where):
            continue
        if predicate is not None and not predicate(row):
            continue
        if columns is not None:
            row = {column: row.get(column) for column in columns}
        out.append(row)
        if limit is not None and len(out) >= limit:
            break
    return out


class TestIterSelectEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"where": {"parity": 0}},
            {"where": {"parity": "1"}},  # CLI-style numeric string
            {"where": {"label": "item-2"}},
            {"where": {"missing_column": 1}},
            {"columns": ["row", "value"]},
            {"columns": ["row", "absent"]},
            {"limit": 7},
            {"limit": 0},
            {"where": {"parity": 0}, "columns": ["row"], "limit": 3},
            {"predicate": lambda row: row["value"] > 4.0},
            {"where": {"parity": 1}, "predicate": lambda row: row["row"] > 10},
        ],
    )
    def test_matches_select_and_reference(self, tmp_path, kwargs):
        store = make_store(tmp_path / "store")
        streamed = list(store.iter_select(**kwargs))
        assert streamed == store.select(**kwargs)
        assert streamed == reference_select(store, **kwargs)

    def test_rows_in_segment_then_row_order(self, tmp_path):
        store = make_store(tmp_path / "store", segments=3, rows_per_segment=4)
        assert [row["row"] for row in store.iter_select()] == list(range(12))

    def test_iterator_is_lazy(self, tmp_path):
        store = make_store(tmp_path / "store")
        iterator = store.iter_select()
        first = next(iterator)
        assert first["row"] == 0
        iterator.close()

    @given(
        where_key=st.sampled_from(["cell", "parity", "label", "absent"]),
        where_value=st.one_of(
            st.integers(min_value=-1, max_value=5),
            st.sampled_from(["0", "1", "item-1", "nope"]),
        ),
        use_where=st.booleans(),
        columns=st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(["cell", "row", "value", "label", "absent"]),
                min_size=1,
                max_size=3,
                unique=True,
            ),
        ),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_equivalence(
        self, tmp_path_factory, where_key, where_value, use_where, columns, limit
    ):
        root = tmp_path_factory.mktemp("hyp-store")
        store = make_store(root, segments=4, rows_per_segment=6)
        where = {where_key: where_value} if use_where else None
        kwargs = {"where": where, "columns": columns, "limit": limit}
        streamed = list(store.iter_select(**kwargs))
        assert streamed == store.select(**kwargs)
        assert streamed == reference_select(store, **kwargs)


class TestStreamingBehaviour:
    def test_limit_short_circuits_before_later_segments_open(self, tmp_path):
        store = make_store(tmp_path / "store", segments=8, rows_per_segment=5)
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            rows = list(store.iter_select(limit=7))
        assert len(rows) == 7
        counters = recorder.summary()["counters"]
        # 7 rows fit in the first two 5-row segments; the other six stay shut.
        assert counters["store.segments_opened"] == 2
        assert counters["store.rows_scanned"] == 7
        assert counters["store.rows_returned"] == 7

    def test_counters_report_scan_vs_return_selectivity(self, tmp_path):
        store = make_store(tmp_path / "store", segments=4, rows_per_segment=6)
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            rows = list(store.iter_select(where={"parity": 0}))
        counters = recorder.summary()["counters"]
        assert counters["store.segments_opened"] == 4
        assert counters["store.rows_scanned"] == 24
        assert counters["store.rows_returned"] == len(rows) == 12

    def test_counters_flush_even_on_abandoned_iteration(self, tmp_path):
        store = make_store(tmp_path / "store", segments=3, rows_per_segment=4)
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            iterator = store.iter_select()
            next(iterator)
            iterator.close()
        counters = recorder.summary()["counters"]
        assert counters["store.segments_opened"] == 1
        assert counters["store.rows_scanned"] == 1

    def test_no_telemetry_keys_without_recorder(self, tmp_path):
        store = make_store(tmp_path / "store")
        recorder = TelemetryRecorder(level="summary")
        list(store.iter_select())  # no recorder installed
        assert "store.segments_opened" not in recorder.summary()["counters"]

    def test_iter_select_peak_memory_bounded_while_select_is_not(self, tmp_path):
        """The tracemalloc regression gate: streaming stays under a fixed
        budget on a store whose materialised row set exceeds it."""
        store = make_store(tmp_path / "store", segments=64, rows_per_segment=400)
        budget_bytes = 2 * 1024 * 1024

        tracemalloc.start()
        total = 0
        for row in store.iter_select():
            total += row["parity"]
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        rows = store.select()
        _, materialised_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert total == sum(row["parity"] for row in rows)
        assert len(rows) == 64 * 400
        assert streamed_peak < budget_bytes, f"streaming peak {streamed_peak} over budget"
        assert materialised_peak > budget_bytes, (
            f"materialised select peaked at only {materialised_peak}; "
            "the budget no longer separates the two paths"
        )
        assert materialised_peak > 4 * streamed_peak


class TestCount:
    def test_count_matches_row_iteration(self, tmp_path):
        store = make_store(tmp_path / "store", segments=5, rows_per_segment=7)
        assert store.count() == 35 == sum(1 for _ in store.rows())

    def test_count_ignores_blank_lines(self, tmp_path):
        store = make_store(tmp_path / "store", segments=1, rows_per_segment=3)
        path = store._segment_path("seg-000")
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        assert store.count() == 3

    def test_count_does_not_decode_json(self, tmp_path):
        # A corrupt row still *counts* (counting reads lines, not JSON) ...
        store = make_store(tmp_path / "store", segments=1, rows_per_segment=2)
        path = store._segment_path("seg-000")
        path.write_text("{not json\n" + path.read_text(), encoding="utf-8")
        assert store.count() == 3
        # ... while row-decoding reads surface the corruption loudly.
        with pytest.raises(StoreError, match="corrupt row in segment 'seg-000' line 1"):
            store.select()

    def test_count_surfaces_unreadable_segment(self, tmp_path):
        store = make_store(tmp_path / "store", segments=2, rows_per_segment=2)
        path = store._segment_path("seg-001")
        path.unlink()
        path.mkdir()  # listed as a segment, unreadable as a part file
        with pytest.raises(StoreError, match="seg-001"):
            store.count()
        with pytest.raises(StoreError, match="seg-001"):
            list(store.rows())


class TestStreamingExport:
    def test_csv_export_bytes_match_materialised_rendering(self, tmp_path):
        store = make_store(tmp_path / "store")
        output = tmp_path / "rows.csv"
        count = store.export(output, fmt="csv")
        rows = store.select()
        columns = sorted({key for row in rows for key in row})
        assert count == len(rows)
        assert output.read_text(encoding="utf-8") == rows_to_csv(rows, columns=columns)

    def test_csv_export_with_explicit_columns(self, tmp_path):
        store = make_store(tmp_path / "store")
        output = tmp_path / "rows.csv"
        count = store.export(output, fmt="csv", columns=["row", "label", "absent"])
        lines = output.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,label,absent"
        assert count == len(lines) - 1
        assert lines[1] == "0,item-0,"  # absent column renders empty

    def test_ndjson_export_round_trips(self, tmp_path):
        store = make_store(tmp_path / "store")
        output = tmp_path / "rows.ndjson"
        count = store.export(output, fmt="ndjson")
        decoded = [
            json.loads(line)
            for line in output.read_text(encoding="utf-8").splitlines()
        ]
        assert count == len(decoded)
        assert decoded == store.select()

    def test_empty_store_exports_empty_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append("empty", [])
        for fmt in ("csv", "ndjson"):
            output = tmp_path / f"out.{fmt}"
            assert store.export(output, fmt=fmt) == 0
            assert output.read_text(encoding="utf-8") == ""

    def test_failed_export_leaves_no_output_and_no_temp(self, tmp_path):
        store = make_store(tmp_path / "store", segments=2, rows_per_segment=2)
        path = store._segment_path("seg-001")
        path.write_text("{corrupt\n", encoding="utf-8")
        output = tmp_path / "out" / "rows.csv"
        with pytest.raises(StoreError, match="corrupt row"):
            store.export(output, fmt="ndjson")
        assert not output.exists()
        assert list(output.parent.glob("*.tmp")) == []

    def test_unknown_format_rejected(self, tmp_path):
        store = make_store(tmp_path / "store")
        with pytest.raises(StoreError, match="unknown export format"):
            store.export(tmp_path / "out.xml", fmt="xml")


class TestAtomicTextWriter:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        with atomic_text_writer(target) as handle:
            handle.write("hello\n")
            assert not target.exists()  # nothing published mid-write
        assert target.read_text(encoding="utf-8") == "hello\n"
        assert list(target.parent.glob("*.tmp")) == []

    def test_unlinks_temp_and_keeps_old_content_on_error(self, tmp_path):
        target = tmp_path / "file.txt"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_text_writer(target) as handle:
                handle.write("new\n")
                raise RuntimeError("boom")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []


class TestAtomicWriteAndCopy:
    def test_failed_write_keeps_old_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "file.txt"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "caf\u00e9\n", encoding="ascii")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_publishes_through_a_temp_named_for_the_writer(self, tmp_path, monkeypatch):
        import os
        import threading

        import repro.utils.atomic as atomic_module

        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append((src, os.path.exists(src)))
            real_replace(src, dst)

        monkeypatch.setattr(atomic_module.os, "replace", spy)
        target = tmp_path / "new" / "dir" / "record.json"
        atomic_write_text(target, '{"caf\u00e9": 1}\n')
        monkeypatch.undo()
        assert target.read_bytes() == '{"caf\u00e9": 1}\n'.encode("utf-8")
        assert replaced == [(f"{target}.{os.getpid()}-{threading.get_ident()}.tmp", True)]
        assert list(target.parent.iterdir()) == [target]

    def test_keeps_the_mode_mkstemp_gives(self, tmp_path):
        import os
        import stat
        import tempfile

        fd, reference = tempfile.mkstemp(dir=tmp_path)
        os.close(fd)
        target = tmp_path / "file.txt"
        atomic_write_text(target, "x")
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(os.stat(reference).st_mode)

    def test_failed_write_leaves_no_temp(self, tmp_path, monkeypatch):
        import errno
        import os

        import repro.utils.atomic as atomic_module

        target = tmp_path / "file.txt"
        target.write_text("old\n", encoding="utf-8")
        calls = []
        real_write = os.write

        def short_then_full_disk(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                return real_write(fd, bytes(data[:3]))  # a short write is resumed
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(atomic_module.os, "write", short_then_full_disk)
        with pytest.raises(OSError, match="no space"):
            atomic_write_text(target, "new content\n")
        monkeypatch.undo()
        assert calls == [12, 9]
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_dead_writers_temp_under_the_same_name_is_replaced(self, tmp_path):
        import os
        import threading

        target = tmp_path / "file.txt"
        orphan = tmp_path / f"file.txt.{os.getpid()}-{threading.get_ident()}.tmp"
        orphan.write_text("left by a killed writer", encoding="utf-8")
        atomic_write_text(target, "fresh\n")
        assert target.read_text(encoding="utf-8") == "fresh\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_copy_streams_exact_bytes_into_new_directories(self, tmp_path):
        source = tmp_path / "part.ndjson"
        payload = bytes(range(256)) * 1024  # larger than one copy buffer
        source.write_bytes(payload)
        target = tmp_path / "a" / "b" / "part.ndjson"
        atomic_copy_file(source, target)
        assert target.read_bytes() == payload
        assert list(target.parent.glob("*.tmp")) == []

    def test_copy_of_missing_source_leaves_nothing_behind(self, tmp_path):
        target = tmp_path / "out" / "part.ndjson"
        with pytest.raises(FileNotFoundError):
            atomic_copy_file(tmp_path / "missing.ndjson", target)
        assert not target.exists()
        assert list(target.parent.glob("*")) == []


class TestMergeStores:
    def make_shards(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        a.append("seg-a", [{"x": 1}], meta={"origin": "a"})
        b = ResultStore(tmp_path / "b")
        b.append("seg-b", [{"x": 2}, {"x": 3}])
        return a, b

    def test_merge_unions_segments_and_rows(self, tmp_path):
        a, b = self.make_shards(tmp_path)
        summary = merge_stores([a.directory, b.directory], tmp_path / "merged")
        merged = ResultStore(tmp_path / "merged")
        assert summary["segments_copied"] == 2
        assert summary["segments_skipped"] == 0
        assert summary["rows"] == 3
        assert merged.segments() == ["seg-a", "seg-b"]
        assert merged.read_meta("seg-a") == {"origin": "a"}
        # Schema document bytes come from the first source, verbatim.
        assert merged.schema_path.read_bytes() == a.schema_path.read_bytes()

    def test_merge_is_idempotent(self, tmp_path):
        a, b = self.make_shards(tmp_path)
        merge_stores([a.directory, b.directory], tmp_path / "merged")
        before = {
            path: path.read_bytes() for path in (tmp_path / "merged").rglob("*") if path.is_file()
        }
        summary = merge_stores([a.directory, b.directory], tmp_path / "merged")
        assert summary["segments_copied"] == 0
        assert summary["segments_skipped"] == 2
        after = {
            path: path.read_bytes() for path in (tmp_path / "merged").rglob("*") if path.is_file()
        }
        assert before == after

    def test_merge_rejects_conflicting_segment_bytes(self, tmp_path):
        a, _ = self.make_shards(tmp_path)
        c = ResultStore(tmp_path / "c")
        c.append("seg-a", [{"x": 99}])  # same name, different content
        merge_stores([a.directory], tmp_path / "merged")
        with pytest.raises(StoreError, match="seg-a.*conflict|conflicts"):
            merge_stores([c.directory], tmp_path / "merged")

    def test_merge_rejects_conflicting_segment_metadata(self, tmp_path):
        a, _ = self.make_shards(tmp_path)
        c = ResultStore(tmp_path / "c")
        c.append("seg-a", [{"x": 1}], meta={"origin": "c"})  # same rows, other sidecar
        merge_stores([a.directory], tmp_path / "merged")
        with pytest.raises(StoreError, match="seg-a.*metadata differs"):
            merge_stores([c.directory], tmp_path / "merged")
        assert ResultStore(tmp_path / "merged").read_meta("seg-a") == {"origin": "a"}

    def test_merge_rejects_missing_source_and_empty_list(self, tmp_path):
        with pytest.raises(StoreError, match="at least one source"):
            merge_stores([], tmp_path / "merged")
        with pytest.raises(StoreError, match="no store exists"):
            merge_stores([tmp_path / "missing"], tmp_path / "merged")


class TestStreamingAggregation:
    def test_aggregate_of_streamed_rows_matches_materialised_rows(self, tmp_path):
        store = make_store(tmp_path / "store", segments=5, rows_per_segment=8)
        metrics = [
            ("mean", "value"),
            ("var", "value"),
            ("std", "value"),
            ("median", "value"),
            ("min", "row"),
            ("max", "row"),
            ("sum", "row"),
            ("count", "value"),
        ]
        streamed = aggregate_stream(
            store.iter_select(), by=["parity", "label"], metrics=metrics
        )
        materialised = aggregate_stream(store.select(), by=["parity", "label"], metrics=metrics)
        assert streamed == materialised

    def test_group_with_no_numeric_values_yields_none(self):
        rows = [{"g": 1, "v": "text"}, {"g": 1, "v": None}]
        [out] = aggregate_stream(rows, by=["g"], metrics=[("mean", "v"), ("count", "v")])
        assert out == {"g": 1, "n": 2, "mean_v": None, "count_v": None}

    def test_stream_stats_merge_equals_single_pass(self):
        values = [float(v) for v in range(-5, 37)]
        whole = StreamStats(keep_values=True)
        left = StreamStats(keep_values=True)
        right = StreamStats(keep_values=True)
        for value in values:
            whole.add(value)
        for value in values[:13]:
            left.add(value)
        for value in values[13:]:
            right.add(value)
        left.merge(right)
        for stat in ("mean", "var", "std", "min", "max", "sum", "count", "median"):
            assert left.statistic(stat) == pytest.approx(whole.statistic(stat), rel=1e-12)

    def test_merge_into_empty_accumulator(self):
        empty = StreamStats()
        filled = StreamStats()
        for value in (1.0, 2.0, 4.0):
            filled.add(value)
        empty.merge(filled)
        assert empty.statistic("mean") == pytest.approx(7.0 / 3.0)
        assert StreamStats().statistic("mean") is None
