"""Tests for the content-addressed run cache (repro.engine.cache) and its CLI wiring."""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import RunCache, cache_key
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.utils.serialization import dumps


class TestCacheKey:
    def test_stable_across_component_order(self):
        assert cache_key(a=1, b="x") == cache_key(b="x", a=1)

    def test_distinct_components_distinct_keys(self):
        base = cache_key(topology="torus2d", config="c", seed=0)
        assert base != cache_key(topology="torus2d", config="c", seed=1)
        assert base != cache_key(topology="ring", config="c", seed=0)
        assert base != cache_key(topology="torus2d", config="c2", seed=0)

    def test_numpy_values_normalised(self):
        # NumPy scalars and arrays hash like their Python counterparts.
        assert cache_key(seed=np.int64(5), grid=np.array([1, 2])) == cache_key(
            seed=5, grid=[1, 2]
        )

    def test_key_is_hex_digest(self):
        key = cache_key(x=1)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestRunCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = cache.key(topology="torus2d", config="cfg", seed=3)
        assert cache.load(key) is None
        assert not cache.contains(key)
        payload = {"records": [{"rounds": 25, "epsilon": 0.5}], "notes": ["n"]}
        path = cache.store(key, payload)
        assert path.exists()
        assert cache.contains(key)
        assert cache.load(key) == payload

    def test_read_bytes_returns_the_stored_bytes_and_counts_no_lookup(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=4)
        payload = {"value": np.float64(0.25), "records": [{"rounds": 25}], "note": "é"}
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            assert cache.read_bytes(key) is None
            cache.store(key, payload)
            data = cache.read_bytes(key)
        assert data == dumps(payload).encode("utf-8")
        counters = recorder.summary()["counters"]
        assert "cache.hits" not in counters and "cache.misses" not in counters

    def test_numpy_payloads_serialised(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=1)
        cache.store(key, {"value": np.float64(0.25), "vector": np.arange(3)})
        assert cache.load(key) == {"value": 0.25, "vector": [0, 1, 2]}

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=2)
        cache.store(key, {"ok": True})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.load(key) is None
        assert not cache.contains(key)

    def test_undecodable_entry_is_a_miss_and_removed(self, tmp_path):
        # A crashed writer can leave bytes that are not even UTF-8.
        cache = RunCache(tmp_path)
        key = cache.key(k=3)
        cache.store(key, {"ok": True})
        cache.path_for(key).write_bytes(b"\xff\xfe\x00garbage")
        assert cache.load(key) is None
        assert not cache.contains(key)

    def test_keys_and_len_and_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        assert len(cache) == 0
        for index in range(3):
            cache.store(cache.key(index=index), {"index": index})
        assert len(cache) == 3
        assert all(len(k) == 64 for k in cache.keys())
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_foreign_files_ignored_by_keys_and_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.store(cache.key(a=1), {"a": 1})
        (tmp_path / "notes.json").write_text("{}", encoding="utf-8")
        (tmp_path / "README.txt").write_text("not a cache entry", encoding="utf-8")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert (tmp_path / "notes.json").exists()

    def test_path_for_rejects_non_digest_keys(self, tmp_path):
        cache = RunCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")
        with pytest.raises(ValueError):
            cache.path_for("")

    def test_missing_directory_is_empty_cache(self, tmp_path):
        cache = RunCache(tmp_path / "never_created")
        assert list(cache.keys()) == []
        assert cache.load(cache.key(a=1)) is None


    def test_unreadable_entry_is_a_miss_left_in_place(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=5)
        cache.path_for(key).mkdir(parents=True)  # exists, but cannot be read as a file
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            assert cache.read_bytes(key) is None
            assert cache.load(key) is None
        assert cache.path_for(key).is_dir()
        counters = recorder.summary()["counters"]
        assert counters["cache.read_errors"] == 2
        assert counters["cache.misses"] == 1
        assert "cache.corrupt_recovered" not in counters

    def test_pickled_copy_shares_entries_but_not_flights(self, tmp_path):
        import pickle

        cache = RunCache(tmp_path)
        key = cache.key(k=6)
        cache.store(key, {"ok": True})
        cache._flights[key] = object()  # an in-flight computation of this process
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.directory == cache.directory
        assert clone._flights == {}
        assert clone._flights_lock is not cache._flights_lock
        assert clone.load(key) == {"ok": True}
        assert clone.get_or_compute(cache.key(k=7), lambda: {"n": 7}) == ({"n": 7}, "computed")


def aged_entry(tmp_path) -> tuple[RunCache, str]:
    """A cache with one entry whose mtime is a minute old, so a rewrite now
    moves it even where the filesystem's clock ticks coarsely."""
    cache = RunCache(tmp_path)
    key = cache.key(k=8)
    path = cache.store(key, {"records": [{"round": 1, "estimate": 0.25}], "summary": {}})
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 60 * 10**9))
    return cache, key


def peek_counters(cache: RunCache, key: str, times: int) -> tuple[list, dict]:
    """``times`` peeks of ``key``: their answers and the counters they moved."""
    recorder = TelemetryRecorder(level="summary")
    with use_telemetry(recorder):
        answers = [cache.peek(key) for _ in range(times)]
    return answers, recorder.summary()["counters"]


class TestPeek:
    """``peek`` parses an entry once per change of its inode, size or mtime."""

    def test_repeated_peeks_parse_the_entry_once(self, tmp_path):
        cache, key = aged_entry(tmp_path)
        size = cache.path_for(key).stat().st_size
        answers, counters = peek_counters(cache, key, 5)
        assert answers == [size] * 5
        assert counters == {"cache.hits": 5, "cache.peek_parses": 1}

    @pytest.mark.parametrize("change", ["replaced", "truncated", "rewritten at the same size"])
    def test_a_changed_entry_is_parsed_again(self, tmp_path, change):
        """Each change moves one field of the stamp (the others are put back
        as they were): a corrupt result then shows the entry was parsed."""
        cache, key = aged_entry(tmp_path)
        path = cache.path_for(key)
        assert peek_counters(cache, key, 1)[0] == [path.stat().st_size]
        before = path.stat()
        corrupt = b"[" * before.st_size
        if change == "replaced":
            other = tmp_path / "other"
            other.write_bytes(corrupt)
            os.replace(other, path)
        elif change == "truncated":
            os.truncate(path, before.st_size // 2)
        else:
            with open(path, "r+b") as handle:
                handle.write(corrupt)
        if change != "rewritten at the same size":
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        moved = [
            name
            for name in ("st_ino", "st_size", "st_mtime_ns")
            if getattr(after, name) != getattr(before, name)
        ]
        assert moved == [{"replaced": "st_ino", "truncated": "st_size"}.get(change, "st_mtime_ns")]
        answers, counters = peek_counters(cache, key, 2)
        assert answers == [None, None]
        assert counters == {"cache.peek_parses": 2}
        assert path.exists()  # a peek leaves a corrupt entry for load() to recover
        cache.store(key, {"records": [], "summary": {}})
        answers, counters = peek_counters(cache, key, 2)
        assert answers == [path.stat().st_size] * 2
        assert counters == {"cache.hits": 2, "cache.peek_parses": 1}

    def test_a_missing_or_unreadable_entry_is_never_stamped(self, tmp_path):
        cache, key = aged_entry(tmp_path)
        assert peek_counters(cache, key, 1)[0] == [cache.path_for(key).stat().st_size]
        cache.path_for(key).unlink()
        assert peek_counters(cache, key, 2) == ([None, None], {})
        cache.path_for(key).mkdir()
        assert peek_counters(cache, key, 1) == ([None], {"cache.read_errors": 1})

    def test_stamps_are_bounded_oldest_first_and_not_pickled(self, tmp_path, monkeypatch):
        import pickle

        import repro.engine.cache as cache_module

        monkeypatch.setattr(cache_module, "_PEEK_STAMPS", 2)
        cache = RunCache(tmp_path)
        keys = [cache.key(k=index) for index in range(3)]
        for key in keys:
            cache.store(key, {"k": key})
            cache.peek(key)
        assert list(cache._stamps) == keys[1:]
        assert peek_counters(cache, keys[0], 1)[1]["cache.peek_parses"] == 1
        assert list(cache._stamps) == [keys[2], keys[0]]
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._stamps == {} and clone._stamps_lock is not cache._stamps_lock

    def test_store_does_not_stamp(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=9)
        cache.get_or_compute(key, lambda: {"n": 9})
        cache.store(cache.key(k=10), {"n": 10})
        assert cache._stamps == {}


class TestGetOrCompute:
    def test_miss_computes_plain_json_then_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        key = cache.key(k=1)
        calls = []

        def compute():
            calls.append(1)
            return {"value": np.float64(0.5), "vector": np.arange(2)}

        assert cache.get_or_compute(key, compute) == ({"value": 0.5, "vector": [0, 1]}, "computed")
        assert cache.get_or_compute(key, compute) == ({"value": 0.5, "vector": [0, 1]}, "hit")
        assert calls == [1]
        assert cache.load(key) == {"value": 0.5, "vector": [0, 1]}

    def test_bad_key_rejected_before_computing(self, tmp_path):
        def compute():
            raise AssertionError("computed for an invalid key")

        with pytest.raises(ValueError, match="lowercase hex digests"):
            RunCache(tmp_path).get_or_compute("../escape", compute)

    def test_leader_failure_reaches_the_waiter_and_the_key_retries(self, tmp_path):
        import threading

        cache = RunCache(tmp_path)
        key = cache.key(k=2)
        waiting = threading.Event()
        outcomes = {}

        class SignallingEvent(threading.Event):
            def wait(self, timeout=None):
                waiting.set()
                return super().wait(timeout)

        def follower():
            try:
                outcomes["follower"] = cache.get_or_compute(key, lambda: {"from": "follower"})
            except RuntimeError as error:
                outcomes["follower"] = error

        def failing_compute():
            # Swap in an event that reports when the follower blocks on it,
            # so the failure is raised only once the follower is a waiter.
            cache._flights[key].done = SignallingEvent()
            thread = threading.Thread(target=follower)
            thread.start()
            outcomes["thread"] = thread
            assert waiting.wait(timeout=30)
            raise RuntimeError("leader failed")

        with pytest.raises(RuntimeError, match="leader failed") as leader_error:
            cache.get_or_compute(key, failing_compute)
        outcomes["thread"].join(timeout=30)
        assert outcomes["follower"] is leader_error.value
        assert not cache.contains(key)
        assert cache._flights == {}
        assert cache.get_or_compute(key, lambda: {"retried": True}) == ({"retried": True}, "computed")


class TestCliCacheIntegration:
    def test_second_run_hits_cache_with_identical_table(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E17", "--quick", "--seed", "3", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "(cached)" not in first
        assert len(RunCache(cache_dir)) == 1

        assert main(["run", "E17", "--quick", "--seed", "3", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "[E17] (cached)" in second
        assert second.replace("[E17] (cached)\n", "") == first
        assert len(RunCache(cache_dir)) == 1

    def test_lowercase_id_shares_cache_entry(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "e17", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "E17", "--quick", "--cache-dir", cache_dir]) == 0
        assert "[E17] (cached)" in capsys.readouterr().out
        assert len(RunCache(cache_dir)) == 1

    def test_unknown_id_with_cache_reports_known_ids(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "e99", "--quick", "--cache-dir", cache_dir]) == 2
        assert "unknown experiment id" in capsys.readouterr().err
        assert len(RunCache(cache_dir)) == 0

    def test_different_seed_misses_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E17", "--quick", "--seed", "3", "--cache-dir", cache_dir]) == 0
        assert main(["run", "E17", "--quick", "--seed", "4", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert len(RunCache(cache_dir)) == 2

    def test_cached_json_output_matches_fresh(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E17", "--quick", "--json", "--cache-dir", cache_dir]) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert main(["run", "E17", "--quick", "--json", "--cache-dir", cache_dir]) == 0
        cached = json.loads(capsys.readouterr().out)
        assert cached == fresh

    @pytest.mark.slow
    def test_report_with_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        target = tmp_path / "report.md"
        assert main(["run", "all", "--quick", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # Report re-uses the run cache: all 22 experiments load from disk.
        assert main(["report", "--quick", "--cache-dir", cache_dir, "--output", str(target)]) == 0
        text = target.read_text()
        assert "### E01" in text and "### E22" in text


def _hammer_cache(directory: str, key: str, payload_id: int, iterations: int) -> int:
    """Worker for the concurrent-writer tests: repeatedly store and load one key.

    Returns the number of torn (invalid) payloads observed — must be zero:
    atomic replace means a reader sees either a complete old payload or a
    complete new one, never a mixture.
    """
    cache = RunCache(directory)
    torn = 0
    for iteration in range(iterations):
        cache.store(key, {"writer": payload_id, "iteration": iteration, "blob": "x" * 4096})
        loaded = cache.load(key)
        if loaded is not None:
            if set(loaded) != {"writer", "iteration", "blob"} or len(loaded["blob"]) != 4096:
                torn += 1
    return torn


class TestCacheConcurrency:
    """Edge cases the sweep path leans on (ISSUE 3 satellite)."""

    def test_concurrent_thread_writers_one_key_never_torn(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        directory = str(tmp_path / "cache")
        key = cache_key(shared="entry")
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(_hammer_cache, directory, key, writer, 25) for writer in range(8)
            ]
            assert sum(future.result() for future in futures) == 0
        final = RunCache(directory).load(key)
        assert final is not None and final["blob"] == "x" * 4096

    def test_concurrent_process_writers_shared_directory(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        directory = str(tmp_path / "cache")
        shared = cache_key(shared="entry")
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_hammer_cache, directory, shared, writer, 10) for writer in range(4)
            ] + [
                pool.submit(_hammer_cache, directory, cache_key(private=writer), writer, 10)
                for writer in range(4)
            ]
            assert sum(future.result() for future in futures) == 0
        cache = RunCache(directory)
        # One shared entry plus one private entry per process, all readable.
        assert len(cache) == 5
        for key in cache.keys():
            assert cache.load(key) is not None

    def test_no_temp_files_survive_the_stampede(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        directory = tmp_path / "cache"
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [
                pool.submit(_hammer_cache, str(directory), cache_key(n=writer), writer, 10)
                for writer in range(4)
            ]:
                future.result()
        assert list(directory.glob("*.tmp")) == []


class TestCacheUnderSweeps:
    """Corrupt-entry eviction and worker-count hit behaviour on the sweep path."""

    def _spec(self):
        from repro.sweeps import GridAxis, SweepSpec, TargetSpec

        return SweepSpec(
            name="cache-edge",
            seed=2,
            targets=(
                TargetSpec(
                    kind="experiment",
                    name="E02",
                    base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                    axes=(GridAxis("densities", ((0.1,), (0.2,), (0.3,))),),
                ),
            ),
        )

    def test_corrupt_entry_evicted_and_recomputed_mid_sweep(self, tmp_path):
        from repro.sweeps import compile_cells, run_sweep_spec

        spec = self._spec()
        cache = RunCache(tmp_path / "cache")
        run_sweep_spec(spec, cache=cache)
        cells = compile_cells(spec)
        victim = cache.path_for(cells[1].key)
        victim.write_text("{definitely not json")
        outcome = run_sweep_spec(spec, cache=cache)
        # Only the corrupt cell recomputes; the eviction replaced the entry.
        assert outcome.hits == 2 and outcome.computed == 1
        assert cache.load(cells[1].key) is not None
        assert run_sweep_spec(spec, cache=cache).hits == 3

    def test_cache_hits_across_worker_counts(self, tmp_path):
        from repro.sweeps import run_sweep_spec

        spec = self._spec()
        cache = RunCache(tmp_path / "cache")
        serial = run_sweep_spec(spec, workers=1, cache=cache)
        assert serial.computed == 3
        # A 4-worker rerun hits every entry the serial run wrote, and the
        # payloads are identical — the cache key excludes the worker count.
        parallel = run_sweep_spec(spec, workers=4, cache=cache)
        assert parallel.computed == 0 and parallel.hits == 3
        assert parallel.payloads == serial.payloads
        # And the reverse direction: a cold 4-worker run primes entries a
        # serial run then consumes.
        cache_b = RunCache(tmp_path / "cache-b")
        warm = run_sweep_spec(spec, workers=4, cache=cache_b)
        reread = run_sweep_spec(spec, workers=1, cache=cache_b)
        assert reread.computed == 0 and reread.payloads == warm.payloads
