"""The serve layer: submissions, schemas, queue, dedupe, HTTP, SSE.

The contracts under test, roughly inside-out:

* ``Submission`` — validation, round-tripping, and *cache-key parity*: a
  CLI run and an identical HTTP submission must address the same
  content-addressed entry, or the shared result tier is fiction.
* ``RoundBroadcaster`` — history replay, bounded buffers, terminal events.
* ``JobManager`` — lifecycle, persistence across restarts, admission
  control (429/503 semantics), and the headline dedupe property: N
  identical concurrent submissions → exactly one engine execution, every
  caller byte-identical.
* The HTTP layer — generated OpenAPI completeness (every experiment and
  scenario, no hand-maintained table) and the SSE stream whose final value
  matches the batch CLI output bit-for-bit.

Everything runs on deliberately tiny workloads (8x8 torus, 4 agents, a
handful of rounds) so the whole file stays in the fast tier.
"""

from __future__ import annotations

import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.cli import main
from repro.core.kernel import RunContext, use_run_context
from repro.engine import RunCache
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.serve.api import ROUTES, ReproServer, serve_forever
from repro.serve.jobs import Job, JobManager, QueueFullError, RateLimitedError, TokenBucketLimiter
from repro.serve.schema import (
    dataclass_schema,
    experiment_listing,
    json_type,
    openapi_document,
    scenario_listing,
    submission_schema,
)
from repro.serve.stream import RoundBroadcaster, sse_format
from repro.serve.submit import CACHE_SCHEMA, Submission, execute_submission, run_submission
from repro.utils.serialization import dumps

#: One tiny scenario submission, reused everywhere a real run is needed.
TINY = {
    "kind": "scenario",
    "name": "crash",
    "quick": True,
    "replicates": 2,
    "side": 8,
    "num_agents": 4,
    "rounds": 6,
    "seed": 0,
}


def tiny_submission(**overrides) -> Submission:
    return Submission.from_payload({**TINY, **overrides})


def tiny_sweep_spec(seed: int = 3) -> dict:
    """A two-cell sweep (one quick E02 grid axis) in its JSON form."""
    from repro.sweeps import GridAxis, SweepSpec, TargetSpec

    return SweepSpec(
        name="serve-sweep",
        seed=seed,
        targets=(
            TargetSpec(
                kind="experiment",
                name="E02",
                base={"quick": True, "side": 8, "rounds": 10, "trials": 1},
                axes=(GridAxis("densities", ((0.1,), (0.2,))),),
            ),
        ),
    ).to_dict()


def direct_sweep_rows(spec: dict, directory) -> list[dict]:
    """The rows a plain ``run_sweep_spec`` call stores for ``spec``."""
    from repro.store import ResultStore
    from repro.sweeps import SweepSpec, run_sweep_spec

    store = ResultStore(directory)
    run_sweep_spec(SweepSpec.from_dict(spec), store=store)
    return store.select()


# ======================================================================
# Submission
# ======================================================================


class TestSubmission:
    def test_round_trip(self):
        submission = tiny_submission()
        assert Submission.from_payload(submission.to_dict()) == submission

    def test_experiment_id_normalised(self):
        assert Submission.from_payload({"kind": "experiment", "name": "e01"}).name == "E01"

    def test_unknown_kind_field_and_names_rejected(self):
        with pytest.raises(ValueError, match="unknown submission kind"):
            Submission.from_payload({"kind": "banana", "name": "E01"})
        with pytest.raises(ValueError, match="unknown submission fields"):
            Submission.from_payload({"kind": "experiment", "name": "E01", "bogus": 1})
        with pytest.raises(KeyError, match="unknown experiment id"):
            Submission.from_payload({"kind": "experiment", "name": "E99"})
        with pytest.raises(KeyError, match="unknown scenario"):
            Submission.from_payload({"kind": "scenario", "name": "nope"})

    def test_experiment_overrides_validated(self):
        good = Submission.from_payload(
            {"kind": "experiment", "name": "E01", "quick": True, "overrides": {"trials": 1}}
        )
        assert good.build_experiment_config().trials == 1
        with pytest.raises(ValueError, match="unknown config fields"):
            Submission.from_payload(
                {"kind": "experiment", "name": "E01", "overrides": {"bogus": 2}}
            )
        with pytest.raises(ValueError, match="no config overrides"):
            Submission.from_payload({**TINY, "overrides": {"x": 1}})

    def test_sweep_requires_spec(self):
        with pytest.raises(ValueError, match="need a 'spec'"):
            Submission.from_payload({"kind": "sweep"})

    def test_sweep_submission_takes_the_spec_name_and_round_trips(self):
        spec = tiny_sweep_spec()
        submission = Submission.from_payload({"kind": "sweep", "spec": spec})
        assert submission.name == "serve-sweep"
        assert submission.spec == spec
        assert Submission.from_payload(submission.to_dict()) == submission

    @pytest.mark.parametrize(
        "breakage,match",
        [
            ({"name": "has spaces"}, "A-Za-z0-9"),
            ({"targets": []}, "at least one target"),
            ({"axes": [{"kind": "spiral", "name": "a", "values": [1]}]}, "unknown axis kind"),
        ],
        ids=["unsafe-name", "no-targets", "unknown-axis"],
    )
    def test_invalid_sweep_spec_rejected_at_submission(self, breakage, match):
        with pytest.raises(ValueError, match=match):
            Submission.from_payload({"kind": "sweep", "spec": {**tiny_sweep_spec(), **breakage}})

    def test_sweep_cache_key_follows_the_spec(self, tmp_path):
        cache = RunCache(tmp_path)
        key = Submission(kind="sweep", name="", spec=tiny_sweep_spec()).cache_key(cache)
        assert Submission(kind="sweep", name="", spec=tiny_sweep_spec()).cache_key(cache) == key
        assert Submission(kind="sweep", name="", spec=tiny_sweep_spec(seed=4)).cache_key(cache) != key

    def test_experiment_cache_key_matches_legacy_cli_form(self, tmp_path):
        """The serve key must be the CLI's historical key, field for field."""
        from repro.experiments import EXPERIMENTS

        cache = RunCache(tmp_path)
        submission = Submission(kind="experiment", name="E01", quick=True, seed=3)
        _, config_cls = EXPERIMENTS["E01"]
        legacy = cache.key(
            kind="experiment",
            schema=CACHE_SCHEMA,
            version=__version__,
            experiment="E01",
            quick=True,
            seed=3,
            config=repr(config_cls.quick()),
        )
        assert submission.cache_key(cache) == legacy

    def test_scenario_cache_key_matches_legacy_cli_form(self, tmp_path):
        from repro.dynamics.scenario import build_scenario

        cache = RunCache(tmp_path)
        submission = Submission(kind="scenario", name="crash", quick=True, replicates=2, seed=7)
        legacy = cache.key(
            kind="scenario",
            schema=CACHE_SCHEMA,
            version=__version__,
            scenario=repr(build_scenario("crash", quick=True)),
            replicates=2,
            seed=7,
        )
        assert submission.cache_key(cache) == legacy

    def test_shard_discipline_folds_into_key_but_count_does_not(self, tmp_path):
        """Sharded runs reseed per replicate row, so records differ from the
        unsharded stream — the discipline joins the key. The shard *count*
        stays out: results are bit-identical for every K."""
        cache = RunCache(tmp_path)
        submission = Submission(kind="experiment", name="E01", quick=True)
        unsharded_key = submission.cache_key(cache, RunContext())
        keys = {
            shards: submission.cache_key(cache, RunContext(shard_workers=shards))
            for shards in (1, 2, 7)
        }
        assert len(set(keys.values())) == 1
        assert keys[2] != unsharded_key
        for shards, key in keys.items():
            with use_run_context(RunContext(shard_workers=shards)):
                assert submission.cache_key(cache) == key  # context=None reads the current one

    def test_overrides_change_the_key(self, tmp_path):
        cache = RunCache(tmp_path)
        base = Submission(kind="experiment", name="E01", quick=True)
        tweaked = Submission(kind="experiment", name="E01", quick=True, overrides={"trials": 2})
        assert base.cache_key(cache) != tweaked.cache_key(cache)


class TestSweepSubmission:
    def test_payload_rows_are_the_rows_a_direct_run_stores(self, tmp_path):
        spec = tiny_sweep_spec()
        submission = Submission.from_payload({"kind": "sweep", "spec": spec})
        payload = execute_submission(submission, workdir=tmp_path / "job")
        assert payload["spec"] == spec
        assert payload["summary"]["complete"] is True
        assert len(payload["rows"]) > 0
        assert payload["rows"] == direct_sweep_rows(spec, tmp_path / "direct")
        assert (tmp_path / "job" / "store" / "_schema.json").is_file()

    def test_second_run_of_a_sweep_is_a_cache_hit(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        submission = Submission.from_payload({"kind": "sweep", "spec": tiny_sweep_spec()})
        first, first_status = run_submission(submission, cache=cache, workdir=tmp_path / "one")
        second, second_status = run_submission(submission, cache=cache, workdir=tmp_path / "two")
        assert (first_status, second_status) == ("computed", "hit")
        assert dumps(second) == dumps(first)
        assert not (tmp_path / "two").exists()


# ======================================================================
# Registry-generated schemas
# ======================================================================


class TestSchema:
    def test_json_type_mapping(self):
        assert json_type(bool) == {"type": "boolean"}  # bool before int
        assert json_type(int) == {"type": "integer"}
        assert json_type(float) == {"type": "number"}
        assert json_type(tuple[int, ...]) == {"type": "array", "items": {"type": "integer"}}
        optional = json_type(int | None)
        assert optional["type"] == "integer" and optional["nullable"] is True

    def test_dataclass_schema_carries_defaults(self):
        from repro.experiments import EXPERIMENTS

        schema = dataclass_schema(EXPERIMENTS["E01"][1])
        assert schema["additionalProperties"] is False
        assert schema["properties"]["delta"] == {"type": "number", "default": 0.1}
        assert schema["properties"]["rounds_grid"]["items"] == {"type": "integer"}

    def test_listings_cover_the_registries(self):
        from repro.dynamics.scenario import scenario_names
        from repro.experiments import EXPERIMENTS

        assert [entry["id"] for entry in experiment_listing()] == sorted(EXPERIMENTS)
        assert [entry["name"] for entry in scenario_listing()] == scenario_names()
        for entry in experiment_listing():
            assert entry["summary"] and entry["config_schema"]["properties"]

    def test_submission_schema_enumerates_ids(self):
        from repro.dynamics.scenario import scenario_names
        from repro.experiments import EXPERIMENTS

        experiment, scenario, sweep = submission_schema()["oneOf"]
        assert experiment["properties"]["name"]["enum"] == sorted(EXPERIMENTS)
        assert scenario["properties"]["name"]["enum"] == scenario_names()
        assert sweep["properties"]["spec"]["required"] == ["name", "targets"]

    def test_openapi_document_lists_every_route_and_workload(self):
        """Acceptance: every experiment + scenario, no hand-maintained table."""
        from repro.dynamics.scenario import scenario_names
        from repro.experiments import EXPERIMENTS

        document = openapi_document(ROUTES)
        served = {
            f"{method.upper()} {path}"
            for path, operations in document["paths"].items()
            for method in operations
        }
        assert served == set(ROUTES)
        assert [e["id"] for e in document["x-experiments"]] == sorted(EXPERIMENTS)
        assert [s["name"] for s in document["x-scenarios"]] == scenario_names()
        assert document["info"]["version"] == __version__


# ======================================================================
# SSE broadcaster
# ======================================================================


class TestRoundBroadcaster:
    def test_sse_wire_format(self):
        frame = sse_format("round", {"round": 1}, event_id=7)
        assert frame == b'id: 7\nevent: round\ndata: {"round":1}\n\n'

    def test_history_replay_then_final(self):
        broadcaster = RoundBroadcaster(history=10)
        for index in range(3):
            broadcaster.publish({"round": index + 1})
        broadcaster.close({"status": "done"})
        frames = list(broadcaster.subscribe())
        assert [b"event: round" in frame for frame in frames] == [True, True, True, False]
        assert frames[-1] == b'event: final\ndata: {"status":"done"}\n\n'

    def test_history_cap_bounds_replay(self):
        broadcaster = RoundBroadcaster(history=2)
        for index in range(5):
            broadcaster.publish({"round": index + 1})
        broadcaster.close()
        frames = list(broadcaster.subscribe())
        rounds = [frame for frame in frames if b"event: round" in frame]
        assert len(rounds) == 2 and b'{"round":4}' in rounds[0] and b'{"round":5}' in rounds[1]

    def test_live_subscriber_receives_producer_events(self):
        broadcaster = RoundBroadcaster()
        received: list[bytes] = []
        done = threading.Event()

        def consume():
            received.extend(broadcaster.subscribe(poll_seconds=0.05))
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        for index in range(4):
            broadcaster.publish({"round": index + 1})
        broadcaster.close({"ok": True})
        assert done.wait(5.0)
        thread.join()
        assert sum(frame.startswith(b"id:") and b"event: round" in frame for frame in received) == 4
        assert b'event: final\ndata: {"ok":true}' in received[-1]

    def test_slow_subscriber_drops_not_blocks(self):
        broadcaster = RoundBroadcaster(history=0, buffer=2)
        iterator = broadcaster.subscribe(replay=False, poll_seconds=0.01)
        # The generator registers on first next(); with no events yet the
        # first frame is a keep-alive comment — now the subscriber is live.
        assert next(iterator) == b": keep-alive\n\n"
        for index in range(6):  # buffer of 2 -> 4 drops, producer never blocks
            broadcaster.publish({"round": index + 1})
        broadcaster.close()
        frames = list(iterator)
        rounds = [frame for frame in frames if b"event: round" in frame]
        dropped = [frame for frame in frames if b"event: dropped" in frame]
        assert len(rounds) == 2
        assert len(dropped) == 1 and b'{"events":4}' in dropped[0]
        assert b"event: final" in frames[-1]

    def test_subscribers_racing_close_all_end_on_the_final_frame(self):
        """Stress: with a one-slot buffer the close sentinel is often dropped,
        so live subscribers leave on the unlocked ``closed`` flag; each must
        still end on the one frame ``close`` encoded."""
        import sys

        final = {"status": "done", "result": {"records": list(range(50))}}
        expected = sse_format("final", final)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                broadcaster = RoundBroadcaster(buffer=1)
                lasts: list[bytes] = []

                def consume():
                    lasts.append(list(broadcaster.subscribe(poll_seconds=0.001))[-1])

                threads = [threading.Thread(target=consume) for _ in range(6)]
                for thread in threads:
                    thread.start()
                broadcaster.publish({"round": 1})
                broadcaster.close(final)
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert lasts == [expected] * 6
        finally:
            sys.setswitchinterval(interval)

    def test_publish_after_close_is_ignored(self):
        broadcaster = RoundBroadcaster()
        broadcaster.close()
        broadcaster.publish({"round": 1})
        assert broadcaster.events_published == 0

    def test_callable_final_is_built_once_per_subscriber_after_the_replay(self):
        broadcaster = RoundBroadcaster()
        broadcaster.publish({"round": 1})
        calls = []

        def frame() -> bytes:
            calls.append(len(calls))
            return sse_format("final", b'{"n":\n%d}' % len(calls))

        broadcaster.close(frame)
        assert calls == []  # nothing is built until someone subscribes
        for expected in (1, 2):
            frames = list(broadcaster.subscribe())
            assert len(calls) == expected
            assert b"event: round" in frames[0]
            assert frames[-1] == b'event: final\ndata: {"n":\ndata: %d}\n\n' % expected

    def test_bytes_data_splits_into_lines_with_the_same_json_value(self):
        document = {"records": [{"a": 1, "s": "line\nbreak \u00e9"}], "empty": {}}
        encoded = json.dumps(document, indent=2).encode("utf-8")
        frame = sse_format("final", encoded)
        lines = frame.decode("utf-8").split("\n")
        assert lines[0] == "event: final" and lines[-2:] == ["", ""]
        data = lines[1:-2]
        assert len(data) == encoded.count(b"\n") + 1
        assert all(line.startswith("data: ") for line in data)
        assert json.loads("\n".join(line[6:] for line in data)) == document
        # Mappings and strings encode as they always have.
        assert sse_format("e", "a\r\nb") == b"event: e\ndata: a\ndata: b\n\n"
        assert sse_format("e", "") == b"event: e\ndata: \n\n"

    def test_frames_are_encoded_at_publish_and_replay_unchanged_after_close(self):
        """Live subscribers and replays after close get exactly the frames
        ``sse_format`` builds from the records as published; a closed stream
        keeps them packed, not as a deque."""
        records = [{"round": index + 1, "note": "é\n" * index, "values": [index, 0.5]} for index in range(40)]
        expected = [sse_format("round", record, event_id=index + 1) for index, record in enumerate(records)]
        broadcaster = RoundBroadcaster(history=64)
        live = broadcaster.subscribe(replay=False, poll_seconds=0.01)
        assert next(live) == b": keep-alive\n\n"  # registered
        for record in records:
            broadcaster.publish(record)
            record["round"] = -1  # a later change to the record is not streamed
        broadcaster.close({"status": "done"})
        final = b'event: final\ndata: {"status":"done"}\n\n'
        assert list(live) == [*expected, final]
        assert broadcaster._history is None and 0 < len(broadcaster._packed) < sum(map(len, expected))
        for _ in range(2):
            assert list(broadcaster.subscribe()) == [*expected, final]
        assert list(broadcaster.subscribe(replay=False)) == [final]

    def test_subscribers_racing_the_history_packing_see_every_frame_once(self):
        """Stress: subscriptions made while ``close`` packs the history read
        either the deque or the packed blob, never neither or both."""
        import sys

        records = [{"round": index + 1} for index in range(30)]
        expected = [sse_format("round", record, event_id=index + 1) for index, record in enumerate(records)]
        final = sse_format("final", {"status": "done"})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                broadcaster = RoundBroadcaster()
                for record in records:
                    broadcaster.publish(record)
                results: list[list[bytes]] = []
                started = threading.Barrier(5, timeout=10.0)

                def consume():
                    started.wait()
                    for _ in range(5):
                        # A live subscriber may wait out a poll before close:
                        # keep-alive comments carry no event, so they are skipped.
                        frames = broadcaster.subscribe(poll_seconds=0.001)
                        results.append([frame for frame in frames if frame != b": keep-alive\n\n"])

                threads = [threading.Thread(target=consume) for _ in range(4)]
                for thread in threads:
                    thread.start()
                started.wait()
                broadcaster.close({"status": "done"})
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [[*expected, final]] * 20
        finally:
            sys.setswitchinterval(interval)


# ======================================================================
# Rate limiting
# ======================================================================


class TestTokenBucketLimiter:
    def test_burst_then_reject_then_refill(self):
        clock = [0.0]
        limiter = TokenBucketLimiter(rate=1.0, burst=2, clock=lambda: clock[0])
        assert limiter.check("a") is None
        assert limiter.check("a") is None
        retry = limiter.check("a")
        assert retry is not None and retry == pytest.approx(1.0)
        clock[0] = 1.0  # one token refilled
        assert limiter.check("a") is None
        assert limiter.check("a") is not None

    def test_clients_are_independent(self):
        limiter = TokenBucketLimiter(rate=0.001, burst=1)
        assert limiter.check("a") is None
        assert limiter.check("a") is not None
        assert limiter.check("b") is None

    def test_disabled_limiter_admits_everything(self):
        limiter = TokenBucketLimiter(rate=None)
        assert all(limiter.check("a") is None for _ in range(100))

    def test_idle_clients_buckets_are_dropped(self):
        clock = [0.0]
        limiter = TokenBucketLimiter(rate=1.0, burst=2, clock=lambda: clock[0])
        for client in ("a", "b", "c"):
            assert limiter.check(client) is None
        assert sorted(limiter._buckets) == ["a", "b", "c"]
        clock[0] = 0.5  # half a token back: nobody is full yet
        assert limiter.check("d") is None
        assert sorted(limiter._buckets) == ["a", "b", "c", "d"]
        clock[0] = 1.0  # a, b and c have refilled to burst; d has not
        assert limiter.check("e") is None
        assert sorted(limiter._buckets) == ["d", "e"]
        clock[0] = 1e6  # one more arrival after a long idle spell keeps one bucket
        assert limiter.check("f") is None
        assert sorted(limiter._buckets) == ["f"]

    @pytest.mark.parametrize("seed", range(8))
    def test_pruning_never_changes_an_answer(self, seed):
        """A seeded random submission sequence gets the same admit/reject
        answers, retry hints included, as a limiter that never prunes."""
        import random

        rng = random.Random(seed)
        rate, burst = rng.choice([0.5, 1.0, 3.0, 10.0]), rng.randint(1, 5)

        class NeverPrunes:
            def __init__(self):
                self.buckets = {}

            def check(self, client, now):
                tokens, stamp = self.buckets.get(client, (float(burst), now))
                tokens = min(float(burst), tokens + (now - stamp) * rate)
                if tokens >= 1.0:
                    self.buckets[client] = (tokens - 1.0, now)
                    return None
                self.buckets[client] = (tokens, now)
                return (1.0 - tokens) / rate

        clock = [0.0]
        limiter = TokenBucketLimiter(rate=rate, burst=burst, clock=lambda: clock[0])
        reference = NeverPrunes()
        # A few busy clients, and many occasional ones whose arrivals prune.
        busy = [f"10.0.0.{index}" for index in range(rng.randint(1, 8))]
        occasional = [f"10.0.1.{index}" for index in range(200)]
        answers, pruned = [], 0
        for _ in range(3000):
            clock[0] += rng.choice([0.0, 0.0, 0.0, rng.expovariate(4.0 * rate), rng.expovariate(rate / 8)])
            client = rng.choice(busy if rng.random() < 0.8 else occasional)
            answer = limiter.check(client)
            assert answer == reference.check(client, clock[0])
            answers.append(answer is None)
            pruned += len(limiter._buckets) < len(reference.buckets)
        assert any(answers) and not all(answers)  # both answers were exercised
        assert pruned  # ... and so was pruning


# ======================================================================
# JobManager
# ======================================================================


def drain(manager: JobManager, *jobs, timeout: float = 60.0) -> None:
    """Start the pool and wait until every given job is terminal."""
    manager.start()
    deadline = threading.Event()
    import time

    end = time.monotonic() + timeout
    while any(job.status in ("queued", "running") for job in jobs):
        if time.monotonic() > end:
            raise TimeoutError([job.status for job in jobs])
        deadline.wait(0.02)


def final_event(job) -> dict:
    """The ``final`` event a new subscriber to ``job`` receives, parsed as an
    SSE client parses it: the ``data:`` lines joined with ``\\n``."""
    assert job.broadcaster.closed, f"{job.id} is {job.status}; its stream is still open"
    lines = list(job.broadcaster.subscribe())[-1].decode("utf-8").split("\n")
    assert lines[0] == "event: final" and lines[-2:] == ["", ""]
    assert all(line.startswith("data: ") for line in lines[1:-2])
    return json.loads("\n".join(line[6:] for line in lines[1:-2]))


def stored_entry(cache: RunCache, payload=TINY) -> tuple[str, dict]:
    """Store a stand-in result under ``payload``'s key; returns (key, parsed entry)."""
    key = Submission.from_payload(payload).cache_key(cache, RunContext())
    cache.store(key, {"records": [{"round": 1, "note": "a\nb \u00e9"}], "summary": {}})
    return key, json.loads(cache.path_for(key).read_bytes())


class TestJobManager:
    def test_lifecycle_and_result(self, tmp_path):
        manager = JobManager(cache=RunCache(tmp_path / "cache"), workers=1)
        job = manager.submit(TINY)
        assert job.status == "queued" and job.id == "job-000001"
        drain(manager, job)
        manager.stop()
        assert job.status == "done" and job.result_status == "computed"
        payload = manager.result(job.id)
        assert len(payload["records"]) == 6
        assert payload["scenario"]["name"] == "crash"

    def test_cache_hit_on_resubmission(self, tmp_path):
        manager = JobManager(cache=RunCache(tmp_path / "cache"), workers=1)
        first = manager.submit(TINY)
        drain(manager, first)
        second = manager.submit(TINY)
        drain(manager, second)
        manager.stop()
        assert first.result_status == "computed"
        assert second.result_status == "hit"
        assert dumps(manager.result(first.id)) == dumps(manager.result(second.id))
        assert all(
            manager.result_bytes(job.id)
            == manager.cache.path_for(job.key).read_bytes()
            == dumps(manager.result(job.id)).encode("utf-8")
            for job in (first, second)
        )

    def test_concurrent_identical_submissions_execute_once(self, tmp_path, monkeypatch):
        """Acceptance: N identical concurrent jobs -> ONE engine execution,
        telemetry dedupe counters, byte-identical payloads for all.

        Deterministic, not merely likely: the leader's compute is gated on
        an event, and the gate opens only once the three other workers are
        observed blocked on the leader's flight — so every non-leader takes
        the single-flight path, never a plain disk hit."""
        import time

        import repro.engine.cache as cache_module
        import repro.serve.submit as submit_module

        class CountingEvent(threading.Event):
            def __init__(self):
                super().__init__()
                self.waiters = 0

            def wait(self, timeout=None):
                self.waiters += 1
                return super().wait(timeout)

        class CountingFlight(cache_module._Flight):
            def __init__(self):
                super().__init__()
                self.done = CountingEvent()

        monkeypatch.setattr(cache_module, "_Flight", CountingFlight)

        entered = threading.Event()
        release = threading.Event()
        real_execute = submit_module.execute_submission

        def gated(submission, **kwargs):
            entered.set()
            assert release.wait(timeout=60.0), "gate never opened"
            return real_execute(submission, **kwargs)

        monkeypatch.setattr(submit_module, "execute_submission", gated)

        recorder = TelemetryRecorder(directory=tmp_path / "tel")
        with use_telemetry(recorder):
            cache = RunCache(tmp_path / "cache")
            manager = JobManager(cache=cache, workers=4)
            # Submit all N *before* starting the pool: every worker then
            # races into get_or_compute for the same key at once, which is
            # exactly the single-flight scenario.
            jobs = [manager.submit(TINY) for _ in range(4)]
            key = jobs[0].key
            manager.start()
            assert entered.wait(timeout=60.0)  # the leader is inside compute
            end = time.monotonic() + 60.0
            while time.monotonic() < end:  # ... and the rest joined its flight
                with cache._flights_lock:
                    flight = cache._flights.get(key)
                if flight is not None and flight.done.waiters >= 3:
                    break
                time.sleep(0.005)
            else:
                raise TimeoutError("followers never joined the flight")
            release.set()
            drain(manager, *jobs)
            manager.stop()
        assert all(job.status == "done" for job in jobs)
        statuses = sorted(job.result_status for job in jobs)
        assert statuses == ["computed", "dedupe", "dedupe", "dedupe"]
        summary = recorder.summary()
        assert summary["counters"]["serve.jobs.executed"] == 1
        assert summary["counters"]["cache.dedupe_hits"] == 3
        payloads = {dumps(manager.result(job.id)) for job in jobs}
        assert len(payloads) == 1  # byte-identical for every caller
        assert all(
            manager.result_bytes(job.id)
            == cache.path_for(key).read_bytes()
            == dumps(manager.result(job.id)).encode("utf-8")
            for job in jobs
        )

    def test_finished_hit_jobs_retain_less_than_their_cache_entry(self, tmp_path):
        """The tracemalloc regression gate: a finished job keeps its record
        and its key, never a payload dict or an encoded final frame, so each
        hit job of a large payload retains under a quarter of its cache
        entry."""
        import gc
        import tracemalloc

        crash = {"kind": "scenario", "name": "crash", "quick": True, "seed": 0, "replicates": 4}
        manager = JobManager(cache=RunCache(tmp_path / "cache"), workers=1)
        warm = [manager.submit(crash) for _ in range(3)]  # compute, then hit twice
        drain(manager, *warm)
        entry_bytes = manager.cache.path_for(warm[0].key).stat().st_size

        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        jobs = [manager.submit(crash) for _ in range(24)]
        drain(manager, *jobs)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        manager.stop()

        assert [job.result_status for job in jobs] == ["hit"] * 24
        per_job = (after - before) / len(jobs)
        assert per_job < entry_bytes / 4, f"{per_job:.0f} B retained per job, entry is {entry_bytes} B"
        assert all(job.result is None for job in warm + jobs)

    def test_finished_computed_crash_job_retains_under_10_kB(self, tmp_path):
        """A computed job keeps its round history as one packed blob of
        frames, not as record dicts: each finished ``crash --quick`` job
        retains under 10 kB (57 kB when the history was a deque of dicts).
        The workers stop before each reading, so no job is still closing."""
        import gc
        import tracemalloc

        def crash(seed: int) -> dict:
            return {"kind": "scenario", "name": "crash", "quick": True, "seed": seed, "replicates": 4}

        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        drain(manager, *[manager.submit(crash(seed)) for seed in (100, 101)])
        manager.stop()
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            jobs = [manager.submit(crash(seed)) for seed in range(102, 110)]
            drain(manager, *jobs)
            manager.stop()
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [job.result_status for job in jobs] == ["computed"] * 8
        assert all(job.broadcaster.events_published == 80 for job in jobs)
        per_job = (after - before) / len(jobs)
        assert per_job < 10 * 1024, f"{per_job:.0f} B retained per finished crash job"

    def test_memory_of_finished_jobs_stops_growing_past_the_cap(self, tmp_path, monkeypatch):
        """With at most 8 finished jobs in memory, 64 further computed jobs
        add at most 0.2 kB each: the table keeps their ids, and reloads the
        rest from disk. NumPy's and the io layer's own allocation caches
        fill over the first few hundred kernel runs and pathlib interns each
        path it parses; none of that is job state, so those sites (and
        tracemalloc's own) are left out of the count."""
        import gc
        import tracemalloc

        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "FINISHED_IN_MEMORY", 8)
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        seeds = iter(range(1000))

        def run(count: int) -> None:
            for _ in range(count):
                drain(manager, manager.submit({**TINY, "seed": next(seeds)}, client="past-the-cap"))
            manager.stop()  # every job has closed, persisted and retired
            gc.collect()

        tracemalloc.start()
        try:
            run(32)
            before = tracemalloc.take_snapshot()
            run(64)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        noise = [
            tracemalloc.Filter(False, pattern)
            for pattern in ("*/numpy/*", "<frozen os>", "*/pathlib.py", tracemalloc.__file__)
        ]
        stats = after.filter_traces(noise).compare_to(before.filter_traces(noise), "filename")
        grown = sum(stat.size_diff for stat in stats)
        assert grown / 64 <= 200, f"{grown / 64:.0f} B per finished job past the cap"
        live = [item for item in gc.get_objects() if type(item) is Job and item.client == "past-the-cap"]
        assert len(live) == 8  # the evicted Job objects are freed
        assert len(manager.jobs()) == 96 and manager.health()["jobs"]["done"] == 96

    def test_a_finished_job_leaves_memory_only_once_its_record_is_written(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "FINISHED_IN_MEMORY", 1)
        real_write = jobs_module.atomic_write_text

        def failing_write(path, text):
            record = json.loads(text)
            if record["status"] == "done" and record["submission"]["seed"] == 0:
                raise OSError("no space left on device")
            real_write(path, text)

        monkeypatch.setattr(jobs_module, "atomic_write_text", failing_write)
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        unwritten = manager.submit(TINY)
        drain(manager, unwritten)
        later = [manager.submit({**TINY, "seed": seed}) for seed in (1, 2)]
        drain(manager, *later)
        manager.stop()
        assert manager.get(unwritten.id) is unwritten  # its record on disk still says running
        rebuilt = manager.get(later[0].id)
        assert rebuilt is not later[0] and rebuilt.to_record() == later[0].to_record()
        assert manager.get(later[1].id) is later[1]

    def test_a_manager_without_a_jobs_dir_keeps_every_job(self, monkeypatch):
        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "FINISHED_IN_MEMORY", 1)
        manager = JobManager(workers=1)
        jobs = [manager.submit({**TINY, "seed": seed}) for seed in range(3)]
        drain(manager, *jobs)
        manager.stop()
        assert [manager.get(job.id) for job in jobs] == jobs
        assert manager.jobs() == [job.to_record() for job in jobs]

    def test_listing_reads_evicted_records_without_rebuilding_jobs(self, tmp_path, monkeypatch):
        """``jobs()`` (``GET /jobs``) lists an evicted job by its stored record:
        the listing equals the records the jobs had in memory, and no
        submission is parsed or validated to build it."""
        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "FINISHED_IN_MEMORY", 2)
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        jobs = [manager.submit({**TINY, "seed": seed}) for seed in (0, 1, 0, 2, 3)]
        drain(manager, *jobs)
        manager.stop()
        assert [job.result_status for job in jobs] == ["computed", "computed", "hit", "computed", "computed"]
        evicted = [job.id for job in jobs if manager._jobs[job.id] is None]
        assert len(evicted) == 3
        parsed = []
        real_from_payload = Submission.from_payload.__func__

        def counting_from_payload(cls, payload):
            parsed.append(payload)
            return real_from_payload(cls, payload)

        monkeypatch.setattr(Submission, "from_payload", classmethod(counting_from_payload))
        assert manager.jobs() == [job.to_record() for job in jobs]
        assert parsed == []
        assert manager.get(evicted[0]).to_record() == jobs[0].to_record()
        assert len(parsed) == 1  # a single job is still rebuilt on demand

    def test_hit_is_done_at_submission(self, tmp_path, monkeypatch):
        """A submission whose entry exists and parses is a finished hit before
        ``submit`` returns, with no worker running: one record write, the
        usual counters, and a stream whose final event carries the entry."""
        import repro.serve.jobs as jobs_module

        writes = []
        real_write = jobs_module.atomic_write_text
        monkeypatch.setattr(
            jobs_module, "atomic_write_text", lambda path, text: (writes.append(path), real_write(path, text))
        )
        cache = RunCache(tmp_path / "cache")
        key, entry = stored_entry(cache)
        manager = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)  # never started
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            job = manager.submit(TINY)
        assert (job.status, job.result_status, job.key) == ("done", "hit", key)
        assert job.started == job.finished == job.created
        assert writes == [tmp_path / "jobs" / f"{job.id}.json"]
        record = json.loads(writes[0].read_text())
        assert (record["status"], record["result_status"]) == ("done", "hit")
        assert manager.health()["queue_depth"] == 0
        summary = recorder.summary()
        assert summary["counters"] == {
            "cache.hits": 1,
            "cache.peek_parses": 1,
            "serve.jobs.completed": 1,
            "serve.jobs.hit": 1,
            "serve.jobs.submitted": 1,
        }
        assert "serve.job_seconds" not in summary["timers"]  # no worker ran it
        assert final_event(job) == {"job": job.id, "status": "done", "result_status": "hit", "result": entry}
        assert manager.result_bytes(job.id) == cache.path_for(key).read_bytes()

    def test_corrupt_entry_queues_and_recomputes(self, tmp_path):
        """A corrupt entry is never a hit: the job queues, the worker removes
        and recomputes the entry, and the miss is counted once."""
        cache = RunCache(tmp_path / "cache")
        key, _ = stored_entry(cache)
        cache.path_for(key).write_bytes(b'{"records": [')
        manager = JobManager(cache=cache, workers=1)
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            job = manager.submit(TINY)
            assert job.status == "queued" and manager.health()["queue_depth"] == 1
            drain(manager, job)
            manager.stop()
        assert (job.status, job.result_status) == ("done", "computed")
        counters = recorder.summary()["counters"]
        assert counters["cache.corrupt_recovered"] == 1 and counters["cache.misses"] == 1
        assert "cache.hits" not in counters
        expected = dumps(run_submission(tiny_submission())[0]).encode("utf-8")
        assert manager.result_bytes(job.id) == cache.path_for(key).read_bytes() == expected

    def test_hit_needs_no_queue_slot(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        stored_entry(cache)
        manager = JobManager(cache=cache, queue_depth=1, workers=1)  # never started
        assert manager.submit({**TINY, "seed": 1}).status == "queued"  # the queue is full
        assert manager.submit(TINY).status == "done"
        with pytest.raises(QueueFullError):
            manager.submit({**TINY, "seed": 2})

    def test_final_event_is_the_entry_for_computed_hit_and_restored_jobs(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        manager = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        computed = manager.submit(TINY)
        drain(manager, computed)
        manager.stop()
        hit = manager.submit(TINY)
        entry = json.loads(cache.path_for(computed.key).read_bytes())
        reborn = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        for owner, job, status in [
            (manager, computed, "computed"),
            (manager, hit, "hit"),
            (reborn, reborn.get(computed.id), "computed"),
            (reborn, reborn.get(hit.id), "hit"),
        ]:
            assert job.status == "done" and job.result is None
            assert final_event(job) == {"job": job.id, "status": "done", "result_status": status, "result": entry}
            assert owner.result(job.id) == entry

    def test_deleted_entry_yields_a_final_event_without_result(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key, _ = stored_entry(cache)
        manager = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        job = manager.submit(TINY)
        cache.path_for(key).unlink()
        reborn = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        for owner in (manager, reborn):
            assert final_event(owner.get(job.id)) == {"job": job.id, "status": "done", "result_status": "hit"}
            with pytest.raises(ValueError, match="no retrievable payload"):
                owner.result_bytes(job.id)

    def test_truncated_entry_is_gone_for_computed_hit_and_restored_jobs(self, tmp_path):
        """An entry cut short after its job finished is not the job's result:
        ``GET /result`` answers 410, the final event parses and has no
        ``result``, and the next submission of the key recomputes it."""
        cache = RunCache(tmp_path / "cache")
        manager = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        computed = manager.submit(TINY)
        drain(manager, computed)
        manager.stop()
        hit = manager.submit(TINY)
        entry = cache.path_for(hit.key)
        size = entry.stat().st_size
        entry.write_bytes(entry.read_bytes()[:100])
        reborn = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        restored = reborn.get(computed.id)
        with serving(manager) as live, serving(reborn) as restarted:
            for base, job in [(live, computed), (live, hit), (restarted, restored)]:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    http_bytes(base, f"/jobs/{job.id}/result")
                assert excinfo.value.code == 410
        for job in (computed, hit, restored):
            assert final_event(job) == {"job": job.id, "status": "done", "result_status": job.result_status}
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            again = reborn.submit(TINY)
            assert again.status == "queued"
            drain(reborn, again)
            reborn.stop()
        assert again.result_status == "computed"
        assert recorder.summary()["counters"]["cache.corrupt_recovered"] == 1
        assert reborn.result_bytes(again.id) == entry.read_bytes()
        assert computed.entry_bytes == hit.entry_bytes == restored.entry_bytes == again.entry_bytes == size

    def test_records_without_an_entry_size_are_served_as_before(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key, _ = stored_entry(cache)
        job = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1).submit(TINY)
        record_path = tmp_path / "jobs" / f"{job.id}.json"
        record = json.loads(record_path.read_text())
        del record["entry_bytes"]
        record_path.write_text(json.dumps(record))
        reborn = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        assert reborn.get(job.id).entry_bytes is None
        assert reborn.result_bytes(job.id) == cache.path_for(key).read_bytes()

    def test_cacheless_manager_keeps_and_encodes_its_payload(self):
        manager = JobManager(workers=1)
        job = manager.submit(TINY)
        drain(manager, job)
        manager.stop()
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            body = manager.result_bytes(job.id)
        assert job.result is not None
        assert body == dumps(manager.result(job.id)).encode("utf-8")
        counters = recorder.summary()["counters"]
        assert counters["serve.results.encoded"] == 1
        assert "serve.results.from_cache" not in counters

    def test_failed_submission_is_rejected_not_queued(self, tmp_path):
        manager = JobManager(cache=RunCache(tmp_path / "cache"), workers=1)
        with pytest.raises(KeyError):
            manager.submit({"kind": "experiment", "name": "E99"})
        assert manager.jobs() == []

    def test_job_failure_is_recorded(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_module

        def explode(submission, **kwargs):
            raise RuntimeError("kernel on fire")

        monkeypatch.setattr(jobs_module, "run_submission", explode)
        manager = JobManager(workers=1)
        job = manager.submit(TINY)
        drain(manager, job)
        manager.stop()
        assert job.status == "failed"
        assert "kernel on fire" in job.error
        with pytest.raises(ValueError, match="not done"):
            manager.result(job.id)

    def test_queue_depth_maps_to_503(self, tmp_path):
        manager = JobManager(queue_depth=2, workers=1)  # never started
        manager.submit(TINY)
        manager.submit({**TINY, "seed": 1})
        with pytest.raises(QueueFullError) as excinfo:
            manager.submit({**TINY, "seed": 2})
        assert excinfo.value.retry_after > 0

    def test_rate_limit_maps_to_429(self):
        manager = JobManager(rate=0.001, burst=1, workers=1)
        manager.submit(TINY, client="10.0.0.1")
        with pytest.raises(RateLimitedError) as excinfo:
            manager.submit(TINY, client="10.0.0.1")
        assert excinfo.value.retry_after > 0
        manager.submit(TINY, client="10.0.0.2")  # other clients unaffected

    def test_cancel_queued_but_not_running(self, tmp_path):
        manager = JobManager(workers=1)  # not started: jobs stay queued
        job = manager.submit(TINY)
        assert manager.cancel(job.id) is True
        assert job.status == "cancelled"
        done = manager.submit({**TINY, "seed": 5})
        drain(manager, done)
        manager.stop()
        assert manager.cancel(done.id) is False
        assert done.status == "done"

    def test_persistence_across_restart(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        manager = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        done = manager.submit(TINY)
        drain(manager, done)
        manager.stop()
        queued = manager.submit({**TINY, "seed": 9})  # never picked up

        # "Restart": a fresh manager over the same state directory.
        reborn = JobManager(cache=cache, jobs_dir=tmp_path / "jobs", workers=1)
        record = reborn.get(done.id)
        assert record.status == "done"
        # Completed work survives: the payload reloads from the cache.
        assert dumps(reborn.result(done.id)) == dumps(manager.result(done.id))
        assert reborn.get(queued.id).status == "queued"
        # Ids continue past the restored counter instead of colliding.
        fresh = reborn.submit({**TINY, "seed": 10})
        assert fresh.id not in {done.id, queued.id}

    def test_interrupted_running_job_fails_on_restart(self, tmp_path):
        manager = JobManager(jobs_dir=tmp_path / "jobs", workers=1)
        job = manager.submit(TINY)
        # Simulate a daemon death mid-run: persist a 'running' record.
        job.status = "running"
        manager._persist(job)
        reborn = JobManager(jobs_dir=tmp_path / "jobs", workers=1)
        restored = reborn.get(job.id)
        assert restored.status == "failed"
        assert "restarted" in restored.error
        # The corrected record is written back once: a second restart reads
        # the same record, in memory and on disk.
        path = tmp_path / "jobs" / f"{job.id}.json"
        assert json.loads(path.read_text()) == restored.to_record()
        again = JobManager(jobs_dir=tmp_path / "jobs", workers=1).get(job.id)
        assert again.to_record() == restored.to_record() == json.loads(path.read_text())

    def test_a_stalled_queued_write_never_lands_after_the_final_record(self, tmp_path, monkeypatch):
        """``submit`` writes the queued record after releasing the lock, so a
        worker can take the job first. However long that write stalls, the
        file ends as the final record: a late ``queued`` record would make a
        restart run the job again."""
        import time

        import repro.serve.jobs as jobs_module

        real_write = jobs_module.atomic_write_text

        def stalling_write(path, text):
            if json.loads(text)["status"] == "queued":  # stall until the job is done, or 1 s
                end = time.monotonic() + 1.0
                while time.monotonic() < end and manager.jobs()[0]["status"] != "done":
                    time.sleep(0.01)
            real_write(path, text)

        monkeypatch.setattr(jobs_module, "atomic_write_text", stalling_write)
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        manager.start()
        job = manager.submit(TINY)
        drain(manager, job)
        manager.stop()
        record = json.loads((tmp_path / "jobs" / f"{job.id}.json").read_text())
        assert record["status"] == "done" and record == job.to_record()

    def test_two_contexts_at_once(self, tmp_path, monkeypatch):
        """Two managers with different run contexts share one process and
        one cache, and their jobs run at the same time: each job keys and
        runs under its own manager's context."""
        import repro.serve.submit as submit_module

        payload = {"kind": "experiment", "name": "E01", "quick": True, "seed": 0}
        contexts = {"analytic": RunContext("analytic"), "default": RunContext()}
        expected = {}
        for name, context in contexts.items():
            with use_run_context(context):
                expected[name] = dumps(run_submission(Submission.from_payload(payload))[0])

        both_running = threading.Barrier(2, timeout=30.0)
        real_execute = submit_module.execute_submission

        def overlapped(submission, **kwargs):
            both_running.wait()  # neither job computes until both are running
            return real_execute(submission, **kwargs)

        monkeypatch.setattr(submit_module, "execute_submission", overlapped)
        cache = RunCache(tmp_path / "cache")
        managers = {
            name: JobManager(cache=cache, workers=1, context=context)
            for name, context in contexts.items()
        }
        jobs = {name: manager.submit(payload) for name, manager in managers.items()}
        for manager in managers.values():
            manager.start()
        for name, manager in managers.items():
            drain(manager, jobs[name])
            manager.stop()
        assert all(job.result_status == "computed" for job in jobs.values())
        assert jobs["analytic"].key != jobs["default"].key
        for name, manager in managers.items():
            assert dumps(manager.result(jobs[name].id)) == expected[name]
        assert expected["analytic"] != expected["default"]

    def test_restore_orders_records_by_id_past_a_million(self, tmp_path):
        """``job-1000000.json`` sorts before ``job-100001.json`` by name; a
        restarted daemon lists, queues and numbers jobs by id regardless."""
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        counters = [99_999, 100_000, 100_001, 999_999, 1_000_000, 1_000_001, 1_000_010]
        queued = {100_001, 1_000_000}
        records = [
            {"id": f"job-{counter:06d}", "status": "queued" if counter in queued else "cancelled"}
            for counter in counters
        ] + [{"id": "job-legacy", "status": "cancelled"}]
        for record in reversed(records):
            full = {**record, "submission": tiny_submission().to_dict(), "created": 0.0}
            (jobs_dir / f"{record['id']}.json").write_text(json.dumps(full), encoding="utf-8")
        names = sorted(path.name for path in jobs_dir.iterdir())
        assert names.index("job-1000000.json") < names.index("job-100001.json")
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=jobs_dir, workers=1)
        assert [record["id"] for record in manager.jobs()] == [record["id"] for record in records]
        assert manager._queue == ["job-100001", "job-1000000"]
        assert manager.submit({**TINY, "seed": 9}).id == "job-1000011"

    def test_an_entry_corrupted_after_a_hit_is_parsed_again_and_queues(self, tmp_path):
        """The second hit answers from the entry's stamp; a rewrite in place
        of the same size moves its mtime, so the next submission parses it,
        finds it corrupt and queues, and the worker recomputes it."""
        import os

        cache = RunCache(tmp_path / "cache")
        key, _ = stored_entry(cache)
        path = cache.path_for(key)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 60 * 10**9))
        manager = JobManager(cache=cache, workers=1)  # not started until the last job
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder):
            assert [manager.submit(TINY).status for _ in range(2)] == ["done", "done"]
        assert recorder.summary()["counters"]["cache.peek_parses"] == 1
        with open(path, "r+b") as handle:
            handle.write(b"[" * stat.st_size)
        job = manager.submit(TINY)
        assert job.status == "queued"
        drain(manager, job)
        manager.stop()
        assert job.result_status == "computed"
        expected = dumps(run_submission(tiny_submission())[0]).encode("utf-8")
        assert manager.result_bytes(job.id) == path.read_bytes() == expected
        assert manager.submit(TINY).status == "done"

    def test_health_reports_worker_liveness(self):
        manager = JobManager(workers=2)
        assert manager.health()["status"] == "degraded"  # not started yet
        manager.start()
        health = manager.health()
        assert health["status"] == "ok"
        assert health["workers"] == {"expected": 2, "alive": 2}
        manager.stop()


# ======================================================================
# HTTP + SSE (one real daemon on a loopback port)
# ======================================================================


def state_manager(tmp_path) -> JobManager:
    """A daemon's manager over the state under ``tmp_path`` (cache + job records)."""
    return JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=2)


@contextlib.contextmanager
def served(manager: JobManager):
    """Serve ``manager`` on a loopback port; yields ``(server, base URL)``.
    On exit the server shuts down and ``server_close()`` has returned."""
    server = ReproServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(
        target=serve_forever,
        args=(server,),
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=10)


@contextlib.contextmanager
def serving(manager: JobManager):
    """Serve ``manager`` on a loopback port; yields the base URL."""
    with served(manager) as (_, base):
        yield base


@pytest.fixture()
def daemon(tmp_path):
    with serving(state_manager(tmp_path)) as base:
        yield base


def http_bytes(base: str, path: str, *, method: str = "GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


def http_json(base: str, path: str, *, method: str = "GET", body=None):
    status, raw = http_bytes(base, path, method=method, body=body)
    return status, json.loads(raw)


def wait_done(base: str, job_id: str, timeout: float = 60.0):
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        _, record = http_json(base, f"/jobs/{job_id}")
        if record["status"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.02)
    raise TimeoutError(job_id)


def final_frame(base: str, job_id: str) -> bytes:
    """The ``final`` frame that ends a finished job's SSE stream."""
    stream = http_bytes(base, f"/jobs/{job_id}/stream")[1]
    return stream[stream.rindex(b"event: final"):]


@pytest.mark.slow
class TestHTTPDaemon:
    def test_healthz_and_openapi(self, daemon):
        status, health = http_json(daemon, "/healthz")
        assert status == 200 and health["status"] == "ok"
        _, document = http_json(daemon, "/openapi.json")
        assert len(document["x-experiments"]) == 24
        assert {f"{m.upper()} {p}" for p, ops in document["paths"].items() for m in ops} == set(
            ROUTES
        )

    def test_submit_poll_result_roundtrip(self, daemon):
        status, job = http_json(daemon, "/jobs", method="POST", body=TINY)
        # A worker may have picked the job up — or even finished the tiny
        # workload — by the time the response serializes.
        assert status == 202 and job["status"] in ("queued", "running", "done")
        record = wait_done(daemon, job["id"])
        assert record["status"] == "done" and record["result_status"] == "computed"
        _, payload = http_json(daemon, f"/jobs/{job['id']}/result")
        assert len(payload["records"]) == 6

    def test_result_bodies_are_the_cache_entry_bytes(self, daemon):
        """Computed and hit answer the same bytes: ``dumps`` of the payload,
        read from the entry rather than encoded per request."""
        expected = dumps(run_submission(Submission.from_payload(TINY))[0]).encode("utf-8")
        recorder = TelemetryRecorder(level="summary")
        bodies = []
        with use_telemetry(recorder):
            for status in ("computed", "hit"):
                _, job = http_json(daemon, "/jobs", method="POST", body=TINY)
                assert wait_done(daemon, job["id"])["result_status"] == status
                bodies.append(http_bytes(daemon, f"/jobs/{job['id']}/result")[1])
        assert bodies == [expected, expected]
        counters = recorder.summary()["counters"]
        assert counters["serve.results.from_cache"] == 2
        assert "serve.results.encoded" not in counters

    def test_deleted_entry_is_410_live_and_after_restart(self, tmp_path):
        """A live daemon and a restarted one answer a deleted entry the same
        way: 410, while the job record still says done."""

        def assert_gone(base: str, job_id: str) -> None:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(base, f"/jobs/{job_id}/result")
            assert excinfo.value.code == 410
            assert "has no retrievable payload" in json.loads(excinfo.value.read())["error"]
            assert http_json(base, f"/jobs/{job_id}")[1]["status"] == "done"

        with serving(state_manager(tmp_path)) as live:
            _, job = http_json(live, "/jobs", method="POST", body=TINY)
            key = wait_done(live, job["id"])["key"]
            http_bytes(live, f"/jobs/{job['id']}/result")  # served while the entry exists
            RunCache(tmp_path / "cache").path_for(key).unlink()
            assert_gone(live, job["id"])
        with serving(state_manager(tmp_path)) as restarted:
            assert_gone(restarted, job["id"])

    def test_evicted_jobs_answer_as_they_did_in_memory(self, tmp_path, monkeypatch):
        """Past the cap, finished jobs leave memory and reload from their
        records: a cancelled, a computed, a hit and a failed job answer
        ``GET /jobs/<id>``, result, stream ``final`` and DELETE as they did
        in memory, ``GET /jobs`` lists every job in submission order, and
        ``/healthz`` counts equal a recount over that list."""
        import collections
        import time

        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "FINISHED_IN_MEMORY", 2)
        real_run = jobs_module.run_submission

        def fails_on_seed_77(submission, **kwargs):
            if submission.seed == 77:
                raise RuntimeError("seed 77 is cursed")
            return real_run(submission, **kwargs)

        monkeypatch.setattr(jobs_module, "run_submission", fails_on_seed_77)
        manager = state_manager(tmp_path)
        cancelled = manager.submit({**TINY, "seed": 50}).id
        assert manager.cancel(cancelled)

        def answers(base: str, job_id: str) -> dict:
            def answer(path: str, method: str = "GET") -> tuple[int, bytes]:
                try:
                    return http_bytes(base, path, method=method)
                except urllib.error.HTTPError as error:
                    return error.code, error.read()

            return {
                "record": answer(f"/jobs/{job_id}"),
                "result": answer(f"/jobs/{job_id}/result"),
                "final": final_frame(base, job_id),
                "delete": answer(f"/jobs/{job_id}", method="DELETE"),
            }

        with serving(manager) as base:
            seen = {cancelled: answers(base, cancelled)}
            for seed in (0, 0, 77):  # computed, hit, failed
                _, job = http_json(base, "/jobs", method="POST", body={**TINY, "seed": seed})
                wait_done(base, job["id"])
                seen[job["id"]] = answers(base, job["id"])
            for seed in (1, 2):  # two more finished jobs push the first four out
                _, job = http_json(base, "/jobs", method="POST", body={**TINY, "seed": seed})
                wait_done(base, job["id"])
            end = time.monotonic() + 30.0
            while any(manager._jobs[job_id] is not None for job_id in seen):
                assert time.monotonic() < end, "finished jobs were never evicted"
                time.sleep(0.01)
            statuses = [json.loads(seen[job_id]["record"][1])["status"] for job_id in seen]
            assert statuses == ["cancelled", "done", "done", "failed"]
            assert [code for code, _ in (seen[job_id]["delete"] for job_id in seen)] == [200, 409, 409, 409]
            for job_id, before in seen.items():
                assert answers(base, job_id) == before, job_id
            _, listing = http_json(base, "/jobs")
            assert [record["id"] for record in listing] == [f"job-{index:06d}" for index in range(1, 7)]
            assert all(http_json(base, f"/jobs/{record['id']}")[1] == record for record in listing)
            counts = http_json(base, "/healthz")[1]["jobs"]
            recount = collections.Counter(record["status"] for record in listing)
            assert counts == {status: recount[status] for status in jobs_module.JOB_STATUSES}

    def test_request_latency_is_timed_per_route(self, tmp_path):
        """Each routed request records ``serve.http.request_seconds``,
        labelled by its route, once the handler has answered."""
        import time

        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder), serving(state_manager(tmp_path)) as base:
            http_json(base, "/healthz")
            _, job = http_json(base, "/jobs", method="POST", body=TINY)
            wait_done(base, job["id"])
            _, again = http_json(base, "/jobs", method="POST", body=TINY)
            http_bytes(base, f"/jobs/{again['id']}/stream")
            http_bytes(base, f"/jobs/{again['id']}/result")
            for path in ("/jobs/job-999999", "/nope"):
                with pytest.raises(urllib.error.HTTPError):
                    http_json(base, path)
            # At least: wait_done polls GET /jobs/{id} once or more, plus the 404.
            least = {"GET /healthz": 1, "POST /jobs": 2, "GET /jobs/{id}/stream": 1,
                     "GET /jobs/{id}/result": 1, "GET /jobs/{id}": 2}
            end = time.monotonic() + 30.0
            while True:  # a handler records its timer just after its response is sent
                timers = recorder.summary()["timers"]
                counts = {
                    key[len("serve.http.request_seconds[route="):-1]: stats["count"]
                    for key, stats in timers.items()
                    if key.startswith("serve.http.request_seconds")
                }
                if all(counts.get(route, 0) >= n for route, n in least.items()) or time.monotonic() > end:
                    break
                time.sleep(0.01)
        assert counts.pop("GET /jobs/{id}") >= least.pop("GET /jobs/{id}")
        assert counts == least  # and nothing for the unrouted path

    def test_experiments_route_serves_the_listing(self, daemon):
        status, listing = http_json(daemon, "/experiments")
        assert status == 200
        assert listing == json.loads(dumps(experiment_listing()))
        assert len(listing) == 24

    def test_scenarios_route_serves_the_listing(self, daemon):
        status, listing = http_json(daemon, "/scenarios")
        assert status == 200
        assert listing == json.loads(dumps(scenario_listing()))

    def test_jobs_route_lists_every_job_in_submission_order(self, daemon):
        assert http_json(daemon, "/jobs") == (200, [])
        ids = []
        for seed in (0, 1):
            _, job = http_json(daemon, "/jobs", method="POST", body={**TINY, "seed": seed})
            ids.append(job["id"])
            wait_done(daemon, job["id"])
        status, records = http_json(daemon, "/jobs")
        assert status == 200
        assert [record["id"] for record in records] == ids
        assert [record["submission"]["seed"] for record in records] == [0, 1]
        assert all(record["status"] == "done" for record in records)

    def test_sweep_job_returns_the_direct_run_rows(self, daemon, tmp_path):
        spec = tiny_sweep_spec()
        status, job = http_json(daemon, "/jobs", method="POST", body={"kind": "sweep", "spec": spec})
        assert status == 202 and job["submission"]["name"] == "serve-sweep"
        record = wait_done(daemon, job["id"])
        assert record["status"] == "done", record["error"]
        _, payload = http_json(daemon, f"/jobs/{job['id']}/result")
        assert payload["rows"] == direct_sweep_rows(spec, tmp_path / "direct")

    def test_unknown_routes_and_jobs_are_404(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(daemon, "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(daemon, "/jobs/job-999999")
        assert excinfo.value.code == 404

    def test_malformed_submission_is_400(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(daemon, "/jobs", method="POST", body={"kind": "banana"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_result_of_unfinished_and_cancel_semantics(self, daemon, monkeypatch):
        # Both workers hold their jobs until the third has been checked, so
        # it stays queued by construction: 409-on-unfinished and
        # DELETE-cancel do not depend on how long a job takes.
        import repro.serve.jobs as jobs_module

        release = threading.Event()
        real_run = jobs_module.run_submission

        def held(submission, **kwargs):
            release.wait(timeout=60.0)
            return real_run(submission, **kwargs)

        monkeypatch.setattr(jobs_module, "run_submission", held)
        try:
            _, busy_a = http_json(daemon, "/jobs", method="POST", body={**TINY, "seed": 42})
            _, busy_b = http_json(daemon, "/jobs", method="POST", body={**TINY, "seed": 43})
            _, queued = http_json(daemon, "/jobs", method="POST", body={**TINY, "seed": 44})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(daemon, f"/jobs/{queued['id']}/result")
            assert excinfo.value.code == 409
            status, record = http_json(daemon, f"/jobs/{queued['id']}", method="DELETE")
            assert record["status"] == "cancelled"
        finally:
            release.set()
        # A terminal job can't be cancelled: 409.
        done = wait_done(daemon, busy_a["id"])
        assert done["status"] == "done"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_json(daemon, f"/jobs/{busy_a['id']}", method="DELETE")
        assert excinfo.value.code == 409
        wait_done(daemon, busy_b["id"])

    def test_sse_stream_final_matches_batch_cli_bit_for_bit(self, daemon, capsys):
        """Acceptance: the stream's final value == `repro scenario run` output."""
        _, job = http_json(daemon, "/jobs", method="POST", body=TINY)
        request = urllib.request.Request(daemon + f"/jobs/{job['id']}/stream")
        events = []
        with urllib.request.urlopen(request, timeout=60) as response:
            name, data_lines = None, []
            for raw in response:
                line = raw.decode().rstrip("\n")
                if line.startswith("event: "):
                    name = line[7:]
                elif line.startswith("data: "):
                    data_lines.append(line[6:])
                elif not line and name is not None:
                    events.append((name, json.loads("\n".join(data_lines))))
                    if name == "final":
                        break
                    name, data_lines = None, []
        rounds = [data for name, data in events if name == "round"]
        final = events[-1][1]
        assert events[-1][0] == "final" and final["status"] == "done"
        assert [record["round"] for record in rounds] == list(range(1, 7))
        # Per-round events are the payload's records, value for value —
        # modulo the chunk annotations the relay adds for streaming context
        # (replicates=2 fits one batch chunk, so chunk values == merged).
        stripped = [
            {key: value for key, value in record.items() if not key.startswith("chunk")}
            for record in rounds
        ]
        assert stripped == final["result"]["records"]

        # And the payload is bit-for-bit the batch CLI's stdout.
        code = main(
            [
                "scenario",
                "run",
                "--scenario",
                "crash",
                "--quick",
                "--json",
                "--replicates",
                "2",
                "--rounds",
                "6",
            ]
        )
        assert code == 0
        cli_payload = json.loads(capsys.readouterr().out)
        # The CLI run has no side/num_agents override: compare against a
        # matching daemon submission (records must agree bit-for-bit).
        _, matching = http_json(
            daemon,
            "/jobs",
            method="POST",
            body={"kind": "scenario", "name": "crash", "quick": True, "replicates": 2,
                  "rounds": 6, "seed": 0},
        )
        wait_done(daemon, matching["id"])
        _, daemon_payload = http_json(daemon, f"/jobs/{matching['id']}/result")
        assert dumps(daemon_payload) == dumps(cli_payload)

    def test_cli_and_daemon_share_one_cache_entry(self, daemon, tmp_path, capsys):
        """A daemon-computed result is a CLI cache hit through the same key."""
        _, job = http_json(daemon, "/jobs", method="POST", body=TINY)
        record = wait_done(daemon, job["id"])
        assert record["result_status"] == "computed"
        # The daemon's cache lives at tmp_path/cache (see the fixture); a
        # CLI run pointed at it must load, not recompute.
        code = main(
            [
                "scenario", "run", "--scenario", "crash", "--quick", "--json",
                "--replicates", "2", "--rounds", "6",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Different geometry overrides (side/num_agents) -> different key,
        # so this CLI invocation computes. But resubmitting the *daemon's*
        # exact submission must now hit.
        _, again = http_json(daemon, "/jobs", method="POST", body=TINY)
        assert wait_done(daemon, again["id"])["result_status"] == "hit"
        assert json.loads(captured.out)["records"]


# ======================================================================
# A daemon process killed mid-job
# ======================================================================


def connection_threads() -> set:
    return {thread for thread in threading.enumerate() if thread.name == "repro-serve-connection"}


class TestConnectionThreads:
    """``ReproServer`` reuses connection threads: counted, never timed."""

    def test_sequential_requests_reuse_one_connection_thread(self, tmp_path):
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder), served(state_manager(tmp_path)) as (server, base):
            for _ in range(20):
                assert http_json(base, "/healthz")[0] == 200
                # The thread is idle again once it has shut the connection down.
                poll(lambda: server._idle, "an idle connection thread")
        counters = recorder.summary()["counters"]
        assert counters["serve.http.connections"] == 20
        assert counters["serve.http.connection_threads"] == 1

    def test_streams_holding_every_thread_never_block_a_request(self, tmp_path, monkeypatch):
        """Three SSE streams of queued jobs park three connection threads
        for as long as their jobs wait; a POST still gets its own thread."""
        import repro.serve.jobs as jobs_module

        release = threading.Event()
        real_run = jobs_module.run_submission

        def held(submission, **kwargs):
            release.wait(timeout=60.0)
            return real_run(submission, **kwargs)

        monkeypatch.setattr(jobs_module, "run_submission", held)
        manager = JobManager(cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=1)
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder), served(manager) as (server, base):
            ids = [
                http_json(base, "/jobs", method="POST", body={**TINY, "seed": seed})[1]["id"]
                for seed in (60, 61, 62, 63)
            ]
            streams = []
            try:
                for job_id in ids[1:]:  # the first job runs (held); these three stay queued
                    streams.append(urllib.request.urlopen(f"{base}/jobs/{job_id}/stream", timeout=30))
                status, record = http_json(base, "/jobs", method="POST", body={**TINY, "seed": 64})
                assert status == 202 and record["status"] == "queued"
                assert recorder.summary()["counters"]["serve.http.connection_threads"] >= 4
            finally:
                release.set()
                bodies = [stream.read() for stream in streams]
                for stream in streams:
                    stream.close()
            for job_id, body in zip(ids[1:], bodies):
                lines = body[body.rindex(b"event: final"):].decode("utf-8").split("\n")
                final = json.loads("\n".join(line[6:] for line in lines if line.startswith("data: ")))
                assert (final["job"], final["status"]) == (job_id, "done")
            wait_done(base, record["id"])

    def test_concurrent_clients_get_every_answer(self, tmp_path):
        """Eight clients race sixty-four requests through the handoff with a
        short switch interval: a lost or doubled handoff would leave a
        request unanswered or counted twice."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        recorder = TelemetryRecorder(level="summary")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with use_telemetry(recorder), served(state_manager(tmp_path)) as (server, base):
                with ThreadPoolExecutor(max_workers=8) as pool:
                    statuses = list(pool.map(lambda _: http_json(base, "/healthz")[0], range(64), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [200] * 64
        counters = recorder.summary()["counters"]
        assert counters["serve.http.connections"] == counters["serve.http.requests"] == 64

    def test_server_close_ends_every_connection_thread(self, tmp_path):
        import socket

        before = connection_threads()
        recorder = TelemetryRecorder(level="summary")
        with use_telemetry(recorder), served(state_manager(tmp_path)) as (server, base):
            port = server.server_address[1]
            # Three connections open at once: each is accepted while the
            # others' threads wait for a request line, so each gets a thread.
            sockets = [socket.create_connection(("127.0.0.1", port), timeout=30) for _ in range(3)]
            poll(lambda: len(connection_threads() - before) == 3, "three connection threads")
            for sock in sockets:
                with sock:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
                    assert sock.makefile("rb").readline().startswith(b"HTTP/1.1 200")
            poll(lambda: len(server._idle) == 3, "three idle connection threads")
        assert connection_threads() - before == set()
        assert server._idle == []
        counters = recorder.summary()["counters"]
        assert counters["serve.http.connections"] == counters["serve.http.connection_threads"] == 3


def poll(predicate, what: str, timeout: float = 60.0):
    """Call ``predicate`` until it returns something truthy; bounded."""
    import time

    end = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > end:
            raise TimeoutError(what)
        time.sleep(0.02)


@contextlib.contextmanager
def daemon_process(state_dir, log_path):
    """``python -m repro serve --port 0 --state-dir state_dir`` as a child
    process; yields ``(process, base URL)`` and always reaps the child."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    source = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source + (os.pathsep + path if path else "")}
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1", "--state-dir", str(state_dir)],
            cwd=state_dir.parent,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    try:
        def port():
            assert process.poll() is None, log_path.read_text()
            match = re.search(r"listening on http://[^:]+:(\d+)", log_path.read_text())
            return match and int(match.group(1))

        yield process, f"http://127.0.0.1:{poll(port, 'the daemon never logged its port')}"
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)


class TestKilledDaemon:
    def test_sigkill_mid_job_then_restart_on_the_same_state(self, tmp_path):
        """SIGKILL a daemon while a long job runs, restart it on the same
        ``--state-dir``: the killed job reads failed with the restart error,
        the finished job's result bytes and final event are unchanged, and
        the new daemon completes a new submission."""
        import signal

        from repro.serve.jobs import RESTART_ERROR

        state = tmp_path / "state"
        with daemon_process(state, tmp_path / "first.log") as (process, base):
            _, done = http_json(base, "/jobs", method="POST", body=TINY)
            assert wait_done(base, done["id"])["status"] == "done"
            result = http_bytes(base, f"/jobs/{done['id']}/result")[1]
            final = final_frame(base, done["id"])
            _, long = http_json(base, "/jobs", method="POST", body={**TINY, "rounds": 1_000_000})
            record_path = state / "jobs" / f"{long['id']}.json"

            def running_on_disk():
                try:
                    return json.loads(record_path.read_text())["status"] == "running"
                except (OSError, ValueError):
                    return False

            poll(running_on_disk, "the long job's record never said running")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        with daemon_process(state, tmp_path / "second.log") as (_, base):
            _, killed = http_json(base, f"/jobs/{long['id']}")
            assert (killed["status"], killed["error"]) == ("failed", RESTART_ERROR)
            assert json.loads(record_path.read_text()) == killed
            assert http_bytes(base, f"/jobs/{done['id']}/result")[1] == result
            assert final_frame(base, done["id"]) == final
            _, fresh = http_json(base, "/jobs", method="POST", body={**TINY, "seed": 1})
            assert wait_done(base, fresh["id"])["status"] == "done"


# ======================================================================
# CLI surface
# ======================================================================


class TestServeCLI:
    def test_list_json_shares_the_api_listing(self, capsys):
        assert main(["list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == experiment_listing()

    def test_scenario_list_json_shares_the_api_listing(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == scenario_listing()

    def test_serve_schema_dumps_openapi(self, capsys):
        assert main(["serve", "schema"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["openapi"].startswith("3.")
        assert len(document["x-experiments"]) == 24

    def test_serve_hands_its_run_context_to_the_manager(self, monkeypatch, tmp_path):
        import repro.serve.api as api_module

        contexts = []

        def capture(server, **kwargs):
            contexts.append(server.manager.context)
            server.server_close()

        monkeypatch.setattr(api_module, "serve_forever", capture)
        argv = ["serve", "--port", "0", "--state-dir", str(tmp_path), "--backend", "analytic"]
        assert main([*argv, "--shard-workers", "2"]) == 0
        assert contexts == [RunContext("analytic", shard_workers=2)]

    def test_serve_rejects_unbindable_port(self, capsys):
        assert main(["serve", "--host", "203.0.113.1", "--port", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_uniform_exit_codes_across_subcommands(self, capsys, tmp_path):
        """Satellite: one _guarded wrapper, same codes everywhere."""
        cases = [
            ["run", "E99", "--quick"],
            ["scenario", "run", "--scenario", "nope"],
            ["report", "--from-store", str(tmp_path / "none")],
            ["store", "query", "--store", str(tmp_path / "none")],
            ["sweep", "run", "--spec", str(tmp_path / "none.json"), "--store", str(tmp_path / "s")],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.serve.submit as submit_module

        def interrupt(submission, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(submit_module, "execute_submission", interrupt)
        assert main(["run", "E01", "--quick"]) == 130
        assert "interrupted" in capsys.readouterr().err
