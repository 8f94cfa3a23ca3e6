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

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.cli import main
from repro.engine import RunCache
from repro.obs.telemetry import TelemetryRecorder, use_telemetry
from repro.serve.api import ROUTES, ReproServer, serve_forever
from repro.serve.jobs import JobManager, QueueFullError, RateLimitedError, TokenBucketLimiter
from repro.serve.schema import (
    dataclass_schema,
    experiment_listing,
    json_type,
    openapi_document,
    scenario_listing,
    submission_schema,
)
from repro.serve.stream import RoundBroadcaster, sse_format
from repro.serve.submit import CACHE_SCHEMA, Submission, run_submission
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
        from repro.core.kernel import get_default_shard_workers, set_default_shard_workers

        cache = RunCache(tmp_path)
        submission = Submission(kind="experiment", name="E01", quick=True)
        previous = get_default_shard_workers()
        try:
            set_default_shard_workers(None)
            unsharded_key = submission.cache_key(cache)
            set_default_shard_workers(2)
            sharded_key = submission.cache_key(cache)
            assert sharded_key != unsharded_key
            set_default_shard_workers(7)
            assert submission.cache_key(cache) == sharded_key
        finally:
            set_default_shard_workers(previous)

    def test_overrides_change_the_key(self, tmp_path):
        cache = RunCache(tmp_path)
        base = Submission(kind="experiment", name="E01", quick=True)
        tweaked = Submission(kind="experiment", name="E01", quick=True, overrides={"trials": 2})
        assert base.cache_key(cache) != tweaked.cache_key(cache)


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

    def test_publish_after_close_is_ignored(self):
        broadcaster = RoundBroadcaster()
        broadcaster.close()
        broadcaster.publish({"round": 1})
        assert broadcaster.events_published == 0


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


@pytest.fixture()
def daemon(tmp_path):
    manager = JobManager(
        cache=RunCache(tmp_path / "cache"), jobs_dir=tmp_path / "jobs", workers=2
    )
    server = ReproServer(("127.0.0.1", 0), manager)
    thread = threading.Thread(
        target=serve_forever,
        args=(server,),
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=10)


def http_json(base: str, path: str, *, method: str = "GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_done(base: str, job_id: str, timeout: float = 60.0):
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        _, record = http_json(base, f"/jobs/{job_id}")
        if record["status"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.02)
    raise TimeoutError(job_id)


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
