"""Regenerate the golden fixture of the dynamics tracker.

A scenario job's payload and its streamed ``round`` events are built from
the tracker's per-round floats (:mod:`repro.dynamics.driver`,
:mod:`repro.dynamics.online`). A rewrite of that bookkeeping can shift a
float in its last bit, for example by summing tracks in a different order,
and no statistical test would notice. ``dynamics_golden.json`` pins the
bytes: per case it records a SHA-256 digest of ``dumps`` of the scenario
payload that the cache stores, and one of the SSE ``round`` frames that a
serve job streams, and ``tests/test_dynamics.py`` requires the current
code to reproduce both.

The cases run every catalog scenario at its quick size through
:func:`~repro.serve.submit.execute_submission`, with seeds 0-2 at 1, 4 and
9 replicates (9 runs as chunks of 4, 4 and 1). One more case runs
``crash`` as a single :func:`~repro.dynamics.driver.track_scenario_batch`
call of 200 tracks: NumPy's pairwise summation changes its shape above 8
and above 128 elements, so a track mean over 200 tracks sums in a
different order from one over 4. The fixture was generated before the
tracker's per-round reductions were rewritten. Run::

    PYTHONPATH=src python tests/baselines/regenerate_dynamics_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.dynamics.driver import track_scenario_batch
from repro.dynamics.scenario import build_scenario, scenario_names
from repro.engine import ExecutionEngine
from repro.serve.stream import sse_format
from repro.serve.submit import Submission, execute_submission
from repro.utils.serialization import dumps

GOLDEN_PATH = Path(__file__).with_name("dynamics_golden.json")

SEEDS = (0, 1, 2)
REPLICATES = (1, 4, 9)

#: The single wide batch: one call, more tracks than a pairwise block.
BATCH_SCENARIO = "crash"
BATCH_TRACKS = 200
BATCH_SEED = 7


def scenario_specs() -> list[dict]:
    return [
        {"scenario": name, "seed": seed, "replicates": replicates}
        for name in scenario_names()
        for seed in SEEDS
        for replicates in REPLICATES
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class FrameRecorder:
    """An ``on_round`` listener that encodes each record as a serve job's
    broadcaster does: one ``round`` SSE frame, numbered from 1."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def __call__(self, record: dict) -> None:
        self.frames.append(sse_format("round", dict(record), event_id=len(self.frames) + 1))

    def digest(self) -> str:
        return sha256(b"".join(self.frames))


def run_scenario_case(spec: dict) -> dict:
    submission = Submission(
        kind="scenario",
        name=spec["scenario"],
        seed=spec["seed"],
        quick=True,
        replicates=spec["replicates"],
    )
    frames = FrameRecorder()
    payload = execute_submission(submission, engine=ExecutionEngine(workers=1), on_round=frames)
    return {
        "payload": sha256(dumps(payload).encode("utf-8")),
        "frames": frames.digest(),
        "rounds": len(frames.frames),
    }


def run_batch_case() -> dict:
    frames = FrameRecorder()
    result = track_scenario_batch(
        build_scenario(BATCH_SCENARIO, quick=True), BATCH_TRACKS, BATCH_SEED, on_round=frames
    )
    document = {"records": result.records(), "summary": result.summary()}
    return {
        "payload": sha256(dumps(document).encode("utf-8")),
        "frames": frames.digest(),
        "rounds": len(frames.frames),
    }


def generate() -> dict:
    return {
        "scenarios": [dict(spec, outcome=run_scenario_case(spec)) for spec in scenario_specs()],
        "batch": {
            "scenario": BATCH_SCENARIO,
            "tracks": BATCH_TRACKS,
            "seed": BATCH_SEED,
            "outcome": run_batch_case(),
        },
    }


def main() -> None:
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['scenarios'])} scenario cases and 1 batch case to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
