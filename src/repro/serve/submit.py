"""Normalised job submissions: one execution path for the CLI and the daemon.

A :class:`Submission` is the validated, frozen form of "run this named
workload with these parameters" — an experiment from
:data:`repro.experiments.EXPERIMENTS` (optionally with config-field
overrides), a catalog scenario from :data:`repro.dynamics.scenario.SCENARIOS`
(optionally rescaled), or a full :class:`~repro.sweeps.SweepSpec`. The CLI's
``run`` / ``scenario run`` commands and the serve daemon's job queue both
normalise onto this type, which is what guarantees three properties the
service layer depends on:

* **shared cache identity** — :meth:`Submission.cache_key` is the single
  definition of a workload's content key, so a result computed by a CLI run
  is a cache hit for an identical HTTP submission (and vice versa);
* **shared payloads** — :func:`execute_submission` produces exactly the
  JSON document the CLI caches and prints, so every consumer of a key sees
  byte-identical results;
* **single-flight dedupe** — :func:`run_submission` routes computation
  through :meth:`RunCache.get_or_compute`, so identical concurrent
  submissions collapse to one engine execution.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import __version__
from repro.core.kernel import RunContext, current_run_context
from repro.dynamics.driver import RoundListener, run_scenario
from repro.dynamics.scenario import SCENARIOS, Scenario, build_scenario, scenario_names
from repro.engine import ExecutionEngine, RunCache
from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.utils.validation import require_integer

#: Bump when a cached payload layout changes; folded into every cache key.
#: (Moved here from ``repro.cli`` so the CLI and the daemon share it.)
CACHE_SCHEMA = 1

#: The kinds of workload a submission can name.
SUBMISSION_KINDS = ("experiment", "scenario", "sweep")

#: Scenario rescale parameters accepted by a scenario submission.
_SCENARIO_FIELDS = ("rounds", "side", "num_agents")


@dataclasses.dataclass(frozen=True)
class Submission:
    """One validated workload request (see the module docstring).

    Attributes
    ----------
    kind / name:
        What to run: ``experiment`` + id, ``scenario`` + catalog name, or
        ``sweep`` (``name`` is then the spec's own name).
    seed:
        Root seed of the run (sweeps carry their seed inside ``spec``).
    quick:
        Use the scaled-down configuration (experiments and scenarios).
    overrides:
        Experiment-config field overrides applied on top of the (quick or
        full) default config. Keys are validated against the dataclass.
    rounds / side / num_agents / replicates:
        Scenario rescaling and averaging parameters.
    spec:
        The full sweep-spec dict (``kind == "sweep"`` only).
    """

    kind: str
    name: str
    seed: int = 0
    quick: bool = False
    overrides: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    rounds: int | None = None
    side: int | None = None
    num_agents: int | None = None
    replicates: int = 8
    spec: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SUBMISSION_KINDS:
            raise ValueError(
                f"unknown submission kind {self.kind!r}; known kinds: {list(SUBMISSION_KINDS)}"
            )
        require_integer(self.seed, "seed")
        if not isinstance(self.quick, bool):
            raise ValueError(f"quick must be a boolean, got {self.quick!r}")
        object.__setattr__(self, "overrides", dict(self.overrides))
        if self.kind == "experiment":
            object.__setattr__(self, "name", str(self.name).upper())
            if self.name not in EXPERIMENTS:
                raise KeyError(
                    f"unknown experiment id {self.name!r}; known ids: {sorted(EXPERIMENTS)}"
                )
            _, config_cls = EXPERIMENTS[self.name]
            known = {field.name for field in dataclasses.fields(config_cls)}
            unknown = sorted(set(self.overrides) - known)
            if unknown:
                raise ValueError(
                    f"unknown config fields {unknown} for {self.name}; "
                    f"known fields: {sorted(known)}"
                )
            self.build_experiment_config()  # fail fast on bad values
        elif self.kind == "scenario":
            if self.name not in SCENARIOS:
                raise KeyError(
                    f"unknown scenario {self.name!r}; known scenarios: {scenario_names()}"
                )
            if self.overrides:
                raise ValueError("scenario submissions take no config overrides")
            require_integer(self.replicates, "replicates", minimum=1)
            for field_name in _SCENARIO_FIELDS:
                value = getattr(self, field_name)
                if value is not None:
                    require_integer(value, field_name, minimum=2)
            self.build_scenario()  # fail fast (rounds floor, event fit, ...)
        else:  # sweep
            if self.spec is None:
                raise ValueError("sweep submissions need a 'spec' object")
            spec = self._sweep_spec()
            object.__setattr__(self, "name", spec.name)
            object.__setattr__(self, "spec", spec.to_dict())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Submission":
        """Build a submission from an untrusted JSON object, rejecting junk keys."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"a submission is a JSON object, got {type(payload).__name__}")
        data = dict(payload)
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown submission fields {unknown}; known fields: {sorted(known)}")
        if "kind" not in data:
            raise ValueError(f"a submission needs a 'kind' (one of {list(SUBMISSION_KINDS)})")
        if data.get("kind") != "sweep" and "name" not in data:
            raise ValueError("a submission needs a 'name' (experiment id or scenario name)")
        data.setdefault("name", "")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON form; round-trips through :meth:`from_payload`."""
        out: dict[str, Any] = {"kind": self.kind, "name": self.name, "seed": self.seed}
        if self.kind == "experiment":
            out["quick"] = self.quick
            if self.overrides:
                out["overrides"] = dict(self.overrides)
        elif self.kind == "scenario":
            out["quick"] = self.quick
            out["replicates"] = self.replicates
            for field_name in _SCENARIO_FIELDS:
                value = getattr(self, field_name)
                if value is not None:
                    out[field_name] = value
        else:
            out["spec"] = dict(self.spec or {})
        return out

    # ------------------------------------------------------------------
    # Workload construction
    # ------------------------------------------------------------------
    def build_experiment_config(self) -> Any:
        """The experiment's config dataclass with ``overrides`` applied."""
        _, config_cls = EXPERIMENTS[self.name]
        config = config_cls.quick() if self.quick else config_cls()
        if self.overrides:
            overrides = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in self.overrides.items()
            }
            config = dataclasses.replace(config, **overrides)
        return config

    def build_scenario(self) -> Scenario:
        """The (optionally rescaled) catalog scenario this submission names."""
        return build_scenario(
            self.name,
            rounds=self.rounds,
            side=self.side,
            num_agents=self.num_agents,
            quick=self.quick,
        )

    def _sweep_spec(self):
        from repro.sweeps import SweepSpec

        return SweepSpec.from_dict(self.spec)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def cache_key(self, cache: RunCache, context: RunContext | None = None) -> str:
        """The submission's content key — the CLI's definitions, verbatim.

        Worker counts and telemetry are deliberately excluded: they never
        change records, only wall-clock. The run settings that do change
        records fold in through :meth:`RunContext.key_fields` of
        ``context`` (default: the current one), the same rule the sweep-cell
        keys use; the default context adds nothing, so simulating unsharded
        runs keep their historical keys. The package version is folded in so
        upgrades whose code changes could alter records miss.
        """
        extra = (context or current_run_context()).key_fields()
        if self.kind == "experiment":
            return cache.key(
                kind="experiment",
                schema=CACHE_SCHEMA,
                version=__version__,
                experiment=self.name,
                quick=self.quick,
                seed=self.seed,
                config=repr(self.build_experiment_config()),
                **extra,
            )
        if self.kind == "scenario":
            return cache.key(
                kind="scenario",
                schema=CACHE_SCHEMA,
                version=__version__,
                scenario=repr(self.build_scenario()),
                replicates=self.replicates,
                seed=self.seed,
                **extra,
            )
        return cache.key(
            kind="sweep_job",
            schema=CACHE_SCHEMA,
            version=__version__,
            spec=dict(self.spec or {}),
            **extra,
        )


# ----------------------------------------------------------------------
# Payload shapes (what the cache stores and every consumer reads)
# ----------------------------------------------------------------------


def experiment_payload(result: ExperimentResult) -> dict[str, Any]:
    """The cached JSON document of one experiment run."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "claim": result.claim,
        "records": result.records,
        "columns": list(result.columns) if result.columns else None,
        "notes": result.notes,
    }


def result_from_payload(payload: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`experiment_payload`."""
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        claim=payload["claim"],
        records=list(payload["records"]),
        columns=payload.get("columns"),
        notes=list(payload.get("notes", [])),
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_submission(
    submission: Submission,
    *,
    engine: ExecutionEngine | None = None,
    cache: RunCache | None = None,
    workdir: str | Path | None = None,
    on_round: Optional[RoundListener] = None,
) -> dict[str, Any]:
    """Run ``submission`` and return its result payload (uncached).

    ``on_round`` streams per-round records for scenario submissions (it is
    ignored for the other kinds — experiments and sweeps have no per-round
    anytime estimate to stream). ``cache`` / ``workdir`` only matter for
    sweep submissions: cells checkpoint through ``cache`` and rows land in
    a result store under ``workdir``.
    """
    engine = engine or ExecutionEngine()
    if submission.kind == "experiment":
        module, _ = EXPERIMENTS[submission.name]
        result = module.run(submission.build_experiment_config(), seed=submission.seed, engine=engine)
        return experiment_payload(result)
    if submission.kind == "scenario":
        scenario = submission.build_scenario()
        outcome = run_scenario(
            scenario,
            replicates=submission.replicates,
            engine=engine,
            seed=submission.seed,
            on_round=on_round,
        )
        return {
            "scenario": scenario.to_dict(),
            "replicates": submission.replicates,
            "records": outcome.records(),
            "summary": outcome.summary(),
        }
    return _execute_sweep(submission, engine=engine, cache=cache, workdir=workdir)


def _execute_sweep(
    submission: Submission,
    *,
    engine: ExecutionEngine,
    cache: RunCache | None,
    workdir: str | Path | None,
) -> dict[str, Any]:
    from repro.store import ResultStore
    from repro.sweeps import run_sweep_spec

    spec = submission._sweep_spec()
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-sweep-job-")
    store = ResultStore(Path(workdir) / "store")
    outcome = run_sweep_spec(spec, workers=engine.workers, cache=cache, store=store)
    if not outcome.complete:  # pragma: no cover - no max_cells on this path
        raise RuntimeError(f"sweep {spec.name!r} finished with pending cells")
    return {
        "spec": spec.to_dict(),
        "summary": outcome.summary(),
        "rows": store.select(),
    }


def run_submission(
    submission: Submission,
    *,
    cache: RunCache | None = None,
    engine: ExecutionEngine | None = None,
    workdir: str | Path | None = None,
    on_round: Optional[RoundListener] = None,
) -> tuple[dict[str, Any], str]:
    """Run ``submission`` through the shared result tier.

    Returns ``(payload, status)`` with status ``"hit"`` (loaded from the
    cache), ``"computed"`` (this call executed it), or ``"dedupe"`` (an
    identical concurrent call was already executing it; this one shares the
    single execution's payload). With ``cache=None`` the submission always
    executes (status ``"computed"``).

    Note: on a hit or dedupe the per-round stream never fires — there is no
    simulation to observe. Callers that stream should emit their own final
    event from the returned payload, which covers all three statuses.
    """
    if cache is None:
        return execute_submission(
            submission, engine=engine, cache=None, workdir=workdir, on_round=on_round
        ), "computed"
    key = submission.cache_key(cache)
    return cache.get_or_compute(
        key,
        lambda: execute_submission(
            submission, engine=engine, cache=cache, workdir=workdir, on_round=on_round
        ),
    )


__all__ = [
    "CACHE_SCHEMA",
    "SUBMISSION_KINDS",
    "Submission",
    "execute_submission",
    "experiment_payload",
    "result_from_payload",
    "run_submission",
]
