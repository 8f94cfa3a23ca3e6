"""Command-line interface for the reproduction.

Usage (after installing the package)::

    python -m repro list                      # list all experiments
    python -m repro run E03                   # run one experiment (full scale)
    python -m repro run E03 --quick           # scaled-down configuration
    python -m repro run all --quick           # the whole suite
    python -m repro run all --workers 4       # fan trials out over 4 processes
    python -m repro run all --cache-dir .repro-cache
                                              # skip settings already computed
    python -m repro report --output EXPERIMENTS.md
                                              # regenerate the markdown report
    python -m repro scenario list             # list the dynamic-scenario catalog
    python -m repro scenario run --scenario crash --json
                                              # per-round anytime density tracking
    python -m repro sweep run --spec sweep.json --store results/
                                              # run a declarative parameter sweep
    python -m repro sweep resume --spec sweep.json --store results/
                                              # finish an interrupted sweep (no recompute)
    python -m repro sweep status --spec sweep.json --store results/
    python -m repro sweep run --spec sweep.json --store shard0/ --shard 0/2
                                              # run only shard 0's cell slice (machine 1 of 2)
    python -m repro store merge shard0/ shard1/ --into results/
                                              # union shard stores, byte-identical to unsharded
    python -m repro store query --store results/ --where target=E02 \
        --aggregate mean:empirical_epsilon --by target_density
    python -m repro store export --store results/ --output rows.csv
    python -m repro report --from-store results/
                                              # regenerate the report without re-running

``--workers`` selects the execution engine's process count. Every
experiment executes through the engine — its grid expands into execution
plan cells, and replicate-heavy cells run the batched simulation kernel —
and records are bit-identical for every worker count, so the flag only
changes wall-clock.
``--backend`` selects the simulation kernel backend
(``auto``/``reference``/``fused``/``analytic``; see
:mod:`repro.core.fastpath` and :mod:`repro.core.analytic`). The simulating
backends produce bit-identical records, so for them the flag only changes
wall-clock and is excluded from cache keys. ``analytic`` is different: it
*solves* the encounter process (exact expectations, O(1) in replicates)
instead of sampling it, so its records differ from simulation, it is
folded into cache keys, and it fails with a clean error on workloads
outside its solvable regime (noise models, dynamic scenarios, irregular
topologies).
``--shard-workers K`` turns on intra-kernel sharding: each batched
``(R, n)`` kernel call splits into ``K`` contiguous replicate-row shards
on a thread pool (:mod:`repro.core.shardpath`). Results are bit-identical
for every ``K`` — rows are seeded from per-replicate SeedSequence
children — but differ from unsharded runs (a different RNG discipline),
so the *sharded* discipline joins the cache key while ``K`` itself does
not. Both flags build one :class:`~repro.core.kernel.RunContext` that
:func:`main` installs for the one command it runs; ``--workers``
subprocesses and the ``serve`` job manager receive it explicitly.
``--cache-dir`` points at a content-addressed run store
(:class:`repro.engine.RunCache`): a completed (experiment, config, seed)
setting is loaded from disk instead of re-simulated. Sweeps checkpoint
every completed cell through the same cache (default ``<store>/cache``),
which is what makes ``sweep resume`` recompute nothing.

With ``--json``, a single experiment prints one JSON object; several
experiments (e.g. ``run all``) print a single JSON **array** of those
objects, so the output is machine-parseable end to end.

The CLI is a thin layer over :mod:`repro.experiments`; anything it can do is
also available programmatically.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from repro import __version__
from repro.analysis.aggregate import aggregate_stream, parse_metric
from repro.dynamics.scenario import SCENARIOS, scenario_names
from repro.core.kernel import RunContext, current_run_context, use_run_context
from repro.engine import KERNEL_BACKENDS, ExecutionEngine, RunCache
from repro.experiments import EXPERIMENTS
from repro.experiments.base import ExperimentResult
from repro.experiments.report import generate_report
from repro.obs.telemetry import TelemetryRecorder, get_telemetry, set_telemetry
from repro.serve.submit import Submission, result_from_payload, run_submission
from repro.store import ResultStore, StoreError, merge_stores
from repro.sweeps import load_spec, parse_shard, run_sweep_spec, sweep_status
from repro.utils.serialization import dumps, rows_to_csv
from repro.utils.tables import format_records

#: Exit code of ``repro bench history`` when a perf regression is flagged
#: (2 = CLI error, 3 = incomplete sweep are already taken).
_EXIT_REGRESSION = 4

#: The CLI's progress/diagnostic reporter. Progress lines emit at INFO —
#: the default level, so default stderr output is byte-identical to the
#: historical ``print(..., file=sys.stderr)`` form — and extra diagnostics
#: emit at DEBUG, visible only under ``--verbose``. ``--quiet`` raises the
#: threshold to WARNING, silencing progress without touching stdout.
_LOGGER = logging.getLogger("repro")


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """(Re)configure the CLI reporter; idempotent across repeated main() calls."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    _LOGGER.handlers.clear()
    _LOGGER.addHandler(handler)
    _LOGGER.propagate = False
    if quiet:
        _LOGGER.setLevel(logging.WARNING)
    elif verbose:
        _LOGGER.setLevel(logging.DEBUG)
    else:
        _LOGGER.setLevel(logging.INFO)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ant-inspired density estimation via random walks: experiment runner",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also emit diagnostic detail on stderr (cache keys, telemetry paths, ...)",
    )
    verbosity.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress reporting on stderr (results on stdout are unaffected)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list all experiments and what they reproduce")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable registry (ids, summaries, config schemas)",
    )

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. E03, or 'all'")
    run_parser.add_argument("--quick", action="store_true", help="use the scaled-down configuration")
    run_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit JSON instead of a table (an array when running several experiments)",
    )
    run_parser.add_argument(
        "--figure",
        action="store_true",
        help="also print the experiment's default ASCII figure (where one is defined)",
    )

    report_parser = subparsers.add_parser("report", help="regenerate the markdown experiment report")
    report_parser.add_argument("--quick", action="store_true", help="use scaled-down configurations")
    report_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    report_parser.add_argument(
        "--output", default="-", help="output file (default: '-' for standard output)"
    )
    report_parser.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="regenerate the report from a result store instead of re-running anything",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="declarative, resumable parameter sweeps over experiments and scenarios"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)
    sweep_common = []
    for command, help_text in (
        ("run", "run every cell of a sweep spec (skipping cells already cached)"),
        ("resume", "finish an interrupted sweep; recomputes nothing already checkpointed"),
        ("status", "show which cells are cached / stored without running anything"),
    ):
        sub = sweep_sub.add_parser(command, help=help_text)
        sub.add_argument("--spec", required=True, metavar="FILE", help="sweep spec JSON file")
        sub.add_argument(
            "--store", required=True, metavar="DIR", help="result store directory (rows + provenance)"
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="per-cell checkpoint cache (default: <store>/cache)",
        )
        sub.add_argument("--json", action="store_true", help="emit a JSON summary instead of text")
        sweep_common.append(sub)
    for sub in sweep_common[:2]:  # run and resume execute cells; status never does
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            metavar="N",
            help="worker processes for the sweep's one flat plan (results identical for any N)",
        )
        sub.add_argument(
            "--max-cells",
            type=_positive_int,
            default=None,
            metavar="N",
            help="compute at most N new cells, then stop (deterministic interruption for tests/CI)",
        )
        sub.add_argument(
            "--shard",
            default=None,
            metavar="I/N",
            help=(
                "run only shard I's contiguous cell slice of the same flat plan (cell seeds "
                "untouched); merge the N shard stores with 'repro store merge'"
            ),
        )

    store_parser = subparsers.add_parser("store", help="query and export a persistent result store")
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    query_parser = store_sub.add_parser("query", help="select (and optionally aggregate) store rows")
    query_parser.add_argument("--store", required=True, metavar="DIR", help="result store directory")
    query_parser.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="COL=VALUE",
        help="equality filter, repeatable (numeric strings match numeric values)",
    )
    query_parser.add_argument(
        "--columns", default=None, metavar="A,B,C", help="comma-separated column projection"
    )
    query_parser.add_argument(
        "--aggregate",
        action="append",
        default=[],
        metavar="STAT:COL",
        help="aggregate metric (mean/std/var/min/max/sum/median/count), repeatable",
    )
    query_parser.add_argument(
        "--by", action="append", default=[], metavar="COL", help="group-by column, repeatable"
    )
    query_parser.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N", help="return at most N rows"
    )
    query_format = query_parser.add_mutually_exclusive_group()
    query_format.add_argument("--json", action="store_true", help="emit rows as a JSON array")
    query_format.add_argument("--csv", action="store_true", help="emit rows as CSV")
    merge_parser = store_sub.add_parser(
        "merge",
        help=(
            "union the segments of several stores (e.g. sweep shards) into one — "
            "idempotent, and byte-identical to the unsharded run"
        ),
    )
    merge_parser.add_argument(
        "sources", nargs="+", metavar="SRC", help="source store directories to merge"
    )
    merge_parser.add_argument(
        "--into", required=True, metavar="DIR", help="destination store directory"
    )
    merge_parser.add_argument(
        "--json", action="store_true", help="emit the merge summary as JSON"
    )
    export_parser = store_sub.add_parser("export", help="dump every store row to CSV or NDJSON")
    export_parser.add_argument("--store", required=True, metavar="DIR", help="result store directory")
    export_parser.add_argument("--output", required=True, metavar="FILE", help="output file")
    export_parser.add_argument(
        "--format", default="csv", choices=("csv", "ndjson"), help="output format (default: csv)"
    )
    export_parser.add_argument(
        "--columns", default=None, metavar="A,B,C", help="comma-separated column projection"
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="time-varying scenarios with online (anytime) density tracking"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_list = scenario_sub.add_parser("list", help="list the scenario catalog")
    scenario_list.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable catalog (names, descriptions, geometry)",
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario and emit per-round tracking records"
    )
    scenario_run.add_argument(
        "--scenario", required=True, metavar="NAME", help="catalog scenario name (see 'scenario list')"
    )
    scenario_run.add_argument(
        "--rounds", type=_positive_int, default=None, metavar="T",
        help="override the scenario horizon (events rescale with it)",
    )
    scenario_run.add_argument(
        "--replicates", type=_positive_int, default=8, metavar="R",
        help=(
            "independent replicates to average over (default: 8); any positive count is "
            "exact — values not divisible by the 4-replicate batch chunk run an exact "
            "remainder chunk, never rounding"
        ),
    )
    scenario_run.add_argument("--quick", action="store_true", help="use the scaled-down configuration")
    scenario_run.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    scenario_run.add_argument(
        "--json", action="store_true", help="emit one JSON object with per-round records"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark-artifact observatory (perf trajectories over builds)"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    history_parser = bench_sub.add_parser(
        "history",
        help=(
            "ingest BENCH_*.json artifacts into a history store and flag statistically "
            "significant perf regressions (two-window Welch-z detector)"
        ),
    )
    history_parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="BENCH.json",
        help="bench artifacts to ingest before scanning (idempotent; may be empty)",
    )
    history_parser.add_argument(
        "--store", required=True, metavar="DIR", help="bench-history result store directory"
    )
    history_parser.add_argument(
        "--metric",
        default="median_seconds",
        metavar="COL",
        help=(
            "record metric to scan (default: median_seconds); metrics with "
            "'seconds'/'time' in the name regress upward, rates like speedup downward"
        ),
    )
    history_parser.add_argument(
        "--window",
        type=_positive_int,
        default=4,
        metavar="W",
        help="detector window: compares the last W points against the W before them (default: 4)",
    )
    history_parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="F",
        help="relative shift the window means must exceed (default: 0.25)",
    )
    history_parser.add_argument(
        "--z",
        type=float,
        default=4.5,
        metavar="Z",
        help="Welch z-score the shift must also exceed (default: 4.5)",
    )
    history_parser.add_argument(
        "--json", action="store_true", help="emit the full scan report as JSON"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the async job daemon (HTTP API + SSE round-stream)"
    )
    serve_parser.add_argument(
        "serve_command",
        nargs="?",
        choices=("schema",),
        default=None,
        help="'schema' dumps the generated OpenAPI document instead of serving",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="TCP port (default: 8765; 0 picks a free port)"
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help=(
            "job worker threads draining the queue (default: 2). Jobs run on an "
            "in-process engine so per-round streaming works; results are "
            "bit-identical for any worker count"
        ),
    )
    serve_parser.add_argument(
        "--state-dir",
        default=".repro-serve",
        metavar="DIR",
        help="daemon state: job records under DIR/jobs, result cache under DIR/cache",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared content-addressed result cache (default: <state-dir>/cache); "
        "identical concurrent submissions dedupe to one execution through it",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        metavar="N",
        help="max queued jobs before submissions get 503 + Retry-After (default: 64)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-client submissions/second; exceeding it gets 429 + Retry-After "
        "(default: unlimited)",
    )
    serve_parser.add_argument(
        "--burst",
        type=_positive_int,
        default=10,
        metavar="N",
        help="per-client token-bucket burst size (default: 10; only with --rate)",
    )

    for sub in (run_parser, report_parser, scenario_run):
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            metavar="N",
            help=(
                "engine worker processes; every experiment fans out through the "
                "engine (default: 1; results are identical for any N)"
            ),
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="content-addressed run cache; completed settings are loaded, not re-run",
        )
    for sub in sweep_common + [run_parser, report_parser, scenario_run, serve_parser]:
        sub.add_argument(
            "--backend",
            default=None,
            choices=KERNEL_BACKENDS,
            help=(
                "simulation kernel backend (default: auto). auto/reference/"
                "fused simulate and are bit-identical — only wall-clock "
                "changes. analytic solves the process instead (exact "
                "expectation curves, O(1) in replicates); it changes records, "
                "joins the cache key, and errors cleanly on unsupported "
                "workloads (noise, dynamics, irregular topologies)"
            ),
        )
        sub.add_argument(
            "--telemetry",
            default=None,
            metavar="DIR",
            help=(
                "record structured telemetry (counters, timers, spans) into DIR: "
                "events.jsonl + summary.json. Observation-only — results are "
                "bit-identical with or without it"
            ),
        )
        sub.add_argument(
            "--shard-workers",
            type=_positive_int,
            default=None,
            metavar="K",
            help=(
                "intra-kernel sharding: split each batched (R, n) kernel call "
                "into K contiguous replicate-row shards on a thread pool "
                "(default: off). Results are bit-identical for every K — each "
                "replicate row is seeded from its own SeedSequence child — "
                "but differ from unsharded runs (different RNG discipline), "
                "so the flag joins the cache key. Requires a fused backend; "
                "round-hook scenarios fall back to the unsharded loop"
            ),
        )
    return parser


def _command_list(as_json: bool = False) -> int:
    if as_json:
        # The same serialization path the serve API and its schema
        # generator use, so CLI listings can never drift from /experiments.
        from repro.serve.schema import experiment_listing

        print(dumps(experiment_listing()))
        return 0
    for experiment_id in sorted(EXPERIMENTS):
        print(f"{experiment_id}  {EXPERIMENTS.summary(experiment_id)}")
    return 0


def _run_one_cached(
    experiment_id: str, *, quick: bool, seed: int, engine: ExecutionEngine, cache: RunCache | None
) -> tuple[ExperimentResult, bool]:
    """Run one experiment through the shared submission path.

    The same :class:`~repro.serve.submit.Submission` the serve daemon
    executes — so a run completed here is a cache hit for an identical HTTP
    submission (and vice versa), and concurrent identical runs single-flight
    through :meth:`RunCache.get_or_compute`. Returns (result, was_cache_hit).
    """
    submission = Submission(kind="experiment", name=experiment_id, quick=quick, seed=seed)
    payload, status = run_submission(submission, cache=cache, engine=engine)
    return result_from_payload(payload), status == "hit"


def _open_cache(cache_dir: str | None) -> RunCache | None:
    """Build the run cache, rejecting unusable paths before any work is done."""
    if not cache_dir:
        return None
    path = Path(cache_dir)
    if path.exists() and not path.is_dir():
        raise ValueError(f"--cache-dir {cache_dir!r} exists and is not a directory")
    return RunCache(path)


def _command_run(
    experiment: str,
    quick: bool,
    seed: int,
    as_json: bool,
    figure: bool,
    workers: int,
    cache_dir: str | None,
) -> int:
    # Normalise the id up front so cache keys and registry lookups agree
    # ('e01' and 'E01' must hit the same cache entry).
    running_all = experiment.lower() == "all"
    ids = sorted(EXPERIMENTS) if running_all else [experiment.upper()]
    engine = ExecutionEngine(workers=workers)
    cache = _open_cache(cache_dir)
    json_payloads = []
    failures: list[tuple[str, Exception]] = []
    telemetry = get_telemetry()
    for experiment_id in ids:
        # One span per experiment: a traced `run all` charges each one for its
        # own time, including the import of its module on registry lookup.
        with telemetry.span("experiment", id=experiment_id) as span:
            try:
                result, cached = _run_one_cached(
                    experiment_id, quick=quick, seed=seed, engine=engine, cache=cache
                )
            except Exception as error:
                # When running the whole suite, one broken experiment must not
                # abort the rest: collect the failure, keep going, and report
                # (with a non-zero exit) at the end. A single named experiment
                # keeps the fail-fast behaviour.
                if not running_all:
                    raise
                failures.append((experiment_id, error))
                print(f"error: [{experiment_id}] {error}", file=sys.stderr)
                if as_json:
                    json_payloads.append({"experiment": experiment_id, "error": str(error)})
                continue
            span.annotate(cached=cached)
        if as_json:
            json_payloads.append(
                {"experiment": result.experiment_id, "records": result.records, "notes": result.notes}
            )
            continue
        if cached:
            print(f"[{result.experiment_id}] (cached)")
        print(result.to_table())
        if figure:
            from repro.experiments.figures import default_figure

            rendered = default_figure(result)
            if rendered is not None:
                print()
                print(rendered)
        print()
    if as_json:
        # One object for a single experiment (stable interface); a single
        # JSON array -- not bare concatenated objects -- for several.
        print(dumps(json_payloads[0] if len(json_payloads) == 1 else json_payloads))
    if failures:
        failed_ids = ", ".join(experiment_id for experiment_id, _ in failures)
        print(
            f"error: {len(failures)} of {len(ids)} experiments failed: {failed_ids}",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_scenario_list(as_json: bool = False) -> int:
    if as_json:
        from repro.serve.schema import scenario_listing

        print(dumps(scenario_listing()))
        return 0
    for name in scenario_names():
        print(f"{name:18s} {SCENARIOS[name].description}")
    return 0


def _command_scenario_run(
    name: str,
    rounds: int | None,
    replicates: int,
    quick: bool,
    seed: int,
    as_json: bool,
    workers: int,
    cache_dir: str | None,
) -> int:
    # The same shared submission path as `run` (see _run_one_cached).
    submission = Submission(
        kind="scenario", name=name, rounds=rounds, replicates=replicates, quick=quick, seed=seed
    )
    scenario = submission.build_scenario()
    engine = ExecutionEngine(workers=workers)
    cache = _open_cache(cache_dir)
    payload, status = run_submission(submission, cache=cache, engine=engine)
    cached = status == "hit"
    if as_json:
        print(dumps(payload))
        return 0
    if cached:
        print(f"[{name}] (cached)")
    records = payload["records"]
    # Thin long runs for terminal display; --json always carries every round.
    stride = max(1, len(records) // 20)
    shown = records[stride - 1 :: stride]
    title = f"[{name}] {scenario.description} ({payload['replicates']} replicates)"
    columns = [
        "round",
        "population",
        "true_density",
        "running",
        "window",
        "discounted",
        "ci_low",
        "ci_high",
        "change_fraction",
    ]
    print(format_records(shown, columns=columns, float_format=".4g", title=title))
    summary = payload["summary"]
    print(
        f"note: total change flags: {summary['total_changes_flagged']} across "
        f"{payload['replicates']} replicates"
    )
    for tracker, error in summary["mean_relative_error"].items():
        print(f"note: mean relative tracking error ({tracker}): {error:.4f}")
    return 0


def _command_report(
    quick: bool,
    seed: int,
    output: str,
    workers: int,
    cache_dir: str | None,
    from_store: str | None = None,
) -> int:
    if from_store is not None:
        text = generate_report(store=_open_store(from_store))
    else:
        engine = ExecutionEngine(workers=workers)
        cache = _open_cache(cache_dir)
        run = None
        if cache is not None:
            run = lambda experiment_id: _run_one_cached(  # noqa: E731
                experiment_id, quick=quick, seed=seed, engine=engine, cache=cache
            )[0]
        text = generate_report(quick=quick, seed=seed, engine=engine, run=run)
    if output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {output}")
    return 0


# ----------------------------------------------------------------------
# Sweeps and the result store
# ----------------------------------------------------------------------


def _open_store(store_dir: str, *, must_exist: bool = True) -> ResultStore:
    store = ResultStore(store_dir)
    if must_exist and not store.exists():
        raise ValueError(f"no result store at {store_dir!r} (no _schema.json)")
    return store


def _sweep_pieces(args) -> tuple:
    """Common setup of the sweep subcommands: spec + store + checkpoint cache."""
    spec = load_spec(args.spec)
    store = ResultStore(args.store)
    cache_dir = args.cache_dir if args.cache_dir is not None else str(Path(args.store) / "cache")
    cache = _open_cache(cache_dir)
    return spec, store, cache


def _command_sweep_run(args, *, resume: bool) -> int:
    spec, store, cache = _sweep_pieces(args)
    shard = parse_shard(args.shard) if args.shard is not None else None
    if resume and cache is not None and not Path(cache.directory).is_dir():
        raise ValueError(
            f"nothing to resume: checkpoint cache {str(cache.directory)!r} does not exist "
            "(run 'repro sweep run' first)"
        )

    def progress(cell, status) -> None:
        _LOGGER.info("[%s] cell %d: %s — %s", spec.name, cell.index, cell.label(), status)

    outcome = run_sweep_spec(
        spec,
        workers=args.workers,
        cache=cache,
        store=store,
        max_cells=args.max_cells,
        progress=progress,
        shard=shard,
    )
    summary = outcome.summary()
    summary["store"] = str(store.directory)
    summary["rows"] = store.count()
    if args.json:
        print(dumps(summary))
    else:
        shard_note = f" (shard {summary['shard']}: {summary['shard_cells']} owned)" if shard else ""
        print(
            f"[{spec.name}] {summary['cells']} cells{shard_note}: {summary['computed']} computed, "
            f"{summary['cached']} cached, {summary['pending']} pending"
        )
        print(f"store: {store.directory} ({summary['rows']} rows in {len(store.segments())} segments)")
        if summary["pending"]:
            flags = [("--shard", args.shard), ("--backend", args.backend), ("--shard-workers", args.shard_workers)]
            hint = "".join(f" {flag} {value}" for flag, value in flags if value is not None)
            print(f"resume with: repro sweep resume --spec {args.spec} --store {args.store}{hint}")
    return 0 if outcome.complete else 3


def _command_sweep_status(args) -> int:
    spec, store, cache = _sweep_pieces(args)
    status = sweep_status(spec, cache=cache, store=store if store.exists() else None)
    if args.json:
        print(dumps(status))
        return 0
    print(
        f"[{status['sweep']}] {status['cells']} cells: {status['cached']} cached, "
        f"{status['pending']} pending"
    )
    rows = [
        {
            "cell": entry["cell"],
            "target": f"{entry['target_kind']}:{entry['target']}",
            "params": ", ".join(f"{k}={v}" for k, v in sorted(entry["params"].items())),
            "cached": entry["cached"],
            "stored": entry["stored"],
        }
        for entry in status["per_cell"]
    ]
    print(format_records(rows, columns=["cell", "target", "params", "cached", "stored"]))
    return 0


def _parse_where(pairs: list[str]) -> dict:
    where = {}
    for pair in pairs:
        column, separator, value = pair.partition("=")
        if not separator or not column:
            raise ValueError(f"--where filters look like COL=VALUE, got {pair!r}")
        try:
            where[column] = json.loads(value)
        except ValueError:
            where[column] = value
    return where


def _split_columns(text: str | None) -> list[str] | None:
    if text is None:
        return None
    columns = [column.strip() for column in text.split(",") if column.strip()]
    if not columns:
        raise ValueError("--columns needs at least one column name")
    return columns


def _command_store_query(args) -> int:
    store = _open_store(args.store)
    columns = _split_columns(args.columns)
    metrics = [parse_metric(text) for text in args.aggregate]
    if args.by and not metrics:
        raise ValueError("--by only makes sense together with --aggregate")
    where = _parse_where(args.where) or None
    if metrics:
        # Aggregation needs the full-width rows (grouping and metric columns
        # may fall outside any --columns projection, which applies after).
        # One streaming pass: the row set is never materialised, so the
        # aggregate query runs out-of-core on stores larger than memory.
        rows = aggregate_stream(store.iter_select(where=where), by=args.by, metrics=metrics)
        if args.limit is not None:
            rows = rows[: args.limit]
        shown_columns = list(args.by) + ["n"] + [f"{stat}_{column}" for stat, column in metrics]
        if columns is not None:
            # Projection applies to the *aggregated* row shape here.
            unknown = [column for column in columns if column not in shown_columns]
            if unknown:
                raise ValueError(
                    f"--columns {unknown} not in the aggregated output; available: {shown_columns}"
                )
            rows = [{column: row.get(column) for column in columns} for row in rows]
            shown_columns = columns
    else:
        # select() applies the projection itself; the header union comes
        # from the rows in hand — no second scan of the store.
        rows = store.select(where=where, columns=columns, limit=args.limit)
        shown_columns = columns or sorted({key for row in rows for key in row})
    if args.json:
        print(dumps(rows))
    elif args.csv:
        sys.stdout.write(rows_to_csv(rows, columns=shown_columns))
    else:
        print(format_records(rows, columns=shown_columns, float_format=".4g"))
        print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return 0


def _command_store_export(args) -> int:
    store = _open_store(args.store)
    count = store.export(args.output, fmt=args.format, columns=_split_columns(args.columns))
    print(f"wrote {count} rows to {args.output}")
    return 0


def _command_store_merge(args) -> int:
    summary = merge_stores(args.sources, args.into)
    if args.json:
        print(dumps(summary))
    else:
        print(
            f"merged {summary['sources']} store(s) into {summary['into']}: "
            f"{summary['segments_copied']} segment(s) copied, "
            f"{summary['segments_skipped']} already present, {summary['rows']} rows total"
        )
    return 0


def _command_bench_history(args) -> int:
    """Ingest bench artifacts, scan every series, gate on the trajectory.

    Exit codes: 0 = no regression, :data:`_EXIT_REGRESSION` = at least one
    series shows a statistically significant regression, 2 = CLI error —
    so CI can gate on perf *trajectory*, not just one-shot thresholds.
    """
    from repro.obs.history import analyze_history, ingest_artifact

    store = ResultStore(args.store)
    ingested = []
    for artifact in args.artifacts:
        outcome = ingest_artifact(store, artifact)
        ingested.append(outcome)
        _LOGGER.debug(
            "ingested %s as %s (%d records)%s",
            outcome["artifact"],
            outcome["segment"],
            outcome["records"],
            "" if outcome["ingested"] else " — already present, skipped",
        )
    report = analyze_history(
        store,
        metric=args.metric,
        window=args.window,
        threshold=args.threshold,
        z_threshold=args.z,
    )
    fresh = sum(1 for outcome in ingested if outcome["ingested"])
    report["ingested"] = fresh
    report["artifacts"] = ingested
    report["store"] = str(store.directory)
    if args.json:
        print(dumps(report))
    else:
        print(
            f"bench history: {fresh} artifact(s) ingested "
            f"({len(ingested) - fresh} already present), "
            f"{report['series_scanned']} series scanned on {args.metric!r}"
        )
        for series in report["series"]:
            label = "/".join(str(part) for part in (series["benchmark"], series["workload"], series["backend"]) if part)
            if series["status"] == "insufficient":
                print(
                    f"  {label}: {series['points']} point(s) — needs {series['required']} "
                    "to arm the detector"
                )
                continue
            verdict = []
            if series["regressions"]:
                verdict.append(f"{len(series['regressions'])} REGRESSION(S)")
            if series["improvements"]:
                verdict.append(f"{len(series['improvements'])} improvement(s)")
            print(f"  {label}: {series['points']} points — {', '.join(verdict) or 'stable'}")
        if report["regressions_detected"]:
            print(
                f"error: {report['regressions_detected']} perf regression(s) detected",
                file=sys.stderr,
            )
    return _EXIT_REGRESSION if report["regressions_detected"] else 0


def _command_serve(args) -> int:
    """Run the async job daemon (or dump its generated OpenAPI document)."""
    from repro.serve.api import ROUTES, ReproServer, serve_forever
    from repro.serve.jobs import JobManager
    from repro.serve.schema import openapi_document

    if args.serve_command == "schema":
        print(dumps(openapi_document(ROUTES)))
        return 0
    state_dir = Path(args.state_dir)
    cache = _open_cache(args.cache_dir if args.cache_dir is not None else str(state_dir / "cache"))
    manager = JobManager(
        cache=cache,
        jobs_dir=state_dir / "jobs",
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate=args.rate,
        burst=args.burst,
        context=current_run_context(),
    )
    try:
        server = ReproServer((args.host, args.port), manager)
    except OSError as error:
        raise ValueError(f"cannot bind {args.host}:{args.port}: {error}") from None
    host, port = server.server_address[:2]
    _LOGGER.info("repro serve listening on http://%s:%d (SIGTERM/SIGINT to stop)", host, port)
    _LOGGER.debug(
        "state: jobs=%s cache=%s workers=%d queue_depth=%d",
        state_dir / "jobs",
        cache.directory if cache is not None else None,
        args.workers,
        args.queue_depth,
    )
    serve_forever(server)
    _LOGGER.info("repro serve stopped")
    return 0


def _guarded(command, *arguments) -> int:
    """Uniform error envelope of every subcommand.

    One place instead of six per-command ``try`` blocks, so every
    subcommand — including ``serve`` — maps the same conditions to the
    same exit codes: expected operational failures (bad ids, malformed
    specs, unusable paths, store trouble) print ``error: ...`` and exit 2;
    ``BrokenPipeError`` and ``KeyboardInterrupt`` re-raise for the
    top-level guards in :func:`_dispatch` (exit 0 and 130 respectively).
    ``KeyError`` unwraps ``args[0]`` so the message is not repr-quoted.
    """
    try:
        return command(*arguments)
    except (BrokenPipeError, KeyboardInterrupt):
        raise
    except (KeyError, ValueError, OSError, StoreError) as error:
        message = error.args[0] if isinstance(error, KeyError) and error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2


def _route(args):
    """The (command, arguments) pair of one parsed invocation."""
    if args.command == "list":
        return _command_list, (args.json,)
    if args.command == "run":
        return _command_run, (
            args.experiment,
            args.quick,
            args.seed,
            args.json,
            args.figure,
            args.workers,
            args.cache_dir,
        )
    if args.command == "report":
        return _command_report, (
            args.quick,
            args.seed,
            args.output,
            args.workers,
            args.cache_dir,
            args.from_store,
        )
    if args.command == "sweep":
        if args.sweep_command == "status":
            return _command_sweep_status, (args,)
        return (lambda a: _command_sweep_run(a, resume=a.sweep_command == "resume")), (args,)
    if args.command == "store":
        if args.store_command == "query":
            return _command_store_query, (args,)
        if args.store_command == "merge":
            return _command_store_merge, (args,)
        return _command_store_export, (args,)
    if args.command == "bench":
        return _command_bench_history, (args,)
    if args.command == "serve":
        return _command_serve, (args,)
    if args.scenario_command == "list":
        return _command_scenario_list, (args.json,)
    return _command_scenario_run, (
        args.scenario,
        args.rounds,
        args.replicates,
        args.quick,
        args.seed,
        args.json,
        args.workers,
        args.cache_dir,
    )


def _dispatch(args) -> int:
    """Route one parsed invocation through the uniform error envelope."""
    command, arguments = _route(args)
    try:
        return _guarded(command, *arguments)
    except BrokenPipeError:  # pragma: no cover - depends on the consumer
        # The downstream consumer (e.g. `| head`) closed the pipe; park
        # stdout on /dev/null so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # ^C is a clean stop, not a stack trace: the conventional
        # 128+SIGINT code, uniformly for every subcommand.
        print("interrupted", file=sys.stderr)
        return 130


def _command_label(args) -> str:
    """The full command path of an invocation, e.g. ``sweep run``."""
    parts = [args.command]
    for attribute in (
        "sweep_command",
        "store_command",
        "scenario_command",
        "bench_command",
        "serve_command",
    ):
        sub = getattr(args, attribute, None)
        if sub:
            parts.append(sub)
    return " ".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    # The run settings live for this one dispatch, not for the process: an
    # in-process caller's next run_kernel call sees its own context again.
    context = RunContext(
        backend=getattr(args, "backend", None) or "auto",
        shard_workers=getattr(args, "shard_workers", None),
    )
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is None:
        with use_run_context(context):
            return _dispatch(args)

    # Telemetry is observation-only: the recorder wraps the whole dispatch
    # in one "run" span, and every probe in kernel/scheduler/cache/sweeps
    # reports into it without touching a single random draw.
    command = _command_label(args)
    recorder = TelemetryRecorder(
        directory=telemetry_dir,
        level="events",
        provenance={"command": command, "seed_root": getattr(args, "seed", None)},
    )
    previous = set_telemetry(recorder)
    try:
        with use_run_context(context), recorder.span("run", command=command):
            exit_code = _dispatch(args)
        recorder.gauge("run.exit_code", exit_code)
        return exit_code
    finally:
        set_telemetry(previous)
        try:
            summary_path = recorder.write()
        except OSError as error:  # pragma: no cover - disk-full etc.
            print(f"error: could not write telemetry to {telemetry_dir!r}: {error}", file=sys.stderr)
        else:
            _LOGGER.debug("telemetry summary written to %s", summary_path)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
