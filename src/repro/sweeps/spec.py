"""Declarative, JSON-serialisable sweep specifications.

A sweep is *targets x axes*:

* a **target** names the thing each cell runs — a static experiment from
  :data:`repro.experiments.EXPERIMENTS` (``{"kind": "experiment", "name":
  "E02"}``) or a dynamics scenario from the catalog (``{"kind":
  "scenario", "name": "crash"}``) — plus fixed ``base`` overrides;
* an **axis** contributes parameter assignments. :class:`GridAxis` takes
  the cartesian product with everything else (the general form of the old
  ``analysis.sweep.cartesian_grid``), :class:`ZipAxis` varies several
  parameters in lock-step, and :class:`RandomAxis` contributes ``samples``
  seeded draws from a distribution (random search). Axes shared by every
  target live on the spec; target-specific axes live on the target.

Everything round-trips through plain dicts (:meth:`SweepSpec.to_dict` /
:meth:`SweepSpec.from_dict`) and therefore through JSON files on disk, so a
sweep is data: the CLI, the cache keys, and the resume logic all consume
the same frozen description.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.utils.rng import spawn_seed_sequences
from repro.utils.serialization import to_jsonable
from repro.utils.validation import require_integer

#: Bump when the spec layout changes incompatibly; embedded in saved files.
SWEEP_SPEC_SCHEMA = 1

_TARGET_KINDS = ("experiment", "scenario")
_DISTRIBUTIONS = ("uniform", "loguniform", "randint", "choice")


def _freeze_value(value: Any) -> Any:
    """JSON-load-shaped values (lists) become hashable/frozen tuples."""
    if isinstance(value, list):
        return tuple(_freeze_value(item) for item in value)
    return value


@dataclass(frozen=True)
class GridAxis:
    """One parameter taking each listed value (cartesian with other axes)."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze_value(list(self.values)))
        if not self.name:
            raise ValueError("grid axis needs a non-empty parameter name")
        if not self.values:
            raise ValueError(f"grid axis {self.name!r} needs at least one value")

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name,)

    def points(self, rng: np.random.Generator) -> list[dict[str, Any]]:
        return [{self.name: value} for value in self.values]

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "grid", "name": self.name, "values": list(self.values)}


@dataclass(frozen=True)
class ZipAxis:
    """Several parameters varied in lock-step: one cell block per row."""

    names: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "rows", tuple(_freeze_value(list(row)) for row in self.rows))
        if not self.names:
            raise ValueError("zip axis needs at least one parameter name")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"zip axis repeats a parameter name: {self.names}")
        if not self.rows:
            raise ValueError(f"zip axis {self.names} needs at least one row")
        for row in self.rows:
            if len(row) != len(self.names):
                raise ValueError(
                    f"zip axis row {row!r} has {len(row)} values for {len(self.names)} names"
                )

    def points(self, rng: np.random.Generator) -> list[dict[str, Any]]:
        return [dict(zip(self.names, row)) for row in self.rows]

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "zip", "names": list(self.names), "rows": [list(row) for row in self.rows]}


@dataclass(frozen=True)
class RandomAxis:
    """One parameter taking ``samples`` seeded draws from a distribution.

    Distributions: ``uniform`` / ``loguniform`` over ``[low, high)``,
    ``randint`` over ``[low, high)`` integers, and ``choice`` over
    ``choices``. The draws are a pure function of the owning spec's seed —
    through a **dedicated axis entropy domain** (:func:`axis_seed`), so the
    sampled parameter values are statistically independent of every cell's
    simulation stream — making a random-search sweep exactly as
    reproducible and resumable as a grid.
    """

    name: str
    samples: int
    distribution: str = "uniform"
    low: float | None = None
    high: float | None = None
    choices: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("random axis needs a non-empty parameter name")
        require_integer(self.samples, "samples", minimum=1)
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; known: {list(_DISTRIBUTIONS)}"
            )
        if self.distribution == "choice":
            if not self.choices:
                raise ValueError(f"random axis {self.name!r} with 'choice' needs choices")
            object.__setattr__(self, "choices", _freeze_value(list(self.choices)))
        else:
            if self.low is None or self.high is None or not (self.low < self.high):
                raise ValueError(
                    f"random axis {self.name!r} needs low < high, got "
                    f"low={self.low!r} high={self.high!r}"
                )
            if self.distribution == "loguniform" and self.low <= 0:
                raise ValueError(f"loguniform axis {self.name!r} needs low > 0")

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name,)

    def points(self, rng: np.random.Generator) -> list[dict[str, Any]]:
        if self.distribution == "choice":
            indices = rng.integers(0, len(self.choices), size=self.samples)
            values = [self.choices[int(i)] for i in indices]
        elif self.distribution == "randint":
            values = [int(v) for v in rng.integers(int(self.low), int(self.high), size=self.samples)]
        elif self.distribution == "loguniform":
            draws = rng.uniform(np.log(self.low), np.log(self.high), size=self.samples)
            values = [float(v) for v in np.exp(draws)]
        else:  # uniform
            values = [float(v) for v in rng.uniform(self.low, self.high, size=self.samples)]
        return [{self.name: value} for value in values]

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": "random",
            "name": self.name,
            "samples": self.samples,
            "distribution": self.distribution,
        }
        if self.distribution == "choice":
            out["choices"] = list(self.choices)
        else:
            out["low"] = self.low
            out["high"] = self.high
        return out


Axis = GridAxis | ZipAxis | RandomAxis


def axis_from_dict(payload: Mapping[str, Any]) -> Axis:
    """Rebuild an axis from its :meth:`to_dict` form."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind == "grid":
        return GridAxis(name=data["name"], values=tuple(data["values"]))
    if kind == "zip":
        return ZipAxis(names=tuple(data["names"]), rows=tuple(tuple(row) for row in data["rows"]))
    if kind == "random":
        return RandomAxis(
            name=data["name"],
            samples=data["samples"],
            distribution=data.get("distribution", "uniform"),
            low=data.get("low"),
            high=data.get("high"),
            choices=tuple(data["choices"]) if data.get("choices") is not None else None,
        )
    raise ValueError(f"unknown axis kind {kind!r}; known kinds: ['grid', 'zip', 'random']")


#: Entropy-domain tag folded into every axis-draw seed, separating the
#: streams that *choose* random-search parameter values from the streams the
#: cells then *simulate* with (cell ``i`` uses child ``i`` of
#: ``SeedSequence(spec.seed)``). Without the separation, an axis's first
#: draws would be exactly the first random numbers cell 0 consumes.
_AXIS_STREAM = 0x5EED_A7E5


def axis_seed(seed: int, target_index: int | None = None) -> np.random.SeedSequence:
    """The seed for axis value draws: spec seed, axis domain, optional target.

    Spec-level axes use ``axis_seed(spec.seed)`` — drawn once, so a
    spec-level random axis samples the *same* points for every target
    (comparable cells). Target-level axes use ``axis_seed(spec.seed, t)`` —
    independent draws per target, so two targets with same-shaped random
    axes do not duplicate each other's search points.
    """
    entropy = [_AXIS_STREAM, seed] if target_index is None else [_AXIS_STREAM, seed, target_index]
    return np.random.SeedSequence(entropy)


def collect_axis_names(axes: Sequence[Axis]) -> list[str]:
    """Flat parameter names of ``axes``; rejects a name on more than one axis."""
    names: list[str] = []
    for axis in axes:
        for name in axis.names:
            if name in names:
                raise ValueError(f"parameter {name!r} appears on more than one axis")
            names.append(name)
    return names


def expand_axes(
    axes: Sequence[Axis], seed: Any = 0
) -> list[dict[str, Any]]:
    """All parameter assignments of ``axes``: the cartesian product of their blocks.

    Each axis contributes a block of partial assignments (:meth:`points`);
    the expansion is the product over blocks with later axes varying
    fastest, mirroring ``itertools.product``. With no axes the result is
    the single empty assignment, so ``expand_axes`` degrades gracefully to
    "run the target once". Random axes draw from children of ``seed`` —
    the sweep compiler passes :func:`axis_seed` so the draws never share a
    stream with any cell's simulation.

    This is the general form of :func:`repro.analysis.sweep.cartesian_grid`
    (a grid of single-value axes reproduces it exactly).
    """
    collect_axis_names(axes)
    rngs = [np.random.default_rng(child) for child in spawn_seed_sequences(seed, len(axes))]
    blocks = [axis.points(rng) for axis, rng in zip(axes, rngs)]
    out: list[dict[str, Any]] = []
    for combo in itertools.product(*blocks):
        merged: dict[str, Any] = {}
        for part in combo:
            merged.update(part)
        out.append(merged)
    return out


@dataclass(frozen=True)
class TargetSpec:
    """What a sweep cell runs: an experiment or scenario plus fixed overrides.

    ``base`` holds fixed parameter overrides applied to every cell of this
    target (axis parameters override ``base`` on collision); ``axes`` are
    additional axes swept for this target only.
    """

    kind: str
    name: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}; known kinds: {list(_TARGET_KINDS)}")
        if not self.name:
            raise ValueError("target needs a non-empty name")
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(self, "axes", tuple(self.axes))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "base": to_jsonable(self.base),
            "axes": [axis.to_dict() for axis in self.axes],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TargetSpec":
        data = dict(payload)
        return cls(
            kind=data["kind"],
            name=data["name"],
            base=dict(data.get("base", {})),
            axes=tuple(axis_from_dict(axis) for axis in data.get("axes", [])),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A complete, serialisable description of one parameter sweep.

    Attributes
    ----------
    name:
        Sweep identifier; store segments and progress lines carry it.
    targets:
        The experiments/scenarios swept; every target is expanded against
        the spec-level ``axes`` plus its own.
    axes:
        Axes shared by every target.
    seed:
        Root seed. Cell seeds are spawned from it by cell index, so any
        subset of cells (a resumed remainder included) reproduces exactly.
    description:
        Free-form note carried through ``to_dict`` for humans.
    """

    name: str
    targets: tuple[TargetSpec, ...]
    axes: tuple[Axis, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        # Sweep names become store segment prefixes and cache-key material,
        # so keep them filesystem-safe.
        allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
        if not self.name or set(self.name) - allowed or self.name.startswith("."):
            raise ValueError(
                f"sweep names use [A-Za-z0-9._-] and must not start with '.', got {self.name!r}"
            )
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.targets:
            raise ValueError("sweep needs at least one target")
        require_integer(self.seed, "seed")
        for target in self.targets:
            # Surface axis-name collisions (including spec-level vs
            # target-level) at construction, not mid-run.
            collect_axis_names(tuple(self.axes) + tuple(target.axes))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SWEEP_SPEC_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "axes": [axis.to_dict() for axis in self.axes],
            "targets": [target.to_dict() for target in self.targets],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        data = dict(payload)
        schema = data.pop("schema", SWEEP_SPEC_SCHEMA)
        if schema != SWEEP_SPEC_SCHEMA:
            raise ValueError(
                f"sweep spec has schema {schema!r}; this build reads schema {SWEEP_SPEC_SCHEMA}"
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            seed=data.get("seed", 0),
            axes=tuple(axis_from_dict(axis) for axis in data.get("axes", [])),
            targets=tuple(TargetSpec.from_dict(target) for target in data["targets"]),
        )


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI shard request ``"i/N"`` into ``(index, count)``.

    ``index`` is zero-based and must satisfy ``0 <= index < count``; shards
    of one sweep use the same ``N`` and together cover every cell exactly
    once (see :func:`shard_cell_indices`).
    """
    index_text, separator, count_text = text.partition("/")
    try:
        if not separator:
            raise ValueError(text)
        index = int(index_text)
        count = int(count_text)
    except ValueError:
        raise ValueError(
            f"shards look like 'i/N' with integers 0 <= i < N, got {text!r}"
        ) from None
    require_integer(count, "shard count", minimum=1)
    require_integer(index, "shard index", minimum=0)
    if index >= count:
        raise ValueError(f"shard index {index} is out of range for {count} shard(s)")
    return index, count


def shard_cell_indices(total: int, index: int, count: int) -> range:
    """The contiguous cell-index slice owned by shard ``index`` of ``count``.

    Balanced partition of ``range(total)``: shard sizes differ by at most
    one, every cell belongs to exactly one shard, and the union over all
    shards is the full range — the property the shard-merge byte-identity
    contract rests on. Cell seeds are untouched by sharding (cell ``i`` is
    always seeded by child ``i`` of the root seed), so which shard runs a
    cell can never change its rows.
    """
    require_integer(total, "total", minimum=0)
    require_integer(count, "shard count", minimum=1)
    require_integer(index, "shard index", minimum=0)
    if index >= count:
        raise ValueError(f"shard index {index} is out of range for {count} shard(s)")
    return range((total * index) // count, (total * (index + 1)) // count)


def load_spec(path: str | Path) -> SweepSpec:
    """Read a :class:`SweepSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ValueError(f"sweep spec {path} is not valid JSON: {error}") from error
    return SweepSpec.from_dict(payload)


__all__ = [
    "SWEEP_SPEC_SCHEMA",
    "Axis",
    "GridAxis",
    "ZipAxis",
    "RandomAxis",
    "TargetSpec",
    "SweepSpec",
    "axis_from_dict",
    "axis_seed",
    "collect_axis_names",
    "expand_axes",
    "load_spec",
    "parse_shard",
    "shard_cell_indices",
]
