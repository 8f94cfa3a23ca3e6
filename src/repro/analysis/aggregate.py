"""One-pass group-by aggregation over store rows (and any dict records).

The result store persists raw per-record rows; analyses usually want
summaries — "mean empirical epsilon by target density", "max tracking error
by scenario". :func:`aggregate_stream` computes them deterministically
(groups sorted by key, stable statistic names) in **one pass** over a row
iterator: per-group state is a handful of merged moments (Welford mean/M2,
min/max/sum/count), so aggregating a store query never holds the row set —
``repro store query --aggregate`` runs out-of-core on stores larger than
memory. The one exception is ``median``, which buffers each group's scalar
values (a float per row, still far below materialising whole rows).
It produces the same numbers as the in-process experiment path without
re-running anything.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

_STAT_NAMES = ("count", "max", "mean", "median", "min", "std", "sum", "var")


def statistic_names() -> list[str]:
    """Names accepted as the ``<stat>`` half of a ``<stat>:<column>`` request."""
    return list(_STAT_NAMES)


def parse_metric(text: str) -> tuple[str, str]:
    """Parse a CLI metric request ``"<stat>:<column>"`` into its parts."""
    stat, separator, column = text.partition(":")
    if not separator or not column or stat not in _STAT_NAMES:
        raise ValueError(
            f"metrics look like '<stat>:<column>' with stat in {statistic_names()}, got {text!r}"
        )
    return stat, column


class StreamStats:
    """Streaming moments of one scalar series: Welford update, Chan merge.

    Tracks count, mean, and the centred second moment ``M2`` online (one
    float each), plus min/max/sum — enough to answer every supported
    statistic except ``median`` without storing values. ``median`` is opt-in
    (``keep_values=True``) and buffers one float per observation.

    The variance convention matches ``numpy.var`` (population, ``ddof=0``),
    so a streamed aggregate agrees with the materialised one to floating-
    point accumulation order.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum", "total", "values")

    def __init__(self, *, keep_values: bool = False):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0
        self.values: list[float] | None = [] if keep_values else None

    def add(self, value: float) -> None:
        """Fold one observation in (Welford's update)."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.total += value
        if self.values is not None:
            self.values.append(value)

    def merge(self, other: "StreamStats") -> None:
        """Fold another accumulator in (Chan's parallel merge).

        This is what makes shard-local aggregation composable: each shard
        can stream its own moments and the coordinator merges them without
        ever seeing a row.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
        else:
            total_count = self.count + other.count
            delta = other.mean - self.mean
            self.mean += delta * other.count / total_count
            self.m2 += other.m2 + delta * delta * self.count * other.count / total_count
            self.count = total_count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.total += other.total
        if self.values is not None and other.values is not None:
            self.values.extend(other.values)

    def statistic(self, stat: str) -> float | None:
        """The named statistic, or ``None`` when no values were observed."""
        if self.count == 0:
            return None
        if stat == "mean":
            return float(self.mean)
        if stat == "var":
            return float(self.m2 / self.count)
        if stat == "std":
            return float(math.sqrt(self.m2 / self.count))
        if stat == "min":
            return float(self.minimum)
        if stat == "max":
            return float(self.maximum)
        if stat == "sum":
            return float(self.total)
        if stat == "count":
            return float(self.count)
        if stat == "median":
            if self.values is None:
                raise ValueError("median requires StreamStats(keep_values=True)")
            return float(np.median(np.asarray(self.values)))
        raise ValueError(f"unknown statistic {stat!r}; known: {statistic_names()}")


def _hashable(value: Any) -> Any:
    # Store rows may hold list-valued columns (swept tuple params come
    # back from JSON as lists); group keys must still be dict keys.
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _hashable(v)) for k, v in value.items()))
    return value


def _rank(value: Any) -> tuple:
    # None first, then numbers in numeric order, then everything else by
    # (type name, text) — so `--by rounds` over 4/8/16 comes back
    # 4, 8, 16 rather than lexicographic 16, 4, 8, and mixed-type
    # columns still order deterministically.
    if value is None:
        return (0, 0.0, "", "")
    if isinstance(value, bool):
        return (2, 0.0, "bool", str(value))
    if isinstance(value, (int, float)):
        return (1, float(value), "", "")
    return (2, 0.0, type(value).__name__, str(value))


def aggregate_stream(
    records: Iterable[Mapping[str, Any]] | Iterator[Mapping[str, Any]],
    *,
    by: Sequence[str] = (),
    metrics: Sequence[tuple[str, str]] = (),
) -> list[dict[str, Any]]:
    """Aggregate ``records`` grouped by the ``by`` columns, in one pass.

    Parameters
    ----------
    records:
        An iterable (or iterator — e.g. :meth:`ResultStore.iter_select`) of
        dict rows. Consumed exactly once; never materialised.
    by:
        Grouping columns; rows missing one are grouped under ``None``.
        Empty ⇒ one group over everything.
    metrics:
        ``(stat, column)`` pairs, e.g. ``[("mean", "empirical_epsilon")]``.
        Non-numeric and missing values are skipped; a metric with no numeric
        values in a group yields ``None``.

    Returns
    -------
    list of dict
        One row per group — the ``by`` values plus ``"<stat>_<column>"``
        aggregates and an ``"n"`` row count — sorted by group key so output
        order never depends on input order beyond the rows themselves.
    """
    if not metrics:
        raise ValueError("aggregation needs at least one (stat, column) metric")
    for stat, _ in metrics:
        if stat not in _STAT_NAMES:
            raise ValueError(f"unknown statistic {stat!r}; known: {statistic_names()}")
    # One accumulator per (group, metric column); median is the only
    # statistic that needs the raw scalars.
    metric_columns = sorted({column for _, column in metrics})
    keep_values = {
        column: any(stat == "median" and col == column for stat, col in metrics)
        for column in metric_columns
    }
    groups: dict[tuple, dict[str, StreamStats]] = {}
    originals: dict[tuple, tuple] = {}
    counts: dict[tuple, int] = {}
    for record in records:
        values = tuple(record.get(column) for column in by)
        key = tuple(_hashable(value) for value in values)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = {
                column: StreamStats(keep_values=keep_values[column])
                for column in metric_columns
            }
            originals[key] = values
            counts[key] = 0
        counts[key] += 1
        for column in metric_columns:
            value = record.get(column)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if value != value:  # NaN
                continue
            accumulators[column].add(float(value))

    out: list[dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: tuple(_rank(v) for v in k)):
        aggregated: dict[str, Any] = dict(zip(by, originals[key]))
        aggregated["n"] = counts[key]
        for stat, column in metrics:
            aggregated[f"{stat}_{column}"] = groups[key][column].statistic(stat)
        out.append(aggregated)
    return out


__all__ = [
    "StreamStats",
    "aggregate_stream",
    "parse_metric",
    "statistic_names",
]
