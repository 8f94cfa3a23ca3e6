"""Shared infrastructure for the experiment suite.

Each experiment module exposes

* a frozen ``*Config`` dataclass with a :meth:`quick` constructor returning a
  scaled-down configuration (used by tests and pytest-benchmark), and
* a ``run(config=None, seed=0) -> ExperimentResult`` function.

An :class:`ExperimentResult` is a table: a list of records (dicts) plus the
metadata needed to print it the way a paper would (experiment id, the claim
being reproduced, column order, and free-form notes summarising what the
measurement shows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.utils.tables import format_records


@dataclass
class ExperimentResult:
    """Tabular outcome of one experiment."""

    experiment_id: str
    title: str
    claim: str
    records: list[dict[str, Any]] = field(default_factory=list)
    columns: Sequence[str] | None = None
    notes: list[str] = field(default_factory=list)

    def to_table(self, *, float_format: str = ".4g") -> str:
        """Render the records as an aligned plain-text table."""
        header = f"[{self.experiment_id}] {self.title}\nClaim: {self.claim}"
        table = format_records(
            self.records, columns=self.columns, float_format=float_format, title=header
        )
        if self.notes:
            table += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return table

    def column(self, name: str) -> list[Any]:
        """All values of one column, in record order."""
        return [record[name] for record in self.records]

    def add(self, **record: Any) -> None:
        """Append one record."""
        self.records.append(record)

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.records)


__all__ = ["ExperimentResult"]
