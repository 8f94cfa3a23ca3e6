"""Shared utilities: RNG handling, validation, tables, serialization.

These helpers are intentionally small and dependency-free (NumPy only) so
that every other subpackage can rely on them without import cycles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "as_generator": ".rng", "spawn_generators": ".rng",
    "require_in_range": ".validation", "require_non_negative": ".validation",
    "require_positive": ".validation", "require_probability": ".validation",
    "format_table": ".tables",
    "rows_to_csv": ".serialization", "to_jsonable": ".serialization",
})

__all__ = [
    "as_generator",
    "spawn_generators",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "format_table",
    "rows_to_csv",
    "to_jsonable",
]
