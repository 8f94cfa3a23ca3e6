"""Cartesian parameter grids.

:func:`cartesian_grid` expands named axes into one parameter dict per
combination; :func:`repro.sweeps.expand_axes` is its general, declarative
form (grid, zip and random-search axes).
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence


def cartesian_grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """All combinations of the given axes as a list of parameter dicts.

    >>> cartesian_grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        return [{}]
    names = list(axes.keys())
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


__all__ = ["cartesian_grid"]
