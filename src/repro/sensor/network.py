"""A grid sensor network with scalar readings at every sensor."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.topology.torus import Torus2D
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_integer


class SensorGrid:
    """Sensors on a ``side x side`` torus grid, each holding a scalar reading.

    Parameters
    ----------
    side:
        Grid side length; the network has ``side**2`` sensors.
    values:
        Either an array of readings of length ``side**2``, or a callable
        ``(num_sensors, rng) -> readings`` that draws them (e.g. i.i.d.
        indicators with probability ``p`` — the density-estimation special
        case described in Section 6.3.1).
    seed:
        Used only when ``values`` is a callable.
    """

    def __init__(
        self,
        side: int,
        values: np.ndarray | Callable[[int, np.random.Generator], np.ndarray],
        seed: SeedLike = None,
    ):
        require_integer(side, "side", minimum=2)
        self.topology = Torus2D(side)
        rng = as_generator(seed)
        if callable(values):
            readings = np.asarray(values(self.topology.num_nodes, rng), dtype=np.float64)
        else:
            readings = np.asarray(values, dtype=np.float64)
        if readings.shape != (self.topology.num_nodes,):
            raise ValueError(
                f"values must have shape ({self.topology.num_nodes},), got {readings.shape}"
            )
        self.readings = readings

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    @property
    def num_sensors(self) -> int:
        return self.topology.num_nodes

    @property
    def true_mean(self) -> float:
        """The statistic a query wants: the mean reading over all sensors."""
        return float(self.readings.mean())

    # ------------------------------------------------------------------
    # Token walks
    # ------------------------------------------------------------------
    def token_walk(
        self, steps: int, seed: SeedLike = None, *, start: int | None = None
    ) -> np.ndarray:
        """Relay a token for ``steps`` hops and return the visited sensor ids.

        The token starts at ``start`` (default: a uniformly random sensor,
        modelling a base station injecting it anywhere) and the returned
        array has length ``steps`` (the readings observed after each hop).
        """
        require_integer(steps, "steps", minimum=1)
        rng = as_generator(seed)
        if start is None:
            position = int(rng.integers(0, self.num_sensors))
        else:
            position = int(start)
            if not 0 <= position < self.num_sensors:
                raise ValueError(f"start must be a valid sensor id, got {start}")
        path = self.topology.walk(position, steps, rng)
        return path[1:]

    def readings_along(self, sensor_ids: np.ndarray) -> np.ndarray:
        """Readings observed at a sequence of sensor ids."""
        sensor_ids = np.asarray(sensor_ids, dtype=np.int64)
        self.topology.validate_nodes(sensor_ids)
        return self.readings[sensor_ids]

    @classmethod
    def bernoulli(cls, side: int, probability: float, seed: SeedLike = None) -> "SensorGrid":
        """Network whose readings are i.i.d. Bernoulli(probability) indicators.

        This is the "percentage of sensors that recorded a condition" query
        of Section 6.3.1 — the sensor-network analogue of density estimation.
        """
        if not 0 <= probability <= 1:
            raise ValueError(f"probability must lie in [0, 1], got {probability}")

        def draw(num_sensors: int, rng: np.random.Generator) -> np.ndarray:
            return (rng.random(num_sensors) < probability).astype(np.float64)

        return cls(side, draw, seed)


__all__ = ["SensorGrid"]
