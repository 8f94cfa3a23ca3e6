"""Random-number-generator plumbing.

Every public entry point in the library accepts either ``None`` (fresh
entropy), an integer seed, or an existing :class:`numpy.random.Generator`.
Centralising the conversion here keeps behaviour consistent: given the same
integer seed, every simulation in the library is fully deterministic.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator usable by all simulation code.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Useful for running independent trials (or independent agents) whose
    streams must not overlap, while remaining reproducible from one seed.
    Delegates to :func:`spawn_seed_sequences` so the two can never drift:
    the execution engine's "identical records with or without an engine"
    guarantee rests on both producing the same child streams.
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, count)]


def as_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Coerce ``seed`` into a single :class:`numpy.random.SeedSequence`.

    A ``Generator`` is reduced deterministically by drawing one integer from
    its stream; everything else maps the obvious way.

    For spawning *several* children use :func:`spawn_seed_sequences`, never
    ``as_seed_sequence(seed).spawn(count)``: for ``Generator`` seeds the two
    produce different child streams (this function draws one integer total,
    ``spawn_seed_sequences`` draws one per child to mirror what
    :func:`spawn_generators` has always done), and the engine-vs-legacy
    record-equality guarantee depends on the latter.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def spawn_seed_sequences(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Spawn ``count`` independent child ``SeedSequence`` objects from ``seed``.

    The picklable counterpart of :func:`spawn_generators`: for every seed
    type, ``np.random.default_rng(child)`` over these children yields
    exactly the streams ``spawn_generators(seed, count)`` would (Generators
    included — one integer is drawn per child, mirroring the legacy path),
    and constructing the generator in any process gives the same stream, so
    task results do not depend on which worker ran them.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.SeedSequence(int(s)) for s in child_seeds]
    return list(as_seed_sequence(seed).spawn(count))


__all__ = [
    "SeedLike",
    "as_generator",
    "as_seed_sequence",
    "spawn_generators",
    "spawn_seed_sequences",
]
