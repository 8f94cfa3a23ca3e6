"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.complete import CompleteGraph
from repro.topology.hypercube import Hypercube
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.topology.torus_kd import TorusKD


def pytest_report_header(config) -> str:
    # The golden fixtures pin NumPy's samplers, so every run says which
    # NumPy produced it.
    return f"numpy: {np.__version__}"


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    # `-q` (as CI runs the suite) hides the header, so name NumPy at the end.
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_torus() -> Torus2D:
    """A 16x16 torus used across many tests."""
    return Torus2D(16)


@pytest.fixture
def small_ring() -> Ring:
    return Ring(64)


@pytest.fixture(
    params=[
        Torus2D(8),
        Ring(32),
        TorusKD(5, 3),
        Hypercube(6),
        CompleteGraph(40),
    ],
    ids=["torus2d", "ring", "torus3d", "hypercube", "complete"],
)
def regular_topology(request):
    """Every built-in regular topology, parameterised."""
    return request.param
