"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "live: starts real server processes (CI runs these as smoke jobs)"
    )


@pytest.fixture
def triangle_graph() -> UncertainGraph:
    """A 3-cycle with distinct probabilities (hand-checkable)."""
    return UncertainGraph.from_edge_list(
        [("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.7)], name="triangle"
    )


@pytest.fixture
def bridge_graph() -> UncertainGraph:
    """Two triangles joined by a single bridge edge."""
    return UncertainGraph.from_edge_list(
        [
            (0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7),   # left triangle
            (2, 3, 0.6),                               # bridge
            (3, 4, 0.9), (4, 5, 0.8), (3, 5, 0.7),   # right triangle
        ],
        name="two-triangles",
    )


@pytest.fixture
def path_with_dangling() -> UncertainGraph:
    """A path 0-1-2-3 with a dangling branch 1-4-5 (prunable for T={0, 3})."""
    return UncertainGraph.from_edge_list(
        [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (1, 4, 0.6), (4, 5, 0.5)],
        name="path-with-dangling",
    )


def make_random_graph(seed: int, num_vertices: int = 7, num_edges: int = 11) -> UncertainGraph:
    """A connected random graph small enough for brute-force enumeration."""
    return random_connected_graph(num_vertices, num_edges, rng=seed)


def random_terminals(graph: UncertainGraph, seed: int, k: int) -> list:
    """Pick ``k`` distinct terminals deterministically from ``seed``."""
    generator = random.Random(seed)
    return generator.sample(sorted(graph.vertices(), key=repr), k)
