"""Shared fixtures: the complex fleet and the suite-wide tripwire guard."""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from metricext import build_complex, make_point, tripwire_log
from metricext.generators import (
    cycle_complex,
    path_complex,
    random_complex,
    rips_complex,
    simplex_complex,
    tree_complex,
)


def all_faces(K):
    """Every face of K, by enumeration: each nonempty subset of each maximal simplex."""
    return frozenset(
        f for s in K.maximal_simplices for k in range(1, len(s) + 1) for f in combinations(s, k)
    )


def assert_spans_is_membership(K, up_to=4):
    """K.spans(t) == (t in all_faces(K)) for every sorted vertex subset t of at most up_to vertices.

    The empty tuple, an unknown label and a repeated pair are asked too.
    """
    faces = all_faces(K)
    for k in range(up_to + 1):
        for t in combinations(K.vertices, k):
            assert K.spans(t) == (t in faces), t
    for t in [("?",), (K.vertices[0], "?"), (K.vertices[0],) * 2]:
        assert not K.spans(t), t


def simplex_on_a_path(n, length):
    """One simplex on s00 .. s{n-1}, its last vertex glued to a path p01 .. p{length}."""
    simplex = [f"s{i:02d}" for i in range(n)]
    path = [simplex[-1]] + [f"p{i:02d}" for i in range(1, length + 1)]
    return build_complex(simplex + path[1:], [simplex, *zip(path, path[1:])])


def book_complex():
    """Two triangles glued along an edge, plus a pendant edge."""
    return build_complex(
        ["a", "b", "c", "d", "e"],
        [["a", "b", "c"], ["b", "c", "d"], ["d", "e"]],
    )


def strip_complex():
    """Three triangles glued in a strip."""
    return build_complex(
        ["a", "b", "c", "d", "e"],
        [["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]],
    )


def fleet():
    """Ten-plus generated complexes, all at most 40 vertices."""
    return {
        "tree23": tree_complex(2, 3),
        "tree32": tree_complex(3, 2),
        "path12": path_complex(12),
        "cycle9": cycle_complex(9),
        "cycle16": cycle_complex(16),
        "simplex3": simplex_complex(3),
        "rips_c8": rips_complex(cycle_complex(8), 2),
        "rips_p10": rips_complex(path_complex(10), 2),
        "random14": random_complex(14, 0.25, seed=3),
        "random20": random_complex(20, 0.18, seed=5),
        "book": book_complex(),
    }


POOL_COMPLEXES = {
    "rips_c30": lambda: rips_complex(cycle_complex(30), 2),
    "random80": lambda: random_complex(80, 0.08, seed=1),
    "tree2_9": lambda: tree_complex(2, 9),
    "tree2_11": lambda: tree_complex(2, 11),
    "rips_p40": lambda: rips_complex(path_complex(40), 3),
}


def pool_queries(workloads=("path-fleet", "hard-rips")):
    """The benchmark's fixed query pools (bench/pool.json, read only), with their complexes.

    Each complex is built when a query first needs it.
    """
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
    complexes = {}
    scale = pool["resolution"]
    for workload in workloads:
        for q in pool["workloads"][workload]["queries"]:
            name = q["complex"]
            if name not in complexes:
                complexes[name] = POOL_COMPLEXES[name]()
            K = complexes[name]
            x = make_point(K, {v: c / scale for v, c in q["x"].items()})
            y = make_point(K, {v: c / scale for v, c in q["y"].items()})
            yield q, K, x, y


@pytest.fixture(scope="session")
def complex_fleet():
    return fleet()


@pytest.fixture(scope="session")
def path3():
    return build_complex(["u", "v", "w"], [["u", "v"], ["v", "w"]])


@pytest.fixture(scope="session")
def triangle():
    return build_complex(["a", "b", "c"], [["a", "b", "c"]])


@pytest.fixture(scope="session")
def book():
    return book_complex()


@pytest.fixture(scope="session")
def strip():
    return strip_complex()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session", autouse=True)
def tripwire_guard():
    """No solver result may undercut a registered lower bound, suite-wide."""
    yield
    log = tripwire_log()
    assert not log.violations, log.violations
