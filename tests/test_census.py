"""A census: every connected flag complex on 2-5 vertices, every pair of its 1/4 grid."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from scipy.sparse.csgraph import shortest_path

from metricext import (
    ExtendedMetric,
    bilinear_extension,
    build_complex,
    build_grid,
    l1_path_distance,
    lower_bounds,
    make_point,
    word_vertex_metric,
)
from metricext.generators import _cliques

from conftest import assert_closed_form_bounds_are_the_lower_bounds, assert_costs_decompose, two_direction_bounds

GRID = 4  # the census's resolution: every weight a multiple of 1/4


def connected_graphs(n: int) -> list[list[tuple[int, int]]]:
    """The connected graphs on vertices 0 .. n-1, one per isomorphism class, as edge lists.

    A graph is an edge mask over the pairs i < j; each class is listed by
    its least mask, found by brute force over the vertex permutations.
    """
    pairs = list(combinations(range(n), 2))
    bit = {p: k for k, p in enumerate(pairs)}
    # each permutation as the image bit of every pair's bit
    images = [[bit[tuple(sorted((p[i], p[j])))] for i, j in pairs] for p in permutations(range(n))]
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        least = all(sum(1 << image[k] for k in range(len(pairs)) if mask >> k & 1) >= mask for image in images)
        if least and _connected(n, edges):
            out.append(edges)
    return out


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    reached = {0}
    for _ in range(n):
        reached |= {j for i, j in edges if i in reached} | {i for i, j in edges if j in reached}
    return len(reached) == n


def census_complexes():
    """(name, complex) of every connected flag complex on 2-5 vertices, up to isomorphism."""
    for n in range(2, 6):
        labels = [f"v{i}" for i in range(n)]
        for k, edges in enumerate(connected_graphs(n)):
            cliques = [[labels[i] for i in c] for c in _cliques(n, edges, n)]
            yield f"n{n}-{k}", build_complex(labels, cliques)


def test_connected_graph_counts():
    # OEIS A001349: connected graphs on 2, 3, 4 and 5 unlabelled vertices
    assert [len(connected_graphs(n)) for n in range(2, 6)] == [1, 2, 6, 21]


def census_grids():
    """(name, complex, its 1/4 grid's points, their hop counts) of every census complex."""
    for name, K in census_complexes():
        grid = build_grid(K, GRID)
        hops = shortest_path(grid.graph, unweighted=True)
        yield name, K, [make_point(K, {v: c / GRID for v, c in node}) for node in grid.nodes], hops


def test_every_grid_pair_of_every_small_complex():
    """The path metric is the grid's hop count / 4 and symmetric bit for bit, and D answers disjoint pairs."""
    pairs, worst = 0, Fraction(0)
    for name, K, points, hops in census_grids():
        vm = word_vertex_metric(K)
        M = ExtendedMetric(K, vm)
        for i, j in combinations(range(len(points)), 2):
            x, y = points[i], points[j]
            path = l1_path_distance(K, x, y).value
            assert abs(path - hops[i, j] / GRID) <= 1e-9, (name, x, y)
            assert l1_path_distance(K, y, x).value == path, (name, x, y)
            D = bilinear_extension(vm, x, y)
            assert bilinear_extension(vm, y, x) == D, (name, x, y)
            if not set(x.ids) & set(y.ids):
                assert M.distance_with_branch(x, y) == (D, "bilinear"), (name, x, y)
                worst = max(worst, Fraction(D) / (Fraction(vm.C) * Fraction(path)))
            pairs += 1
    assert pairs == 12_973
    # the theorem's factor 3 is never needed on disjoint supports here: the largest ratio is 5/4
    assert worst < 3


def test_the_word_transport_lies_between_the_bounds_it_replaced_and_the_grid():
    """On every grid pair the transport bound is at most the path, and at least every bound it replaced."""
    pairs = stronger = 0
    for name, K, points, hops in census_grids():
        for i, j in combinations(range(len(points)), 2):
            x, y = points[i], points[j]
            bounds = lower_bounds(K, x, y)
            transport = bounds[-1][1]
            assert transport <= hops[i, j] / GRID, (name, x, y)
            assert transport >= max(b for _, b in bounds)
            replaced = max(b for _, b in two_direction_bounds(K, x, y))
            assert transport >= replaced - 1e-12, (name, x, y)  # but for the sphere bound's float sums
            stronger += transport > replaced + 1e-12
            pairs += 1
    assert pairs == 12_973 and stronger > 0


def test_closed_form_bounds_are_the_lower_bounds(monkeypatch):
    """Every common-simplex and two-vertex grid pair is checked against `lower_bounds`, entry for entry."""
    pairs = [(K, x, y) for _, K, points, _ in census_grids() for x, y in combinations(points, 2)]
    assert assert_closed_form_bounds_are_the_lower_bounds(monkeypatch, pairs) == 8_642


def test_every_word_block_and_chain_cost_decomposes():
    """Every grid pair's word block splits by its column minima, and every chain answer's DP costs by their row minima."""
    pairs = [(K, x, y) for _, K, points, _ in census_grids() for x, y in combinations(points, 2)]
    assert assert_costs_decompose(pairs) == (12_973, 1_909)
