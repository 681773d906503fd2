"""Tests for the lower-bound constructions (Definitions 18 and 25)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.constructions import (
    build_lower_bound_graph,
    build_weighted_construction,
    caterpillar,
    paper_lengths,
    random_tree,
    weight_tree_edges,
)
from repro.lcl import ACTIVE, WEIGHT, compute_levels
from repro.local import Graph


class TestLowerBoundGraph:
    def test_size_is_product_sum(self):
        lb = build_lower_bound_graph([3, 4, 5])
        # level-3 path: 5; level-2: 5*4; level-1: 5*4*3
        assert lb.graph.n == 5 + 20 + 60
        assert lb.graph.is_tree()

    def test_corollary19_level_sizes(self):
        # |L_i| = Theta(prod_{j>=i} l_j)
        lengths = [4, 5, 6]
        lb = build_lower_bound_graph(lengths)
        for i in (1, 2, 3):
            expected = math.prod(lengths[i - 1 :])
            got = len(lb.nodes_of_intended_level(i))
            assert got == expected

    def test_peeled_levels_match_up_to_leaks(self):
        lb = build_lower_bound_graph([6, 6, 8])
        levels = compute_levels(lb.graph, 3)
        mism = sum(
            1 for v in lb.graph.nodes() if levels[v] != lb.intended_level[v]
        )
        # boundary leaks are O(1) per path
        total_paths = sum(len(p) for p in lb.paths_by_level.values())
        assert mism <= 2 * total_paths

    def test_paths_in_order(self):
        lb = build_lower_bound_graph([5, 7])
        for i, paths in lb.paths_by_level.items():
            for p in paths:
                for a, b in zip(p, p[1:]):
                    assert b in lb.graph.neighbors(a)

    def test_k1_is_just_a_path(self):
        lb = build_lower_bound_graph([9])
        assert lb.graph.n == 9
        assert lb.graph.max_degree() == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_lower_bound_graph([])

    def test_max_degree_bounded(self):
        lb = build_lower_bound_graph([4, 4, 4])
        # interior of a level path: 2 path nbrs + 1 pendant + 1 up-link
        assert lb.graph.max_degree() <= 4


class TestPaperLengths:
    def test_poly_lengths_product(self):
        lens = paper_lengths(10_000, [0.25, 0.4], "poly")
        assert len(lens) == 3
        assert all(l >= 2 for l in lens)
        assert math.prod(lens) == pytest.approx(10_000, rel=0.5)

    def test_logstar_lengths_small(self):
        lens = paper_lengths(10_000, [0.5], "logstar")
        # (log* 10^4)^0.5 ~ 2
        assert lens[0] <= 4
        assert lens[1] >= 1000

    def test_bad_regime(self):
        with pytest.raises(ValueError):
            paper_lengths(100, [0.5], "exp")


class TestWeightTree:
    def test_edge_count_and_handles(self):
        edges, nxt = weight_tree_edges(7, 4, root_handle=99, first_handle=100)
        assert len(edges) == 7
        assert nxt == 107
        assert tuple(edges[0]) == (99, 100)

    def test_zero_weight(self):
        edges, nxt = weight_tree_edges(0, 4, 0, 1)
        assert edges.shape == (0, 2) and nxt == 1

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=3, max_value=6))
    def test_degree_budget(self, w, delta):
        edges, nxt = weight_tree_edges(w, delta, 0, 1)
        g = Graph.from_arrays(nxt, edges[:, 0], edges[:, 1])
        # tree nodes have at most delta-1 children + 1 parent = delta
        for v in range(1, nxt):
            assert g.degree(v) <= delta


class TestWeightedConstruction:
    def test_input_partition(self):
        wi = build_weighted_construction([4, 5], 5, weight_per_level=50)
        inputs = wi.graph.inputs()
        assert inputs.count(ACTIVE) == wi.core.graph.n
        assert inputs.count(WEIGHT) == wi.n - wi.core.graph.n

    def test_weight_total(self):
        k = 3
        wi = build_weighted_construction([3, 4, 5], 5, weight_per_level=60)
        # levels 2..k get 60 each
        assert len(wi.weight_nodes()) == 60 * (k - 1)

    def test_trees_attach_to_level_ge_2(self):
        wi = build_weighted_construction([4, 5], 5, weight_per_level=40)
        for a in wi.tree_of:
            assert wi.core.intended_level[a] >= 2

    def test_even_distribution(self):
        wi = build_weighted_construction([4, 6], 5, weight_per_level=60)
        lvl2 = [a for a in wi.tree_of if wi.core.intended_level[a] == 2]
        sizes = [len(wi.tree_of[a]) for a in lvl2]
        assert max(sizes) - min(sizes) <= 1

    def test_is_tree(self):
        wi = build_weighted_construction([3, 4], 5, weight_per_level=33)
        assert wi.graph.is_tree()


class TestGenerators:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=10**6))
    def test_random_tree_is_tree(self, n, seed):
        g = random_tree(n, 4, random.Random(seed))
        assert g.is_tree()
        assert g.max_degree() <= 4

    def test_caterpillar_shape(self):
        g = caterpillar(5, 2)
        assert g.n == 5 + 10
        assert g.degree(0) == 3  # spine end: 1 spine + 2 legs
        assert g.degree(2) == 4
