"""Differential tests pinning the numpy solver passes to their per-node
Python oracles.

Every centralized solver pass (levels, the generic-phase path tracer,
rake-and-compress, the oriented fast decomposition) has one numpy
implementation in ``src/``; its node-at-a-time twin lives in
``solver_oracles.py``.  These tests call each pass and its oracle on the
same input and assert the results are *identical* — outputs, rounds,
layers, iteration counts — over a corpus of families, sizes (the empty
graph included), restrictions and pins.  The end-to-end tests swap every
pass of a solver for its oracle, or run the whole-function oracle, and
compare whole traces.
"""

import random

import numpy as np
import pytest

from repro.algorithms import generic_phases
from repro.algorithms.fast_decomposition import (
    _oriented_decomposition,
    run_fast_dfree,
)
from repro.algorithms.generic_phases import (
    _alive_level_paths,
    run_generic_fast_forward,
)
from repro.algorithms.rake_compress import (
    rake_compress,
    validate_decomposition,
)
from repro.families import get_family
from repro.lcl.dfree import A_INPUT, W_INPUT
from repro.lcl.levels import compute_levels
from repro.local import Graph, random_ids
from repro.local import vec

from solver_oracles import (
    alive_level_paths_py,
    compute_levels_py,
    oriented_decomposition_py,
    rake_compress_py,
    run_fast_dfree_py,
)

TREEISH = ("path", "random_tree", "bounded_tree_d3", "caterpillar",
           "spider", "fragmented_forest")
ALL_SHAPES = TREEISH + ("cycle", "star", "grid", "complete_binary_tree")


def instances(families, sizes, seed):
    """``(family, n, graph)``: the empty graph, then each family and size.

    No sweep ever sends ``n = 0`` through a solver, so it leads every
    corpus here."""
    yield "empty", 0, Graph(0, [])
    for family in families:
        for n in sizes:
            yield family, n, get_family(family).instance(n, seed, 0)


def with_oracles(monkeypatch, fn):
    """Run ``fn()`` on the numpy passes, then again with the generic-phase
    passes swapped for their oracles; return both.  Fails unless every
    swapped-in oracle actually ran, so a renamed or bypassed pass cannot
    turn the comparison into a self-comparison."""
    fast = fn()
    calls = {}

    def counted(name, oracle):
        def run(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return oracle(*args, **kwargs)
        monkeypatch.setattr(generic_phases, name, run)

    counted("compute_levels", compute_levels_py)
    counted("_alive_level_paths", alive_level_paths_py)
    slow = fn()
    assert set(calls) == {"compute_levels", "_alive_level_paths"}, calls
    return fast, slow


class TestMemberPaths:
    @pytest.mark.parametrize("family", TREEISH)
    def test_matches_degree_filtered_components(self, family):
        # member_paths must return components ascending by smallest
        # member, each ordered from its smaller endpoint
        rng = random.Random(7)
        for n in (1, 2, 17, 120):
            g = get_family(family).instance(n, 23, 0)
            for frac in (1.0, 0.5, 0.15):
                member = [rng.random() < frac for _ in range(g.n)]
                try:
                    paths = vec.member_paths(g, _np_bool(member))
                except ValueError:
                    # some member node has >2 member neighbours; verify
                    induced = _induced_degrees_py(g, member)
                    assert max(induced[v] for v in range(g.n)
                               if member[v]) > 2
                    continue
                seen = set()
                for path in paths:
                    for u in path:
                        assert member[u]
                        assert u not in seen
                        seen.add(u)
                    for a, b in zip(path, path[1:]):
                        assert b in g.neighbors(a)
                    if len(path) > 1:
                        assert path[0] <= path[-1]
                assert seen == {v for v in range(g.n) if member[v]}
                firsts = [min(p) for p in paths]
                assert firsts == sorted(firsts)

    def test_raises_on_non_path_component(self):
        g = get_family("star").instance(6, 0, 0)
        with pytest.raises(ValueError):
            vec.member_paths(g, _np_bool([True] * g.n))


def _np_bool(mask):
    return np.asarray(mask, dtype=bool)


def _induced_degrees_py(g, member):
    return [
        sum(1 for w in g.neighbors(v) if member[w]) for v in range(g.n)
    ]


class TestLevelsParity:
    @pytest.mark.parametrize("family", ALL_SHAPES)
    def test_full_graph(self, family):
        for _, n, g in instances((family,), (1, 2, 16, 90, 300), 5):
            for k in (1, 2, 4):
                assert compute_levels(g, k) == compute_levels_py(g, k), (
                    family, n, k)

    def test_restrict(self):
        rng = random.Random(3)
        for family, _, g in instances(TREEISH, (150,), 9):
            restrict = [v for v in range(g.n) if rng.random() < 0.6]
            assert compute_levels(g, 3, restrict) == compute_levels_py(
                g, 3, restrict), family


class TestGenericPhasesParity:
    def test_alive_level_paths(self):
        rng = random.Random(11)
        for family, n, g in instances(TREEISH, (1, 2, 40, 250), 13):
            levels = compute_levels(g, 3)
            for frac in (1.0, 0.6):
                alive = [rng.random() < frac for _ in range(g.n)]
                for i in range(1, 5):
                    assert _alive_level_paths(
                        g, levels, alive, i
                    ) == alive_level_paths_py(g, levels, alive, i), (
                        family, n, frac, i)

    @pytest.mark.parametrize("variant", ["2.5", "3.5"])
    def test_full_trace(self, variant, monkeypatch):
        families = ("path", "random_tree", "caterpillar", "fragmented_forest")
        for family, n, g in instances(families, (2, 40, 250), 13):
            ids = random_ids(g.n, rng=random.Random(n)) if g.n else []
            a, b = with_oracles(monkeypatch, lambda: run_generic_fast_forward(
                g, ids, 3, [3, 5], variant))
            monkeypatch.undo()
            assert a.rounds == b.rounds, (family, n, variant)
            assert a.outputs == b.outputs, (family, n, variant)

    def test_restrict_and_offset(self, monkeypatch):
        g = get_family("random_tree").instance(200, 4, 0)
        ids = random_ids(g.n, rng=random.Random(8))
        restrict = [v for v in range(g.n) if v % 3 != 0]
        a, b = with_oracles(monkeypatch, lambda: run_generic_fast_forward(
            g, ids, 3, [3, 5], "2.5", restrict=restrict, time_offset=7))
        assert a.rounds == b.rounds
        assert a.outputs == b.outputs


class TestRakeCompressParity:
    @pytest.mark.parametrize("gamma,ell", [(1, 2), (1, 3), (2, 2), (3, 4)])
    def test_decomposition_identical(self, gamma, ell):
        rng = random.Random(gamma * 10 + ell)
        for family, n, g in instances(TREEISH, (1, 2, 30, 200), 2):
            # pin at most one node: pinning both endpoints of a 2-node
            # component would (correctly) stall either implementation
            pinned = [rng.randrange(g.n)] if g.n > 2 else []
            a = rake_compress(g, gamma, ell, pinned=pinned)
            b = rake_compress_py(g, gamma, ell, pinned=pinned)
            assert a.layer_of == b.layer_of, (family, n)
            assert a.compress_paths == b.compress_paths, (family, n)
            assert a.num_iterations == b.num_iterations, (family, n)
            assert validate_decomposition(a) == []


class TestFastDecompositionParity:
    def test_oriented_decomposition(self):
        rng = random.Random(3)
        for family, n, g in instances(TREEISH, (1, 2, 8, 50, 300), 17):
            if not g.is_forest():
                continue
            for frac in (1.0, 0.7, 0.3):
                members = {v for v in range(g.n) if rng.random() < frac}
                mask = np.zeros(g.n, dtype=bool)
                mask[sorted(members)] = True
                parent, iter_of, iters = _oriented_decomposition(g, mask)
                b_parent, b_iter, b_iters = oriented_decomposition_py(
                    g, set(members))
                assert iters == b_iters, (family, n, frac)
                for v in range(g.n):
                    if v in members:
                        p = None if parent[v] < 0 else int(parent[v])
                        assert p == b_parent[v], (family, n, frac, v)
                        assert iter_of[v] == b_iter[v], (family, n, frac, v)
                    else:
                        assert parent[v] == -1 and iter_of[v] == 0

    def test_run_fast_dfree_end_to_end(self):
        for seed in range(6):
            rng = random.Random(seed)
            g = get_family("bounded_tree_d3").instance(
                rng.randint(3, 400), seed, 0)
            inputs = [
                A_INPUT if rng.random() < 0.1 else W_INPUT
                for _ in range(g.n)
            ]
            gi = g.with_inputs(inputs)
            a, b = run_fast_dfree(gi, 3), run_fast_dfree_py(gi, 3)
            assert a.outputs == b.outputs
            assert a.rounds == b.rounds
            assert a.copy_component_of == b.copy_component_of
            assert a.iterations == b.iterations


class TestCsrArrays:
    def test_csr_arrays_zero_copy(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices = vec.csr_arrays(g)
        assert indptr.tolist() == list(g.adjacency()[0])
        assert indices.tolist() == list(g.adjacency()[1])
