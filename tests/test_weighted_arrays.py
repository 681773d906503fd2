"""The array-built Theorem-2/5 pipeline against its per-node oracles.

The constructions (Definitions 18 and 25), ``Graph.induced_subgraph``,
the fast d-free solver, the weighted solvers' weight-side glue and the
Cole–Vishkin kernel each have one implementation in ``src/``; their
tuple-list and per-node forms live in ``construction_oracles.py`` and
``solver_oracles.py``.  Every test here asserts *identical* results:
CSR bytes and inputs for builders, and the whole ``ExecutionTrace``
(rounds, outputs, meta) plus ``copy_component_of`` for solvers.

The corpus deliberately leaves the benchmark family: in
``weighted35_d6k2`` every weight component is a 4-node tree with one
A-node, so Connect marking, Copy components deeper than one node and
A-nodes whose spans meet earlier Declines never occur there.  Dense
random A-inputs on bounded and complete binary trees reach the first
two (``test_corpus_reaches_connects_and_deep_copy_components`` checks
that); the third needs a Copy chain four levels deep and is built by
hand in ``test_earlier_border_declines_shrink_a_later_budget``.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from construction_oracles import (
    build_lower_bound_graph_py,
    build_weighted_construction_py,
    induced_subgraph_py,
    weight_tree_edges_py,
)
from repro.algorithms import generic_phases, run_apoly, run_weighted35
from repro.algorithms.fast_decomposition import run_fast_dfree
from repro.algorithms.symmetry_breaking import (
    ColeVishkin3Coloring,
    cv_total_rounds,
    three_color_path,
)
from repro.constructions import (
    build_lower_bound_graph,
    build_weighted_construction,
    weight_tree_edges,
)
from repro.families import get_family
from repro.lcl.dfree import A_INPUT, CONNECT, DECLINE, W_INPUT
from repro.lcl.weighted import ACTIVE, WEIGHT
from repro.local import (
    Graph,
    LocalSimulator,
    balanced_tree,
    cycle_graph,
    path_graph,
    random_ids,
)
from repro.parallel import stable_digest
from repro.sweep import SweepRunner
from solver_oracles import (
    run_fast_dfree_py,
    run_weighted35_py,
    run_weighted_solver_py,
    three_color_path_py,
)

TREES = ("random_tree", "bounded_tree_d3", "caterpillar", "spider",
         "fragmented_forest", "path")


def same_graph(a: Graph, b: Graph) -> None:
    assert (a.n, a.m) == (b.n, b.m)
    assert bytes(a.adjacency()[0]) == bytes(b.adjacency()[0])
    assert bytes(a.adjacency()[1]) == bytes(b.adjacency()[1])
    assert a.inputs() == b.inputs()


def as_lists(mapping):
    return {key: [list(p) for p in value] if isinstance(value, list)
            else list(value) for key, value in mapping.items()}


# ----------------------------------------------------------------------
# constructions
# ----------------------------------------------------------------------
LENGTHS = ([1], [9], [2, 1], [1, 5], [4, 5], [5, 7], [3, 4, 5],
           [2, 2, 2, 3], [6, 6, 8])


@pytest.mark.parametrize("lengths", LENGTHS)
def test_lower_bound_graph_matches_oracle(lengths):
    a, b = build_lower_bound_graph(lengths), build_lower_bound_graph_py(lengths)
    same_graph(a.graph, b.graph)
    assert a.lengths == b.lengths
    assert a.intended_level == b.intended_level
    assert as_lists(a.paths_by_level) == b.paths_by_level
    assert list(a.paths_by_level) == list(b.paths_by_level)


@pytest.mark.parametrize("lengths", LENGTHS)
@pytest.mark.parametrize("delta", [3, 5, 6, 7])
def test_weighted_construction_matches_oracle(lengths, delta):
    # weights that divide the level evenly, leave a remainder, or are
    # fewer than the targets (some targets get no tree)
    for per_level in (0, 1, 7, 50, 333):
        a = build_weighted_construction(lengths, delta, per_level)
        b = build_weighted_construction_py(lengths, delta, per_level)
        same_graph(a.graph, b.graph)
        assert as_lists(a.tree_of) == b.tree_of
        assert list(a.tree_of) == list(b.tree_of)
        assert a.delta == b.delta


@pytest.mark.parametrize("w,delta,root,first", [
    (0, 4, 0, 1), (1, 2, 5, 9), (7, 4, 99, 100), (40, 3, 0, 1),
    (200, 6, 17, 300),
])
def test_weight_tree_edges_match_oracle(w, delta, root, first):
    edges, nxt = weight_tree_edges(w, delta, root, first)
    oracle, oracle_nxt = weight_tree_edges_py(w, delta, root, first)
    assert [tuple(e) for e in edges.tolist()] == oracle
    assert nxt == oracle_nxt


@pytest.mark.parametrize("family", TREES + ("cycle", "grid", "star"))
def test_induced_subgraph_matches_oracle(family):
    rng = random.Random(family)
    for n in (1, 2, 10, 300):
        g = get_family(family).instance(n, 0, 0)
        g = g.with_inputs([rng.randrange(3) for _ in range(g.n)])
        for frac in (0.0, 0.3, 1.0):
            nodes = [v for v in range(g.n) if rng.random() < frac]
            a, remap = g.induced_subgraph(nodes + nodes[:3])
            b, oracle_remap = induced_subgraph_py(g, nodes)
            same_graph(a, b)
            assert remap == oracle_remap


# ----------------------------------------------------------------------
# the fast d-free solver
# ----------------------------------------------------------------------
def dfree_instance(family, n, seed, a_frac):
    rng = random.Random(seed)
    g = get_family(family).instance(n, seed, 0)
    return g.with_inputs([
        A_INPUT if rng.random() < a_frac else W_INPUT for _ in range(g.n)
    ])


def assert_same_solution(a, b):
    assert a.outputs == b.outputs
    assert a.rounds == b.rounds
    assert a.copy_component_of == b.copy_component_of
    assert list(a.copy_component_of) == list(b.copy_component_of)
    assert a.iterations == b.iterations
    assert a.as_trace().meta == b.as_trace().meta


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(TREES), n=st.integers(1, 300),
       seed=st.integers(0, 10**6), a_frac=st.sampled_from([0.05, 0.3, 0.6, 1.0]),
       d=st.integers(2, 4))
def test_fast_dfree_matches_oracle_on_dense_inputs(family, n, seed, a_frac, d):
    g = dfree_instance(family, n, seed, a_frac)
    assert_same_solution(run_fast_dfree(g, d), run_fast_dfree_py(g, d))


def test_corpus_reaches_connects_and_deep_copy_components():
    connects = deep = 0
    for seed in range(30):
        family = (TREES[:4] + ("complete_binary_tree",))[seed % 5]
        g = dfree_instance(family, 300, seed, (0.02, 0.1, 0.3)[seed % 3])
        sol = run_fast_dfree(g, 3)
        assert_same_solution(sol, run_fast_dfree_py(g, 3))
        connects += sol.outputs.count(CONNECT)
        deep += sum(1 for comp in sol.copy_component_of.values()
                    if len(comp) > 1)
        # Observation 39: one A-node per Copy component.  A second A-node
        # in a span is either raked earlier (so already Copy) or adjacent
        # (so Connect), which is why the pending loop never swallows one
        for v, comp in sol.copy_component_of.items():
            assert [u for u in comp if g.input_of(u) == A_INPUT] == [v]
    assert connects > 0
    assert deep > 0


def test_earlier_border_declines_shrink_a_later_budget():
    # The pending loop's order matters only through Declines an earlier
    # A-node leaves behind.  In a balanced ternary tree (pure rake, so
    # the orientation is the tree's own) with d = 2, the root's Copy
    # chain keeps the last child at every level: 0, 3, 12, 39, 120.
    # A-node 1084 sits below 361, the first child of 120; it is raked
    # earlier and declines its parent 361 as a border.  At 120 that
    # Decline counts in pre(120), so 120 may decline only one of its two
    # remaining children and keeps 363.
    g = balanced_tree(3, 8)
    inputs = [W_INPUT] * g.n
    inputs[0] = inputs[1084] = A_INPUT
    g = g.with_inputs(inputs)
    sol = run_fast_dfree(g, 2)
    assert_same_solution(sol, run_fast_dfree_py(g, 2))
    assert sol.outputs[361] == DECLINE
    assert [0, 3, 12, 39, 120, 363] == sol.copy_component_of[0][:6]


def test_fast_dfree_edge_cases():
    for g in (Graph(0, []), Graph(1, [], [A_INPUT]), Graph(1, [], [W_INPUT]),
              path_graph(2, [A_INPUT, A_INPUT]),
              path_graph(7, [A_INPUT] + [W_INPUT] * 5 + [A_INPUT])):
        assert_same_solution(run_fast_dfree(g, 2), run_fast_dfree_py(g, 2))
    with pytest.raises(ValueError, match="node 1 has input"):
        run_fast_dfree(path_graph(2, [A_INPUT, "X"]), 3)


# ----------------------------------------------------------------------
# the weighted solvers, whole traces
# ----------------------------------------------------------------------
def with_cv_oracle(fn):
    """``fn()`` with the generic phases' Cole–Vishkin kernel swapped for
    the per-node path oracle; returns the result and how many times the
    oracle ran."""
    calls = []

    def oracle(id_paths, space):
        calls.append(len(id_paths))
        return ([three_color_path_py(p, space)[0] for p in id_paths],
                cv_total_rounds(space))

    with mock.patch.object(generic_phases, "three_color_paths", oracle):
        return fn(), len(calls)


def assert_same_trace(a, b):
    assert a.rounds == b.rounds
    assert a.outputs == b.outputs
    assert a.meta == b.meta
    assert a.algorithm == b.algorithm


def weight_side(graph):
    """The d-free instance the weighted solvers hand their weight side."""
    inputs = graph.inputs()
    weight = [v for v in range(graph.n) if inputs[v] == WEIGHT]
    sub, remap = induced_subgraph_py(graph, weight)
    return sub.with_inputs([
        A_INPUT if any(inputs[w] == ACTIVE for w in graph.neighbors(old))
        else W_INPUT for old in remap
    ])


def check_weighted35(graph, delta, d, k, seed=0):
    """Compare traces and the weight side's solution; return how many
    times the Cole–Vishkin oracle ran."""
    ids = random_ids(graph.n, rng=random.Random(seed))
    fast = run_weighted35(graph, ids, delta, d, k)
    slow, cv_calls = with_cv_oracle(
        lambda: run_weighted35_py(graph, ids, delta, d, k))
    assert_same_trace(fast, slow)
    sub = weight_side(graph)
    assert_same_solution(run_fast_dfree(sub, d, delta),
                         run_fast_dfree_py(sub, d, delta))
    return cv_calls


def random_weighted_tree(family, n, seed, active_frac):
    rng = random.Random(seed)
    g = get_family(family).instance(n, seed, 0)
    return g.with_inputs([
        ACTIVE if rng.random() < active_frac else WEIGHT for _ in range(g.n)
    ])


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(TREES), n=st.integers(2, 250),
       seed=st.integers(0, 10**6),
       active_frac=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
       k=st.integers(1, 3))
def test_weighted35_matches_oracle_on_random_trees(
        family, n, seed, active_frac, k):
    g = random_weighted_tree(family, n, seed, active_frac)
    check_weighted35(g, 6, 3, k, seed)


@pytest.mark.parametrize("active_frac", [0.0, 1.0])
def test_weighted35_one_sided(active_frac):
    # an empty active side, then an empty weight side
    g = random_weighted_tree("bounded_tree_d3", 300, 4, active_frac)
    check_weighted35(g, 7, 3, 2)


@pytest.mark.parametrize("lengths,delta,per_level", [
    ([3, 4, 5], 6, 333),   # k = 3
    ([4, 9], 6, 777),      # uneven tree sizes
    ([5, 6], 7, 1001),
    ([2, 3, 3, 4], 7, 250),
])
def test_weighted35_constructions(lengths, delta, per_level):
    wi = build_weighted_construction(lengths, delta, per_level)
    check_weighted35(wi.graph, delta, 3, len(lengths), seed=delta)


@pytest.mark.parametrize("lengths,per_level", [([4, 9], 101), ([3, 4, 5], 250)])
def test_delta5_constructions(lengths, per_level):
    # Theorem 5 needs delta >= 6; at delta 5 the weighted solver is A_poly
    # (d = 2), and the fast solver still runs on the weight side
    wi = build_weighted_construction(lengths, 5, per_level)
    k = len(lengths)
    ids = random_ids(wi.n, rng=random.Random(k))
    assert_same_trace(run_apoly(wi.graph, ids, 5, 2, k),
                      run_weighted_solver_py(wi.graph, ids, 5, 2, k, "2.5"))
    sub = weight_side(wi.graph)
    assert_same_solution(run_fast_dfree(sub, 2, 5), run_fast_dfree_py(sub, 2, 5))


def test_weighted35_benchmark_family():
    g = get_family("weighted35_d6k2").instance(3000, 0, 0)
    assert check_weighted35(g, 6, 3, 2) > 0


@pytest.mark.parametrize("source", ["family", "random"])
def test_weighted25_matches_oracle(source):
    if source == "family":
        g = get_family("weighted25_d5k2").instance(3000, 0, 0)
    else:
        g = random_weighted_tree("bounded_tree_d3", 400, 9, 0.4)
    ids = random_ids(g.n, rng=random.Random(2))
    assert_same_trace(run_apoly(g, ids, 5, 2, 2),
                      run_weighted_solver_py(g, ids, 5, 2, 2, "2.5"))


# ----------------------------------------------------------------------
# Cole–Vishkin with IDs beyond int64
# ----------------------------------------------------------------------
def big_ids(m, low, seed):
    """``m`` distinct IDs from ``[low, low + 10^12)`` in draw order."""
    rng = random.Random(seed)
    ids = []
    while len(ids) < m:
        x = low + rng.randrange(10**12)
        if x not in ids:
            ids.append(x)
    return ids


@pytest.mark.parametrize("low", [2**63, 2**64 - 10**13, 2**200])
@pytest.mark.parametrize("m", [1, 2, 3, 9, 40])
def test_three_color_path_beyond_int64(low, m):
    ids = big_ids(m, low, m)
    space = 2 * low
    assert three_color_path(ids, space) == three_color_path_py(ids, space)


@pytest.mark.parametrize("make", [path_graph, cycle_graph])
@pytest.mark.parametrize("m", [3, 8])
def test_batched_cole_vishkin_beyond_int64(make, m):
    g = make(m)
    ids = big_ids(m, 2**64, m)
    # an ID space of m^40 > 2^64 covers the IDs
    batched = LocalSimulator(engine="batched").run(
        g, ColeVishkin3Coloring(id_exponent=40), ids)
    reference = LocalSimulator(engine="reference").run(
        g, ColeVishkin3Coloring(id_exponent=40), ids)
    assert batched.outputs == reference.outputs
    assert batched.rounds == reference.rounds


def test_cole_vishkin_names_the_bound_without_a_step():
    # an ID space of at most 5 schedules no CV step, which the big IDs need
    with pytest.raises(ValueError, match="2\\*\\*63"):
        three_color_path([2**63, 2**63 + 1], 5)


# ----------------------------------------------------------------------
# pinned outputs
# ----------------------------------------------------------------------
STALE_STORE = (
    "the weighted construction or its solver output changed. Store keys "
    "do not include the builder or solver code, so a warm store would "
    "serve results computed by the old code: bump repro.store.CODE_SALT "
    "in the same change and update this digest."
)


def instance_digest(name, n):
    g = get_family(name).instance(n, 0, 0)
    indptr, indices = g.adjacency()
    return stable_digest(g.n, g.m, bytes(indptr), bytes(indices), g.inputs())


def sweep_digest(family, algorithm, n):
    text = SweepRunner(workers=1, samples=2, check=True).run_json(
        [family], [n], [algorithm], seed=0)
    return stable_digest(text)


@pytest.mark.parametrize("what,compute,digest", [
    ("weighted35_d6k2 n=1e5",
     lambda: instance_digest("weighted35_d6k2", 10**5), "53705c05491e165a"),
    ("weighted25_d5k2 n=1e5",
     lambda: instance_digest("weighted25_d5k2", 10**5), "48c81272a9ae2d01"),
    ("weighted35_ff sweep n=3000",
     lambda: sweep_digest("weighted35_d6k2", "weighted35_ff", 3000),
     "002db47a94688d7b"),
    ("weighted25_ff sweep n=3000",
     lambda: sweep_digest("weighted25_d5k2", "weighted25_ff", 3000),
     "6a7cb7c27624d620"),
])
def test_weighted_outputs_are_pinned(what, compute, digest):
    assert compute() == digest, f"{what}: {STALE_STORE}"
