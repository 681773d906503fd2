"""Per-edge Python oracles for the array-built constructions.

Each function here is the tuple-list form of a builder in ``src/``: the
Definition-18 graph, the balanced weight trees, the Definition-25
weighted construction and the induced subgraph.  They append one
``(u, v)`` tuple per edge and hand the list to ``Graph``; the builders in
``src/`` emit int64 endpoint arrays in exactly the same edge order, and
``test_construction_arrays.py`` asserts the CSR bytes, inputs and
metadata are identical.
"""

from collections import deque
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.constructions.lowerbound import LowerBoundGraph
from repro.constructions.weighted import WeightedInstance
from repro.lcl.weighted import ACTIVE, WEIGHT
from repro.local.graph import Graph


def build_lower_bound_graph_py(lengths: Sequence[int]) -> LowerBoundGraph:
    """Build the Definition-18 graph for ``lengths = (l_1, ..., l_k)``."""
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("need k >= 1 positive lengths")
    k = len(lengths)
    edges: List[Tuple[int, int]] = []
    intended: List[int] = []
    paths_by_level: Dict[int, List[List[int]]] = {i: [] for i in range(1, k + 1)}

    def new_path(length: int, level: int) -> List[int]:
        start = len(intended)
        handles = list(range(start, start + length))
        intended.extend([level] * length)
        edges.extend((handles[j], handles[j + 1]) for j in range(length - 1))
        paths_by_level[level].append(handles)
        return handles

    frontier = [new_path(lengths[k - 1], k)]
    for i in range(k - 1, 0, -1):
        next_frontier = []
        for path in frontier:
            for v in path:
                child = new_path(lengths[i - 1], i)
                edges.append((v, child[0]))
                next_frontier.append(child)
        frontier = next_frontier

    graph = Graph(len(intended), edges)
    return LowerBoundGraph(
        graph=graph,
        lengths=tuple(lengths),
        intended_level=intended,
        paths_by_level=paths_by_level,
    )


def weight_tree_edges_py(
    w: int, delta: int, root_handle: int, first_handle: int
) -> Tuple[List[Tuple[int, int]], int]:
    """Edges of a balanced ``delta``-regular tree with ``w`` nodes whose
    root attaches to ``root_handle``; returns ``(edges, next_free_handle)``."""
    if w <= 0:
        return [], first_handle
    if delta < 2:
        raise ValueError("delta must be >= 2")
    edges = [(root_handle, first_handle)]
    frontier = deque([first_handle])
    next_handle = first_handle + 1
    remaining = w - 1
    while remaining > 0:
        parent = frontier.popleft()
        for _ in range(delta - 1):
            if remaining == 0:
                break
            edges.append((parent, next_handle))
            frontier.append(next_handle)
            next_handle += 1
            remaining -= 1
    return edges, next_handle


def build_weighted_construction_py(
    lengths: Sequence[int],
    delta: int,
    weight_per_level: int,
) -> WeightedInstance:
    """Build Definition 25 from explicit core path lengths."""
    if delta < 3:
        raise ValueError("delta must be >= 3")
    core = build_lower_bound_graph_py(lengths)
    k = core.k
    edges: List[Tuple[int, int]] = list(core.graph.edges())
    next_handle = core.graph.n
    tree_of: Dict[int, List[int]] = {}

    for i in range(2, k + 1):
        targets = core.nodes_of_intended_level(i)
        if not targets or weight_per_level <= 0:
            continue
        per_node = weight_per_level // len(targets)
        extra = weight_per_level - per_node * len(targets)
        for idx, a in enumerate(targets):
            w = per_node + (1 if idx < extra else 0)
            if w == 0:
                continue
            first = next_handle
            tree_edges, next_handle = weight_tree_edges_py(w, delta, a, first)
            edges.extend(tree_edges)
            tree_of[a] = list(range(first, next_handle))

    n_total = next_handle
    inputs = [ACTIVE] * core.graph.n + [WEIGHT] * (n_total - core.graph.n)
    graph = Graph(n_total, edges, inputs)
    return WeightedInstance(graph=graph, core=core, delta=delta, tree_of=tree_of)


def induced_subgraph_py(
    graph: Graph, nodes: Iterable[int]
) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph; returns (subgraph, old->new node map)."""
    nodes = sorted(set(nodes))
    remap = {old: new for new, old in enumerate(nodes)}
    indptr, indices = graph.adjacency()
    edges = [
        (remap[u], remap[v])
        for u in nodes
        for v in indices[indptr[u]:indptr[u + 1]]
        if u < v and v in remap
    ]
    inputs = [graph.input_of(old) for old in nodes]
    return Graph(len(nodes), edges, inputs), remap
