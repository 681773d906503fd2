"""Tree builders: weight trees, random trees, caterpillars.

:func:`weight_forest_edges` realizes the paper's "balanced Delta-regular tree
of w weight nodes attached to an active node" (Lemma 23): the root hangs off
the active node, every weight node has at most ``delta - 1`` children, and
levels fill breadth-first so the tree is as balanced as ``w`` allows.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from ..local.graph import Graph
from ..parallel import stable_seed

__all__ = [
    "weight_forest_edges",
    "weight_tree_edges",
    "random_tree",
    "caterpillar",
    "random_forest_inputs",
]


def weight_forest_edges(
    roots, sizes, delta: int, first_handle: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Edges of one balanced ``delta``-regular weight tree per root.

    Tree ``t`` has ``sizes[t] >= 1`` nodes and hangs off ``roots[t]``;
    the trees take consecutive handle blocks from ``first_handle`` on.
    Inside a tree, handles follow breadth-first order, so the node at
    offset ``j >= 1`` is a child of the node at offset
    ``(j - 1) // (delta - 1)`` and every node gets at most ``delta - 1``
    children.  Edges are ``(parent, child)`` int64 endpoint arrays in
    child-handle order (each tree's root edge first).  Returns
    ``(edge_u, edge_v, next_free_handle)``.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    roots = np.asarray(roots, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    starts = first_handle + np.concatenate(
        ([0], np.cumsum(sizes)[:-1])
    ).astype(np.int64)
    child = np.arange(first_handle, first_handle + total, dtype=np.int64)
    tree_start = np.repeat(starts, sizes)
    parent = tree_start + (child - tree_start - 1) // (delta - 1)
    parent[starts - first_handle] = roots
    return parent, child, first_handle + total


def weight_tree_edges(
    w: int, delta: int, root_handle: int, first_handle: int
) -> Tuple[np.ndarray, int]:
    """Edges of a balanced ``delta``-regular tree with ``w`` nodes whose
    root attaches to ``root_handle``.

    New nodes take handles ``first_handle, first_handle+1, ...``; the root
    of the weight tree is ``first_handle`` (edge to ``root_handle``
    included).  Every node gets at most ``delta - 1`` children, so the
    attached node's degree budget is respected.  Returns ``(edges,
    next_free_handle)`` with ``edges`` an int64 ``(w, 2)`` array of
    ``(parent, child)`` rows (see :func:`weight_forest_edges`).
    """
    if w <= 0:
        return np.empty((0, 2), dtype=np.int64), first_handle
    eu, ev, next_handle = weight_forest_edges(
        [root_handle], [w], delta, first_handle
    )
    return np.stack((eu, ev), axis=1), next_handle


def random_tree(n: int, max_degree: int = 4, rng: Optional[random.Random] = None) -> Graph:
    """A uniform-ish random tree with bounded degree (random attachment
    among nodes with spare degree).

    Also the builder behind the ``bounded_tree_d3`` family in
    :mod:`repro.families`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # no rng given: a deterministic function of the shape parameters
    # (DET001 — unseeded entropy is banned in library code)
    rng = rng or random.Random(
        stable_seed("repro.constructions.random_tree", n, max_degree))
    edges: List[Tuple[int, int]] = []
    degree = [0] * n
    candidates = [0]
    for v in range(1, n):
        if not candidates:
            raise ValueError("degree budget exhausted; raise max_degree")
        i = rng.randrange(len(candidates))
        parent = candidates[i]
        edges.append((parent, v))
        degree[parent] += 1
        degree[v] += 1
        if degree[parent] >= max_degree:
            # swap-pop: the candidate list is a set, order is irrelevant
            candidates[i] = candidates[-1]
            candidates.pop()
        if degree[v] < max_degree:
            candidates.append(v)
    return Graph(n, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    """A caterpillar: a spine path with ``legs`` pendant nodes per spine
    node.  A classic worst case for peeling-based level computations."""
    if spine < 1 or legs < 0:
        raise ValueError("need spine >= 1 and legs >= 0")
    edges = [(i, i + 1) for i in range(spine - 1)]
    handle = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, handle))
            handle += 1
    return Graph(handle, edges)


def random_forest_inputs(
    graph: Graph, weight_fraction: float, rng: Optional[random.Random] = None
) -> List[str]:
    """Random Active/Weight input assignment (for fuzzing the weighted
    problem checkers)."""
    from ..lcl.weighted import ACTIVE, WEIGHT

    rng = rng or random.Random(stable_seed(
        "repro.constructions.random_forest_inputs", graph.n, weight_fraction))
    return [
        WEIGHT if rng.random() < weight_fraction else ACTIVE
        for _ in graph.nodes()
    ]
