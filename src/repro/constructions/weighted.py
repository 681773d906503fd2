"""The weighted lower-bound construction (Definition 25, Figure 4).

Take the Definition-18 graph ``G'`` on ``n' = n/k`` nodes (lengths scaled by
``k^{-1/k}``), then for every level ``i in {2..k}`` distribute ``n/k``
weight nodes evenly over the level-``i`` nodes as balanced ``delta``-regular
trees (one tree per node).  Nodes of ``G'`` get input ``Active``, tree nodes
get ``Weight`` — a valid instance of ``Pi^Z_{delta,d,k}`` with a linear
amount of weight resting on every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..lcl.weighted import ACTIVE, WEIGHT
from ..local import vec
from ..local.graph import Graph
from .lowerbound import LowerBoundGraph, build_lower_bound_graph
from .trees import weight_forest_edges

__all__ = ["WeightedInstance", "build_weighted_construction"]


@dataclass
class WeightedInstance:
    """A ``Pi^Z`` instance: graph with Active/Weight inputs plus metadata.

    ``core`` is the underlying Definition-18 construction (handles of the
    active nodes coincide with the core graph's handles);
    ``tree_of[a]`` is the ``range`` of weight-node handles (consecutive)
    attached to active node ``a``; nodes without a tree have no entry.
    """

    graph: Graph
    core: LowerBoundGraph
    delta: int
    tree_of: Dict[int, range]

    @property
    def n(self) -> int:
        return self.graph.n

    def active_nodes(self) -> List[int]:
        return list(range(self.core.graph.n))

    def weight_nodes(self) -> List[int]:
        return list(range(self.core.graph.n, self.graph.n))


def build_weighted_construction(
    lengths: Sequence[int],
    delta: int,
    weight_per_level: int,
) -> WeightedInstance:
    """Build Definition 25 from explicit core path lengths.

    ``lengths`` are the (already scaled) ``l'_1..l'_k`` of the core graph;
    ``weight_per_level`` is the number of weight nodes to spread over each
    of the levels ``2..k`` (the paper's ``n/k``).
    """
    if delta < 3:
        raise ValueError("delta must be >= 3")
    core = build_lower_bound_graph(lengths)
    k = core.k
    n_core = core.graph.n
    # the core's edges in ``core.graph.edges()`` order: by smaller
    # endpoint, then CSR neighbour order
    indptr, indices = vec.csr_arrays(core.graph)
    src = np.repeat(np.arange(n_core, dtype=np.int64), np.diff(indptr))
    upper = src < indices
    eus: List[np.ndarray] = [src[upper]]
    evs: List[np.ndarray] = [indices[upper]]
    levels = np.asarray(core.intended_level, dtype=np.int64)
    next_handle = n_core
    tree_of: Dict[int, range] = {}

    for i in range(2, k + 1):
        targets = np.flatnonzero(levels == i)
        if not targets.size or weight_per_level <= 0:
            continue
        per_node, extra = divmod(weight_per_level, targets.size)
        sizes = np.full(targets.size, per_node, dtype=np.int64)
        sizes[:extra] += 1
        roots, sizes = targets[sizes > 0], sizes[sizes > 0]
        first = next_handle
        eu, ev, next_handle = weight_forest_edges(roots, sizes, delta, first)
        eus.append(eu)
        evs.append(ev)
        ends = (first + np.cumsum(sizes)).tolist()
        tree_of.update(
            zip(roots.tolist(), map(range, [first] + ends[:-1], ends))
        )

    n_total = next_handle
    inputs = [ACTIVE] * n_core + [WEIGHT] * (n_total - n_core)
    graph = Graph.from_arrays(
        n_total, np.concatenate(eus), np.concatenate(evs), inputs,
        validate=False,
    )
    return WeightedInstance(graph=graph, core=core, delta=delta, tree_of=tree_of)
