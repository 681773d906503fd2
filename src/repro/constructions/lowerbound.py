"""The k-hierarchical lower-bound graph (Definition 18, Figure 3).

Recursive construction from lengths ``l_1, ..., l_k``: start with a path of
``l_k`` nodes (level ``k``); then for ``i = k-1, ..., 1``, hang a fresh path
of ``l_i`` nodes (by one endpoint) off *every* node of every level-``(i+1)``
path.  Total size ``prod_i l_i``; the set of level-``i`` nodes has size
``Theta(prod_{j >= i} l_j)`` (Corollary 19).

Note the paper's own off-by-constant: the outermost nodes of a level-``i``
path have degree 2 even before lower levels peel, so the peeling of
Definition 8 assigns them level ``i - 1`` (Figure 3 writes the level-2 path
as having length ``n/sqrt(log* n) - 2`` for exactly this reason).  The
construction here is verbatim Definition 18; tests assert the level-set
sizes up to those O(1)-per-path leaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..local.graph import Graph
from ..analysis.mathutil import log_star

__all__ = ["LowerBoundGraph", "build_lower_bound_graph", "paper_lengths"]


@dataclass
class LowerBoundGraph:
    """The constructed graph plus its intended level structure.

    ``intended_level[v]`` is the construction level (which the peeling of
    Definition 8 matches up to the boundary leaks described above);
    ``paths_by_level[i]`` lists each level-``i`` path in path order.  A
    path's handles are consecutive, so each path is a ``range``.
    """

    graph: Graph
    lengths: Tuple[int, ...]
    intended_level: List[int]
    paths_by_level: Dict[int, List[range]] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.lengths)

    def nodes_of_intended_level(self, i: int) -> List[int]:
        return [v for v, lv in enumerate(self.intended_level) if lv == i]


def build_lower_bound_graph(lengths: Sequence[int]) -> LowerBoundGraph:
    """Build the Definition-18 graph for ``lengths = (l_1, ..., l_k)``.

    Handles are assigned level by level from the top: the level-``k`` path
    is ``0..l_k - 1``, and the level-``i`` paths follow in the order of the
    level-``(i+1)`` nodes they hang off.  Edges are emitted as int64
    endpoint arrays in the recursive construction's order — per path, its
    ``l_i - 1`` internal edges, then the edge from its parent to its first
    node — which fixes the CSR neighbour order.
    """
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("need k >= 1 positive lengths")
    k = len(lengths)
    eus: List[np.ndarray] = []
    evs: List[np.ndarray] = []
    level_sizes: List[int] = []
    paths_by_level: Dict[int, List[range]] = {}
    start, parents = 0, None
    for i in range(k, 0, -1):
        length = lengths[i - 1]
        n_paths = 1 if parents is None else parents.size
        handles = np.arange(
            start, start + n_paths * length, dtype=np.int64
        ).reshape(n_paths, length)
        eu = np.empty((n_paths, length), dtype=np.int64)
        ev = np.empty((n_paths, length), dtype=np.int64)
        eu[:, :-1] = handles[:, :-1]
        ev[:, :-1] = handles[:, 1:]
        if parents is None:
            eu, ev = eu[:, :-1], ev[:, :-1]
        else:
            eu[:, -1] = parents
            ev[:, -1] = handles[:, 0]
        eus.append(eu.ravel())
        evs.append(ev.ravel())
        level_sizes.append(handles.size)
        firsts = range(start, start + handles.size, length)
        paths_by_level[i] = [range(f, f + length) for f in firsts]
        parents = handles.ravel()
        start += handles.size

    intended = np.repeat(
        np.arange(k, 0, -1, dtype=np.int64), level_sizes
    ).tolist()
    graph = Graph.from_arrays(
        start, np.concatenate(eus), np.concatenate(evs), validate=False
    )
    return LowerBoundGraph(
        graph=graph,
        lengths=tuple(lengths),
        intended_level=intended,
        paths_by_level={i: paths_by_level[i] for i in range(1, k + 1)},
    )


def paper_lengths(
    n_target: int, alphas: Sequence[float], regime: str = "poly"
) -> List[int]:
    """Lengths ``l_1..l_k`` from the optimal exponent vector.

    ``regime='poly'``: ``l_i = n^{alpha_i}`` (Section 6.1);
    ``regime='logstar'``: ``l_i = (log* n)^{alpha_i}`` (Section 6.2);
    in both cases ``l_k`` absorbs the remainder so that
    ``prod l_i ~ n_target``.  Every length is clamped to >= 2.
    """
    if n_target < 4:
        raise ValueError("n_target too small")
    if regime == "poly":
        base = float(n_target)
    elif regime == "logstar":
        base = float(max(2, log_star(n_target)))
    else:
        raise ValueError("regime must be 'poly' or 'logstar'")
    lower = [max(2, int(round(base**a))) for a in alphas]
    prod = math.prod(lower)
    l_k = max(2, n_target // prod)
    return lower + [l_k]
