"""Level computation for the k-hierarchical problems (Definition 8).

Levels are assigned by iterated peeling of low-degree nodes:

1. ``i = 1``.
2. ``V_i`` = nodes of degree at most 2 in the remaining forest; they get
   level ``i`` and are removed.
3. ``i += 1``; while ``i <= k`` continue from step 2.
4. Every remaining node gets level ``k + 1``.

A node can determine its own level in ``O(k)`` LOCAL rounds (the peeling is
a local process), which is why the k-hierarchical problems are LCLs with
checkability radius ``O(k)``.

Levels depend only on the instance (graph + input restriction), never on
outputs, so the verification kernel (:mod:`repro.lcl.kernel`) computes
them once per graph in its compile step and shares them across every
labeling of a ``verify_batch``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..local import vec
from ..local.graph import Graph

__all__ = ["compute_levels", "level_paths", "nodes_of_level"]


def compute_levels(graph: Graph, k: int, restrict: Optional[Iterable[int]] = None) -> List[int]:
    """Per-node levels in ``1..k+1``; nodes outside ``restrict`` get 0.

    ``restrict`` limits the peeling to an induced subgraph (used by the
    weighted problems, whose active components are leveled independently of
    the weight nodes).

    Vectorized peeling: one boolean sweep plus one scatter-decrement per
    level.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.n
    indptr, indices = vec.csr_arrays(graph)
    if restrict is None:
        active = np.ones(n, dtype=bool)
    else:
        active = np.zeros(n, dtype=bool)
        active[list(restrict)] = True

    level = np.zeros(n, dtype=np.int64)
    alive = active.copy()
    deg = vec.induced_degrees(indptr, indices, active)
    for i in range(1, k + 1):
        peel = alive & (deg <= 2)
        if not peel.any():
            continue
        level[peel] = i
        alive[peel] = False
        _src, nbr = vec.expand_segments(indptr, indices, np.nonzero(peel)[0])
        targets = nbr[alive[nbr]]
        if targets.size:
            np.subtract.at(deg, targets, 1)
    level[alive] = k + 1
    return level.tolist()


def nodes_of_level(levels: List[int], i: int) -> List[int]:
    return [v for v, lv in enumerate(levels) if lv == i]


def level_paths(graph: Graph, levels: List[int], i: int) -> List[List[int]]:
    """Connected components induced by the level-``i`` nodes, each returned
    in path order when it is a path (which peeling guarantees for i <= k:
    peeled nodes had degree <= 2 among same-or-higher levels).

    Components that are single nodes come back as one-element lists.
    """
    members = set(nodes_of_level(levels, i))
    seen = set()
    comps: List[List[int]] = []
    for start in sorted(members):
        if start in seen:
            continue
        comp = _trace_component(graph, members, start)
        seen.update(comp)
        comps.append(comp)
    return comps


def _trace_component(graph: Graph, members: set, start: int) -> List[int]:
    """Collect the component of ``start`` inside ``members``; return it in
    path order if it is a path, otherwise in BFS order."""
    same = lambda v: [w for w in graph.neighbors(v) if w in members]  # noqa: E731
    comp = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in same(v):
            if w not in comp:
                comp.add(w)
                frontier.append(w)
    degs = {v: sum(1 for w in same(v) if w in comp) for v in comp}
    if any(d > 2 for d in degs.values()):
        return sorted(comp)
    endpoints = [v for v in sorted(comp) if degs[v] <= 1]
    if not endpoints:  # cycle: impossible in a tree, defensive
        return sorted(comp)
    order = [min(endpoints)]
    prev = None
    while True:
        nxt = [w for w in same(order[-1]) if w in comp and w != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    return order
