"""Per-node Python oracles for the numpy solver passes.

Each function here is the node-at-a-time form of one pass in ``src/``:
the Definition-8 level peeling, the generic-phase path tracer,
rake-and-compress and the oriented fast decomposition.  They are slow
but easy to check by eye; ``test_vec.py`` asserts that every numpy pass
returns exactly what its oracle returns.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.rake_compress import Decomposition, Layer, _split_run
from repro.local.graph import Graph


def compute_levels_py(
    graph: Graph, k: int, restrict: Optional[Iterable[int]] = None
) -> List[int]:
    """Definition-8 peeling, one node at a time."""
    n = graph.n
    indptr, indices = graph.adjacency()
    if restrict is None:
        active = bytearray([1]) * n
    else:
        active = bytearray(n)
        for v in restrict:
            active[v] = 1

    level = [0] * n
    alive = bytearray(active)
    deg = [0] * n
    for v in range(n):
        if active[v]:
            deg[v] = sum(
                1 for i in range(indptr[v], indptr[v + 1]) if active[indices[i]]
            )

    remaining = [v for v in range(n) if active[v]]
    for i in range(1, k + 1):
        peel = [v for v in remaining if deg[v] <= 2]
        for v in peel:
            level[v] = i
            alive[v] = 0
        for v in peel:
            for j in range(indptr[v], indptr[v + 1]):
                w = indices[j]
                if alive[w]:
                    deg[w] -= 1
        remaining = [v for v in remaining if alive[v]]
    for v in remaining:
        level[v] = k + 1
    return level


def alive_level_paths_py(
    graph: Graph, levels: Sequence[int], alive: Sequence[bool], i: int
) -> List[List[int]]:
    """Maximal paths of alive level-``i`` nodes, traced per node."""
    members = {v for v in graph.nodes() if alive[v] and levels[v] == i}
    paths: List[List[int]] = []
    seen: set = set()
    indptr, indices = graph.adjacency()

    def same(v: int) -> List[int]:
        return [w for w in indices[indptr[v]:indptr[v + 1]] if w in members]

    for v in sorted(members):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in same(u):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        degs = {u: sum(1 for w in same(u) if w in comp) for u in comp}
        assert all(d <= 2 for d in degs.values()), (
            f"level-{i} alive component is not a path"
        )
        ends = [u for u in sorted(comp) if degs[u] <= 1]
        order = [min(ends)]
        prev = None
        while True:
            nxt = [w for w in same(order[-1]) if w != prev and w in comp]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        seen.update(comp)
        paths.append(order)
    return paths


def rake_compress_py(
    graph: Graph, gamma: int, ell: int, pinned: Sequence[int] = ()
) -> Decomposition:
    """Rake-and-compress removing one node at a time."""
    n = graph.n

    pinned_set = set(pinned)
    alive = [True] * n
    deg = [
        graph.degree(v) + (1 if v in pinned_set else 0) for v in graph.nodes()
    ]
    layer_of: List[Optional[Layer]] = [None] * n
    compress_paths: Dict[int, List[List[int]]] = {}
    remaining = n

    def remove(v: int, layer: Layer) -> None:
        nonlocal remaining
        alive[v] = False
        layer_of[v] = layer
        remaining -= 1
        for w in graph.neighbors(v):
            if alive[w]:
                deg[w] -= 1

    i = 0
    while remaining > 0:
        i += 1
        if i > n + 2:
            raise RuntimeError("rake-and-compress exceeded its iteration budget")
        # ---- gamma rake sublayers --------------------------------------
        for j in range(1, gamma + 1):
            low = [v for v in range(n) if alive[v] and deg[v] <= 1]
            # keep sublayers independent: drop the larger-handle endpoint
            # of any edge between two removable nodes
            chosen = set(low)
            for v in low:
                if v not in chosen:
                    continue
                for w in graph.neighbors(v):
                    if w in chosen and w > v:
                        chosen.discard(w)
            for v in sorted(chosen):
                remove(v, Layer.rake(i, j))
            if remaining == 0:
                break
        if remaining == 0:
            break
        # ---- compress ---------------------------------------------------
        runs = _degree2_runs(graph, alive, deg, exclude=pinned_set)
        paths_here: List[List[int]] = []
        promoted: List[int] = []
        for run in runs:
            if len(run) < ell:
                continue
            chunks, seps = _split_run(run, ell)
            paths_here.extend(chunks)
            promoted.extend(seps)
        for path in paths_here:
            for v in path:
                remove(v, Layer.compress(i))
        for v in promoted:
            remove(v, Layer.rake(i + 1, 1))
        if paths_here:
            compress_paths[i] = paths_here
        if not paths_here and not promoted and not _any_low_degree(alive, deg, n):
            raise RuntimeError(
                "decomposition stalled (neither rake nor compress applies)"
            )

    return Decomposition(
        graph=graph,
        gamma=gamma,
        ell=ell,
        layer_of=[layer for layer in layer_of],  # type: ignore[misc]
        compress_paths=compress_paths,
        num_iterations=i,
    )


def _any_low_degree(alive: Sequence[bool], deg: Sequence[int], n: int) -> bool:
    return any(alive[v] and deg[v] <= 1 for v in range(n))


def _degree2_runs(
    graph: Graph,
    alive: Sequence[bool],
    deg: Sequence[int],
    exclude: Optional[set] = None,
) -> List[List[int]]:
    """Maximal paths of alive degree-2 nodes, in path order."""
    exclude = exclude or set()
    member = {
        v
        for v in graph.nodes()
        if alive[v] and deg[v] == 2 and v not in exclude
    }
    runs: List[List[int]] = []
    seen: set = set()

    def nbrs(v: int) -> List[int]:
        return [w for w in graph.neighbors(v) if w in member]

    for start in sorted(member):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbrs(u):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        ends = [u for u in sorted(comp)
                if len([w for w in nbrs(u) if w in comp]) <= 1]
        if not ends:  # a full cycle cannot happen in a forest
            raise AssertionError("degree-2 run formed a cycle in a forest")
        order = [min(ends)]
        prev = None
        while True:
            nxt = [w for w in nbrs(order[-1]) if w != prev and w in comp]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        seen.update(comp)
        runs.append(order)
    return runs


def oriented_decomposition_py(
    graph: Graph, members: Set[int]
) -> Tuple[Dict[int, Optional[int]], Dict[int, int], int]:
    """The (1, 3) oriented peeling over ``members``, one node at a time."""
    alive = set(members)
    deg = {
        v: sum(1 for w in graph.neighbors(v) if w in members) for v in members
    }
    parent: Dict[int, Optional[int]] = {}
    iter_of: Dict[int, int] = {}
    i = 0
    while alive:
        i += 1
        if i > graph.n + 2:
            raise RuntimeError("oriented decomposition exceeded budget")
        # rake
        low = [v for v in sorted(alive) if deg[v] <= 1]
        chosen = set(low)
        for v in low:
            if v not in chosen:
                continue
            for w in graph.neighbors(v):
                if w in chosen and w > v:
                    chosen.discard(w)
        for v in sorted(chosen):
            alive_nbrs = [w for w in graph.neighbors(v) if w in alive and w != v]
            alive_nbrs = [w for w in alive_nbrs if w not in chosen]
            parent[v] = alive_nbrs[0] if alive_nbrs else None
            iter_of[v] = i
            alive.discard(v)
            for w in graph.neighbors(v):
                if w in alive:
                    deg[w] -= 1
        if not alive:
            break
        # compress: runs of >= 3 degree-2 nodes; interiors unoriented
        runs = _runs_of_degree2(graph, alive, deg)
        for run in runs:
            if len(run) < 3:
                continue
            for v in run:
                parent[v] = None
                iter_of[v] = i
                alive.discard(v)
            for v in run:
                for w in graph.neighbors(v):
                    if w in alive:
                        deg[w] -= 1
    return parent, iter_of, i


def _runs_of_degree2(graph: Graph, alive: Set[int], deg: Dict[int, int]) -> List[List[int]]:
    member = {v for v in alive if deg[v] == 2}
    runs: List[List[int]] = []
    seen: Set[int] = set()
    for start in sorted(member):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w in member and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        ends = [u for u in sorted(comp)
                if sum(1 for w in graph.neighbors(u) if w in comp) <= 1]
        order = [min(ends)] if ends else [min(comp)]
        prev = None
        while True:
            nxt = [w for w in graph.neighbors(order[-1])
                   if w in comp and w != prev]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        runs.append(order)
    return runs
