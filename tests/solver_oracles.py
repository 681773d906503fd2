"""Per-node Python oracles for the numpy solver passes.

Each function here is the node-at-a-time form of one pass in ``src/``:
the Definition-8 level peeling, the generic-phase path tracer,
rake-and-compress, the oriented fast decomposition, the whole fast
d-free solver, Cole–Vishkin on a path and the weighted solvers'
weight-side glue.  They are slow
but easy to check by eye; ``test_vec.py`` asserts that every numpy pass
returns exactly what its oracle returns.
"""

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from construction_oracles import induced_subgraph_py
from repro.algorithms.dfree_solver import run_algorithm_a
from repro.algorithms.fast_decomposition import (
    CONNECT_RADIUS,
    _ROUNDS_PER_ITER,
    FastDFreeSolution,
)
from repro.algorithms.generic_phases import run_generic_fast_forward
from repro.algorithms.rake_compress import Decomposition, Layer, _split_run
from repro.algorithms.symmetry_breaking import cv_iterations, cv_step, cv_total_rounds
from repro.algorithms.weighted25 import apoly_gammas
from repro.lcl.dfree import A_INPUT, CONNECT, COPY, DECLINE, W_INPUT
from repro.lcl.dfree import CONNECT as DF_CONNECT, COPY as DF_COPY
from repro.lcl.levels import compute_levels
from repro.lcl.weighted import ACTIVE, WEIGHT, connect, copy_of, decline
from repro.local.graph import Graph
from repro.local.metrics import ExecutionTrace


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


# ----------------------------------------------------------------------
# Cole-Vishkin on a path, one node at a time
# ----------------------------------------------------------------------
def _forest_parents(ids: Sequence[int], neighbors: Sequence[Sequence[int]]):
    """Per-forest parent of each node: outgoing (larger-ID) neighbours
    ranked ascending; rank 0 -> F1, rank 1 -> F2.  Returns two parent
    arrays (entries are node indices or None)."""
    p1: List[Optional[int]] = []
    p2: List[Optional[int]] = []
    for i, nbrs in enumerate(neighbors):
        larger = sorted((j for j in nbrs if ids[j] > ids[i]), key=lambda j: ids[j])
        p1.append(larger[0] if len(larger) >= 1 else None)
        p2.append(larger[1] if len(larger) >= 2 else None)
    return p1, p2


def three_color_path_py(ids: Sequence[int], space: int) -> Tuple[List[int], int]:
    """Fast-forward Cole–Vishkin on one path (IDs given in path order),
    one ``cv_step`` per node and forest."""
    m = len(ids)
    if m == 0:
        return [], 0
    if len(set(ids)) != m:
        raise ValueError("IDs on a path must be distinct")
    neighbors = [[j for j in (i - 1, i + 1) if 0 <= j < m] for i in range(m)]
    p1, p2 = _forest_parents(ids, neighbors)
    labels1 = list(ids)
    labels2 = list(ids)
    for _ in range(cv_iterations(space)):
        labels1 = [
            cv_step(labels1[i], labels1[p1[i]] if p1[i] is not None else None)
            for i in range(m)
        ]
        labels2 = [
            cv_step(labels2[i], labels2[p2[i]] if p2[i] is not None else None)
            for i in range(m)
        ]
    # per-forest shedding 5, 4, 3 (forest degree <= 2 on a path)
    forest_nbrs = [_forest_neighbor_lists(p, m) for p in (p1, p2)]
    for color in (5, 4, 3):
        labels1 = _shed(labels1, forest_nbrs[0], color, (0, 1, 2))
        labels2 = _shed(labels2, forest_nbrs[1], color, (0, 1, 2))
    composite = [3 * a + b for a, b in zip(labels1, labels2)]
    for color in (8, 7, 6, 5, 4, 3):
        composite = _shed(composite, neighbors, color, (0, 1, 2))
    assert all(composite[i] != composite[j] for i in range(m) for j in neighbors[i])
    assert all(0 <= c <= 2 for c in composite)
    return composite, cv_total_rounds(space)


def _forest_neighbor_lists(parent: Sequence[Optional[int]], m: int) -> List[List[int]]:
    nbrs: List[List[int]] = [[] for _ in range(m)]
    for child, par in enumerate(parent):
        if par is not None:
            nbrs[child].append(par)
            nbrs[par].append(child)
    return nbrs


def _shed(
    labels: List[int],
    neighbors: Sequence[Sequence[int]],
    color: int,
    palette: Tuple[int, ...],
) -> List[int]:
    """One shedding round: nodes holding ``color`` recolour greedily into
    ``palette`` avoiding neighbours' current labels (degree < len(palette)
    guarantees a free colour; two ``color`` nodes are never adjacent)."""
    out = list(labels)
    for v, lab in enumerate(labels):
        if lab == color:
            used = {labels[w] for w in neighbors[v]}
            out[v] = next(c for c in palette if c not in used)
    return out


# ----------------------------------------------------------------------
# the fast d-free solver, one node at a time
# ----------------------------------------------------------------------
def run_fast_dfree_py(graph: Graph, d: int, delta: Optional[int] = None) -> FastDFreeSolution:
    """The adapted fast-decomposition d-free solver with per-node dicts
    and sets: Connect marking by one BFS per A-node, the per-node oriented
    peeling above, then the A-nodes in (iteration, node) order."""
    if d < 2:
        raise ValueError("the fast solver requires d >= 2 (Corollary 49)")
    n = graph.n
    outputs: List[Optional[str]] = [None] * n
    rounds = [0] * n
    a_nodes = [v for v in graph.nodes() if graph.input_of(v) == A_INPUT]
    for v in graph.nodes():
        if graph.input_of(v) not in (A_INPUT, W_INPUT):
            raise ValueError(f"node {v} has input {graph.input_of(v)!r}")

    # ---- Connect preprocessing: A-nodes within distance 5 --------------
    _mark_close_connects(graph, a_nodes, outputs)
    for v in graph.nodes():
        if outputs[v] == CONNECT:
            rounds[v] = CONNECT_RADIUS

    active_nodes = [v for v in graph.nodes() if outputs[v] is None]

    # ---- oriented (1, 3, L)-decomposition on the rest -------------------
    parent, iter_of, iters = oriented_decomposition_py(graph, set(active_nodes))

    children: Dict[int, List[int]] = {v: [] for v in active_nodes}
    for v in active_nodes:
        p = parent.get(v)
        if p is not None:
            children[p].append(v)

    # ---- process A-nodes by assignment iteration ------------------------
    copy_component_of: Dict[int, List[int]] = {}
    pending = sorted(
        (v for v in a_nodes if outputs[v] is None),
        key=lambda v: (iter_of[v], v),
    )
    for v in pending:
        if outputs[v] is not None:
            continue  # swallowed by an earlier A-node's span
        span = _unassigned_span(v, children, outputs)
        t_base = _ROUNDS_PER_ITER * iter_of[v]
        kept = _lemma52_reassign(graph, v, span, children, outputs, d)
        # assign: kept -> Copy, rest of span -> Decline; borders -> Decline
        for u, depth in kept.items():
            outputs[u] = COPY
            rounds[u] = t_base + depth
        # declined span nodes and borders terminate at their *own*
        # assignment iteration: in [BBK+23a]'s machinery they are handled
        # by the local-maximum / compress-middle marking without waiting
        # for v (Corollary 47's geometric decay is over exactly these)
        for u in span:
            if outputs[u] is None and graph.input_of(u) != A_INPUT:
                outputs[u] = DECLINE
                rounds[u] = _ROUNDS_PER_ITER * iter_of[u] + 1
        for u in kept:
            for w in graph.neighbors(u):
                if outputs[w] is None and graph.input_of(w) != A_INPUT:
                    outputs[w] = DECLINE
                    rounds[w] = _ROUNDS_PER_ITER * iter_of[w] + 1
        copy_component_of[v] = sorted(kept)

    # ---- everything else declines at its own assignment time -----------
    for v in active_nodes:
        if outputs[v] is None:
            outputs[v] = DECLINE
            rounds[v] = _ROUNDS_PER_ITER * iter_of[v]

    return FastDFreeSolution(
        outputs=[o for o in outputs],  # type: ignore[misc]
        rounds=rounds,
        copy_component_of=copy_component_of,
        iterations=iters,
    )


def _mark_close_connects(
    graph: Graph, a_nodes: Sequence[int], outputs: List[Optional[str]]
) -> None:
    a_set = set(a_nodes)
    for src in a_nodes:
        dist = {src: 0}
        par: Dict[int, Optional[int]] = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if dist[u] == CONNECT_RADIUS:
                continue
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    queue.append(w)
        for other in dist:
            if other != src and other in a_set:
                node: Optional[int] = other
                while node is not None:
                    outputs[node] = CONNECT
                    node = par[node]


def _unassigned_span(
    v: int, children: Dict[int, List[int]], outputs: List[Optional[str]]
) -> List[int]:
    """Nodes reachable from v along oriented (parent->child) edges that
    have no output yet — the raw ``C(v)`` of Lemma 50."""
    span = [v]
    stack = [v]
    seen = {v}
    while stack:
        u = stack.pop()
        for c in children.get(u, ()):
            if c not in seen and outputs[c] is None:
                seen.add(c)
                span.append(c)
                stack.append(c)
    return span


def _lemma52_reassign(
    graph: Graph,
    v: int,
    span: List[int],
    children: Dict[int, List[int]],
    outputs: List[Optional[str]],
    d: int,
) -> Dict[int, int]:
    """Lemma 52: prune the raw span to a Copy set of size
    ``O(|span|^{x'})`` while keeping every Copy node within its Decline
    budget.  Returns ``{kept node: depth from v}``.

    ``pre(u)`` counts neighbours that are already Decline or that are
    outside the span (borders, which will decline); each Copy node may
    decline up to ``d - pre(u)`` of its heaviest child subtrees.
    """
    span_set = set(span)
    size: Dict[int, int] = {u: 1 for u in span}
    has_a: Dict[int, bool] = {
        u: graph.input_of(u) == A_INPUT and u != v for u in span
    }
    stack = [(v, False)]
    while stack:
        u, done = stack.pop()
        if done:
            for c in children.get(u, ()):
                if c in span_set:
                    size[u] += size[c]
                    has_a[u] = has_a[u] or has_a[c]
            continue
        stack.append((u, True))
        for c in children.get(u, ()):
            if c in span_set:
                stack.append((c, False))

    kept: Dict[int, int] = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        kids = [c for c in children.get(u, ()) if c in span_set]
        pre = sum(
            1
            for w in graph.neighbors(u)
            if (w not in span_set and outputs[w] in (None, DECLINE))
        )
        budget = max(0, d - pre)
        # decline the heaviest A-free child subtrees; subtrees containing
        # another A-node must stay Copy-connected (that node roots its own
        # component later and may never be declined)
        declinable = sorted(
            (c for c in kids if not has_a[c]), key=lambda c: -size[c]
        )
        declined = set(declinable[:budget])
        for c in kids:
            if c not in declined:
                kept[c] = kept[u] + 1
                queue.append(c)
    return kept


# ----------------------------------------------------------------------
# the weighted solvers' weight-side glue, one node at a time
# ----------------------------------------------------------------------
def run_weighted35_py(
    graph: Graph,
    ids: Sequence[int],
    delta: int,
    d: int,
    k: int,
    gammas: Sequence[int] = None,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """Theorem 5's algorithm with the per-node weight-side glue and the
    per-node fast d-free solver."""
    if d < 3 or delta < d + 3:
        raise ValueError("Theorem 5 requires d >= 3 and Delta >= d + 3")
    n = graph.n
    active = [v for v in graph.nodes() if graph.input_of(v) == ACTIVE]
    weight = [v for v in graph.nodes() if graph.input_of(v) == WEIGHT]
    if gammas is None:
        gammas = apoly_gammas(n, delta, d, k, "logstar")

    rounds = [0] * n
    outputs: List = [None] * n

    if active:
        levels = compute_levels(graph, k, restrict=active)
        tr = run_generic_fast_forward(
            graph, ids, k, gammas, "3.5",
            id_exponent=id_exponent, levels=levels, restrict=active,
        )
        for v in active:
            rounds[v] = tr.rounds[v]
            outputs[v] = tr.outputs[v]

    if weight:
        active_set = set(active)
        sub, remap = induced_subgraph_py(graph, weight)
        inv = {new: old for old, new in remap.items()}
        dfree_inputs = [
            A_INPUT
            if any(w in active_set for w in graph.neighbors(inv[new]))
            else W_INPUT
            for new in sub.nodes()
        ]
        sub = sub.with_inputs(dfree_inputs)
        sol = run_fast_dfree_py(sub, d, delta)

        for new in sub.nodes():
            old = inv[new]
            lab = sol.outputs[new]
            if lab == DF_CONNECT:
                outputs[old] = connect()
                rounds[old] = sol.rounds[new]
            elif lab != DF_COPY:
                outputs[old] = decline()
                rounds[old] = sol.rounds[new]

        for a_new, comp in sol.copy_component_of.items():
            if not comp:
                continue
            u = inv[a_new]
            candidates = [w for w in graph.neighbors(u) if w in active_set]
            assert candidates, "Copy root without an active neighbour"
            v = min(candidates, key=lambda w: (rounds[w], ids[w]))
            secondary = outputs[v]
            start = max(sol.rounds[a_new], rounds[v] + 1)
            dist = _component_distances(sub, a_new, set(comp))
            for w_new in comp:
                old = inv[w_new]
                outputs[old] = copy_of(secondary)
                rounds[old] = start + dist[w_new]

    missing = [v for v in graph.nodes() if outputs[v] is None]
    if missing:
        raise RuntimeError(f"weighted35 left {len(missing)} nodes unlabeled")
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm="weighted35-fast",
        meta={"gammas": list(gammas)},
    )


def run_weighted_solver_py(
    graph: Graph,
    ids: Sequence[int],
    delta: int,
    d: int,
    k: int,
    variant: str = "2.5",
    gammas: Optional[Sequence[int]] = None,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """A_poly with the per-node weight-side glue."""
    n = graph.n
    active = [v for v in graph.nodes() if graph.input_of(v) == ACTIVE]
    weight = [v for v in graph.nodes() if graph.input_of(v) == WEIGHT]
    if gammas is None:
        regime = "poly" if variant == "2.5" else "logstar"
        gammas = apoly_gammas(n, delta, d, k, regime)

    rounds = [0] * n
    outputs: List = [None] * n

    # ---- active side: generic phase algorithm ------------------------
    if active:
        levels = compute_levels(graph, k, restrict=active)
        tr = run_generic_fast_forward(
            graph, ids, k, gammas, variant,
            id_exponent=id_exponent, levels=levels, restrict=active,
        )
        for v in active:
            rounds[v] = tr.rounds[v]
            outputs[v] = tr.outputs[v]

    # ---- weight side: Algorithm A on the weight forest ---------------
    if weight:
        active_set = set(active)
        sub, remap = induced_subgraph_py(graph, weight)
        inv = {new: old for old, new in remap.items()}
        dfree_inputs = [
            A_INPUT
            if any(w in active_set for w in graph.neighbors(inv[new]))
            else W_INPUT
            for new in sub.nodes()
        ]
        sub = sub.with_inputs(dfree_inputs)
        sol = run_algorithm_a(sub, d, n_global=n)
        R = sol.rounds

        for new in sub.nodes():
            old = inv[new]
            lab = sol.outputs[new]
            if lab == DF_CONNECT:
                outputs[old] = connect()
                rounds[old] = R
            elif lab != DF_COPY:
                outputs[old] = decline()
                rounds[old] = R

        # Copy components: flood the adopted active output
        for a_new, comp in sol.copy_component_of.items():
            if not comp:
                continue
            u = inv[a_new]
            candidates = [
                w for w in graph.neighbors(u) if w in active_set
            ]
            assert candidates, "Copy A-node without an active neighbour"
            v = min(candidates, key=lambda w: (rounds[w], ids[w]))
            secondary = outputs[v]
            start = max(R, rounds[v] + 1)
            dist = _component_distances(sub, a_new, set(comp))
            for w_new in comp:
                old = inv[w_new]
                outputs[old] = copy_of(secondary)
                rounds[old] = start + dist[w_new]

    missing = [v for v in graph.nodes() if outputs[v] is None]
    if missing:
        raise RuntimeError(f"weighted solver left {len(missing)} nodes unlabeled")
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm=f"a_poly-{variant}",
        meta={"gammas": list(gammas), "dfree_rounds": R if weight else 0},
    )


def _component_distances(graph: Graph, source: int, comp: set) -> Dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in comp and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist
