"""Adapted fast-decomposition solver for the d-free weight problem
(Section 8.1).

The paper adapts the Fast Decomposition Algorithm of [BBK+23a] to solve
the d-free weight problem with O(1) node-averaged complexity, O(log n)
worst case (Corollary 49), Copy components ``C(v)`` that are rooted trees
of diameter ``O(i_v)`` separated by Declines (Lemma 50), and — after the
reassignment of Lemma 52 — ``|C'(v)| <= 2 |C(v)|^{x'}`` with
``x' = log(D-d+1)/log(D-1)``.

**Substitution note** (see DESIGN.md): [BBK+23a]'s full marking machinery
(extra compress insertions, local-maximum bookkeeping) is not reproduced
line by line.  This module implements a simplified algorithm with the
same interface guarantees:

* a ``(1, 3, O(log n))`` rake-and-compress decomposition with the
  Observation-46 orientation (edges point from later-removed to
  earlier-removed nodes; compress interiors stay unoriented, which caps
  oriented-chain depth at the iteration index);
* input-``A`` nodes become Copy roots when their layer is assigned
  (iteration ``i_v``); their oriented span is collected, reassigned per
  Lemma 52 (each node declines up to ``d - pre(u)`` heaviest child
  subtrees, ``pre(u)`` counting the <= 2 pre-existing/unavoidable Decline
  neighbours of Lemma 48), borders are declined, everything outside
  A-spans declines at its own assignment iteration;
* per-node time: ``O(iteration at which the output became determined)``.

On the paper's workload family (balanced weight trees of Definition 25)
the unfinished-node count decays geometrically with the iteration index,
giving the O(1) node-averaged behaviour — bench E16 measures this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..lcl.dfree import A_INPUT, CONNECT, COPY, DECLINE, W_INPUT
from ..local import vec
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace

__all__ = ["run_fast_dfree", "FastDFreeSolution", "CONNECT_RADIUS"]

CONNECT_RADIUS = 5
_ROUNDS_PER_ITER = 3

#: output codes of the solver's working arrays, indices into _LABELS
_NONE, _CONNECT, _COPY, _DECLINE = 0, 1, 2, 3
_LABELS = np.array([None, CONNECT, COPY, DECLINE], dtype=object)


class FastDFreeSolution:
    """Outputs, per-node times, and Copy components of the fast solver."""

    def __init__(
        self,
        outputs: List[str],
        rounds: List[int],
        copy_component_of: Dict[int, List[int]],
        iterations: int,
    ) -> None:
        self.outputs = outputs
        self.rounds = rounds
        self.copy_component_of = copy_component_of
        self.iterations = iterations

    def as_trace(self) -> ExecutionTrace:
        return ExecutionTrace(
            rounds=list(self.rounds),
            outputs=list(self.outputs),
            algorithm="fast-dfree",
            meta={"iterations": self.iterations},
        )


def run_fast_dfree(graph: Graph, d: int, delta: Optional[int] = None) -> FastDFreeSolution:
    """Solve the d-free weight problem with the adapted fast decomposition.

    Requires ``d >= 2`` (Corollary 49's hypothesis; Lemma 48 gives each
    node at most 2 unavoidable Decline neighbours).

    Inputs and adjacency are read once into flat lists; outputs are kept
    as small integer codes (:data:`_NONE`, :data:`_CONNECT`, ...) until
    the end.
    """
    if d < 2:
        raise ValueError("the fast solver requires d >= 2 (Corollary 49)")
    n = graph.n
    inputs = graph.inputs()
    for v, lab in enumerate(inputs):
        if lab not in (A_INPUT, W_INPUT):
            raise ValueError(f"node {v} has input {lab!r}")
    is_a = [lab == A_INPUT for lab in inputs]
    indptr_np, indices_np = vec.csr_arrays(graph)
    indptr, indices = indptr_np.tolist(), indices_np.tolist()
    a_nodes = [v for v in range(n) if is_a[v]]
    codes = [_NONE] * n
    rounds = [0] * n

    # ---- Connect preprocessing: A-nodes within distance 5 --------------
    close = _close_a_nodes(indptr_np, indices_np, a_nodes)
    _mark_close_connects(indptr, indices, close, is_a, codes)

    # ---- oriented (1, 3, L)-decomposition on the rest -------------------
    unmarked = np.array(codes, dtype=np.int8) == _NONE
    parent, iter_of, iters = _oriented_decomposition(graph, unmarked)
    kids = np.flatnonzero(parent >= 0)
    order = np.argsort(parent[kids], kind="stable")
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[kids], minlength=n), out=child_ptr[1:])
    children = (child_ptr.tolist(), kids[order].tolist())
    parent_l = parent.tolist()
    iter_l = iter_of.tolist()

    # ---- process A-nodes by assignment iteration ------------------------
    pending = np.array(
        [v for v in a_nodes if codes[v] == _NONE], dtype=np.int64
    )
    pending = pending[np.lexsort((pending, iter_of[pending]))].tolist()
    copy_component_of: Dict[int, List[int]] = {}
    mark = [-1] * n  # mark[u] == v: u is in v's span
    size = [0] * n
    has_a = [False] * n
    depth = [0] * n
    for v in pending:
        if codes[v] != _NONE:
            continue  # swallowed by an earlier A-node's span
        span = _unassigned_span(v, children, codes, mark)
        kept = _lemma52_reassign(
            v, span, children, parent_l, indptr, indices, codes, is_a,
            mark, size, has_a, depth, d,
        )
        # assign: kept -> Copy, rest of span -> Decline; borders -> Decline
        t_base = _ROUNDS_PER_ITER * iter_l[v]
        for u in kept:
            codes[u] = _COPY
            rounds[u] = t_base + depth[u]
        # declined span nodes and borders terminate at their *own*
        # assignment iteration: in [BBK+23a]'s machinery they are handled
        # by the local-maximum / compress-middle marking without waiting
        # for v (Corollary 47's geometric decay is over exactly these)
        for u in span:
            if codes[u] == _NONE and not is_a[u]:
                codes[u] = _DECLINE
                rounds[u] = _ROUNDS_PER_ITER * iter_l[u] + 1
        for u in kept:
            for w in indices[indptr[u]:indptr[u + 1]]:
                if codes[w] == _NONE and not is_a[w]:
                    codes[w] = _DECLINE
                    rounds[w] = _ROUNDS_PER_ITER * iter_l[w] + 1
        kept.sort()
        copy_component_of[v] = kept

    # ---- everything else declines at its own assignment time -----------
    code_arr = np.array(codes, dtype=np.int8)
    round_arr = np.array(rounds, dtype=np.int64)
    rest = unmarked & (code_arr == _NONE)
    code_arr[rest] = _DECLINE
    round_arr[rest] = _ROUNDS_PER_ITER * iter_of[rest]
    round_arr[code_arr == _CONNECT] = CONNECT_RADIUS

    return FastDFreeSolution(
        outputs=_LABELS[code_arr].tolist(),
        rounds=round_arr.tolist(),
        copy_component_of=copy_component_of,
        iterations=iters,
    )


def _close_a_nodes(indptr, indices, a_nodes: List[int]) -> List[int]:
    """The A-nodes with another A-node within distance ``CONNECT_RADIUS``,
    in ``a_nodes`` order — the only ones whose Connect BFS marks anything.

    One multi-source BFS labels every node with *a* nearest A-node
    (``owner``) up to distance ``CONNECT_RADIUS - 1``.  Walk a shortest
    path from ``a`` to its nearest other A-node ``b``: the owner changes
    from ``a`` somewhere along it, on an edge ``(x, y)`` whose distance
    sum ``dist[x] + 1 + dist[y]`` is at most ``dist(a, b)``.  So ``a`` is
    close iff some edge between differently owned nodes has
    ``owner[x] == a`` and a distance sum of at most ``CONNECT_RADIUS``.
    """
    n = indptr.size - 1
    if len(a_nodes) < 2:
        return []
    dist = np.full(n, -1, dtype=np.int64)
    owner = np.full(n, -1, dtype=np.int64)
    frontier = np.array(a_nodes, dtype=np.int64)
    dist[frontier] = 0
    owner[frontier] = frontier
    for r in range(1, CONNECT_RADIUS):
        src, nbr = vec.expand_segments(indptr, indices, frontier)
        new = dist[nbr] < 0
        # a node reached from several frontier nodes keeps one of their
        # owners — any nearest A-node will do
        dist[nbr[new]] = r
        owner[nbr[new]] = owner[src[new]]
        frontier = np.flatnonzero(dist == r)
    src, nbr = vec.expand_segments(
        indptr, indices, np.flatnonzero(dist >= 0)
    )
    edge = (
        (dist[nbr] >= 0)
        & (owner[src] != owner[nbr])
        & (dist[src] + 1 + dist[nbr] <= CONNECT_RADIUS)
    )
    close = np.zeros(n, dtype=bool)
    close[owner[src[edge]]] = True
    return [v for v in a_nodes if close[v]]


def _mark_close_connects(
    indptr: List[int],
    indices: List[int],
    a_nodes: List[int],
    is_a: List[bool],
    codes: List[int],
) -> None:
    """Per A-node, a BFS of radius ``CONNECT_RADIUS``; every BFS-tree path
    from it to another A-node it reaches outputs Connect."""
    n = len(codes)
    seen = [-1] * n  # seen[w] == src: reached by src's BFS
    par = [-1] * n
    for src in a_nodes:
        seen[src] = src
        par[src] = -1
        layer = [src]
        found = []
        for _ in range(CONNECT_RADIUS):
            nxt = []
            for u in layer:
                for w in indices[indptr[u]:indptr[u + 1]]:
                    if seen[w] != src:
                        seen[w] = src
                        par[w] = u
                        nxt.append(w)
                        if is_a[w]:
                            found.append(w)
            layer = nxt
        for node in found:
            while node != -1:
                codes[node] = _CONNECT
                node = par[node]


def _oriented_decomposition(
    graph: Graph, member
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Rake-compress (gamma=1, ell=3) restricted to the boolean ``member``
    mask.

    Returns ``(parent, iteration_of, iterations)`` as int64 arrays over
    all nodes.  ``parent[v]`` is the unique alive neighbour at v's rake
    removal (edges oriented parent -> v per Observation 46), ``-1`` for
    compress-chunk nodes (which caps oriented-chain depth by the
    iteration count) and for non-members; non-members have iteration 0.

    The peeling runs as flat numpy sweeps, with the batch-removal
    equivalences of :func:`~repro.algorithms.rake_compress.rake_compress`.
    """
    n = graph.n
    indptr, indices = vec.csr_arrays(graph)
    member = np.asarray(member, dtype=bool)
    deg = vec.induced_degrees(indptr, indices, member)
    alive = member.copy()
    parent_arr = np.full(n, -1, dtype=np.int64)
    iter_arr = np.zeros(n, dtype=np.int64)
    live = int(member.sum())

    def batch_remove(nodes_arr) -> None:
        nonlocal live
        alive[nodes_arr] = False
        _src, nbr = vec.expand_segments(indptr, indices, nodes_arr)
        targets = nbr[alive[nbr]]
        if targets.size:
            np.subtract.at(deg, targets, 1)
        live -= int(nodes_arr.size)

    i = 0
    while live:
        i += 1
        if i > n + 2:
            raise RuntimeError("oriented decomposition exceeded budget")
        # rake: removable nodes pair into a matching; drop larger handles
        low = alive & (deg <= 1)
        lo = np.nonzero(low)[0]
        if lo.size:
            src, nbr = vec.expand_segments(indptr, indices, lo)
            pair = low[nbr]
            chosen = low
            if pair.any():
                chosen = low.copy()
                chosen[np.maximum(src[pair], nbr[pair])] = False
            nodes = np.nonzero(chosen)[0]
            # orientation: a chosen node's unique alive non-chosen
            # neighbour (at most one, since its induced degree is <= 1)
            src, nbr = vec.expand_segments(indptr, indices, nodes)
            ok = alive[nbr] & ~chosen[nbr]
            parent_arr[src[ok]] = nbr[ok]
            iter_arr[nodes] = i
            batch_remove(nodes)
        if not live:
            break
        # compress: runs of >= 3 degree-2 nodes; interiors unoriented
        removed: List[int] = []
        for run in vec.member_paths(graph, alive & (deg == 2)):
            if len(run) >= 3:
                removed.extend(run)
        if removed:
            arr = np.array(removed, dtype=np.int64)
            iter_arr[arr] = i
            batch_remove(arr)

    return parent_arr, iter_arr, i


def _unassigned_span(
    v: int,
    children: Tuple[List[int], List[int]],
    codes: List[int],
    mark: List[int],
) -> List[int]:
    """Nodes reachable from v along oriented (parent->child) edges that
    have no output yet — the raw ``C(v)`` of Lemma 50 — each marked
    ``mark[u] = v``.  Parents precede their children in the list."""
    child_ptr, child_idx = children
    mark[v] = v
    span = [v]
    stack = [v]
    while stack:
        u = stack.pop()
        for c in child_idx[child_ptr[u]:child_ptr[u + 1]]:
            if codes[c] == _NONE:
                mark[c] = v
                span.append(c)
                stack.append(c)
    return span


def _lemma52_reassign(
    v: int,
    span: List[int],
    children: Tuple[List[int], List[int]],
    parent: List[int],
    indptr: List[int],
    indices: List[int],
    codes: List[int],
    is_a: List[bool],
    mark: List[int],
    size: List[int],
    has_a: List[bool],
    depth: List[int],
    d: int,
) -> List[int]:
    """Lemma 52: prune the raw span to a Copy set of size
    ``O(|span|^{x'})`` while keeping every Copy node within its Decline
    budget.  Returns the kept nodes in BFS order from ``v``, with
    ``depth[u]`` their depth below ``v``.

    ``pre(u)`` counts neighbours that are already Decline or that are
    outside the span (borders, which will decline); each Copy node may
    decline up to ``d - pre(u)`` of its heaviest child subtrees.
    """
    child_ptr, child_idx = children
    for u in span:
        size[u] = 1
        has_a[u] = is_a[u] and u != v
    # subtree sizes: the span lists every parent before its children
    for u in reversed(span[1:]):
        p = parent[u]
        size[p] += size[u]
        if has_a[u]:
            has_a[p] = True

    depth[v] = 0
    kept = [v]
    head = 0
    while head < len(kept):
        u = kept[head]
        head += 1
        kids = [
            c for c in child_idx[child_ptr[u]:child_ptr[u + 1]]
            if mark[c] == v
        ]
        if not kids:
            continue
        pre = 0
        for w in indices[indptr[u]:indptr[u + 1]]:
            if mark[w] != v and (codes[w] == _NONE or codes[w] == _DECLINE):
                pre += 1
        budget = max(0, d - pre)
        # decline the heaviest A-free child subtrees; subtrees containing
        # another A-node must stay Copy-connected (that node roots its own
        # component later and may never be declined)
        declinable = [c for c in kids if not has_a[c]]
        if budget < len(declinable):
            declinable.sort(key=size.__getitem__, reverse=True)
            declinable = declinable[:budget]
        declined = set(declinable)
        for c in kids:
            if c not in declined:
                depth[c] = depth[u] + 1
                kept.append(c)
    return kept
