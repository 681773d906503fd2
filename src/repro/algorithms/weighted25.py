"""A_poly: the algorithm for ``Pi^{2.5}_{Delta,d,k}`` (Section 7.1).

Composition of the two substrates:

* active nodes run the generic phase algorithm (Section 4.1) on their
  components with ``gamma_i = n^{alpha_i}``, the Lemma-33 exponents at
  ``x = log(Delta-1-d)/log(Delta-1)``;
* weight nodes solve the d-free weight problem with Algorithm A (every
  weight node adjacent to an active node takes input ``A``); ``Connect``
  and ``Decline`` nodes terminate at ``R = 3*ceil(log_{d+1} n) + 3``;
* each Copy component ``C(u)`` (one ``A``-node ``u`` per component,
  Observation 39) waits for an active neighbour ``v`` of ``u`` to commit,
  then floods ``v``'s output through the component as the secondary
  output — node ``w`` commits at ``max(R, T_v + 1) + dist_{C}(u, w)``.

Theorem 2: the node-averaged complexity is ``O(n^{alpha_1})``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.landscape import alpha_vector_poly, efficiency_factor
from ..lcl.dfree import A_INPUT, CONNECT as DF_CONNECT, COPY as DF_COPY, W_INPUT
from ..lcl.levels import compute_levels
from ..lcl.weighted import ACTIVE, WEIGHT, connect, copy_of, decline
from ..local import vec
from ..local.graph import Graph
from ..local.metrics import ExecutionTrace
from .dfree_solver import dfree_radius, run_algorithm_a
from .generic_phases import run_generic_fast_forward
from ..analysis.mathutil import log_star

__all__ = ["apoly_gammas", "run_weighted_solver", "run_apoly", "run_a35"]


def apoly_gammas(n: int, delta: int, d: int, k: int, regime: str = "poly") -> List[int]:
    """The phase parameters of A_poly (polynomial regime,
    ``gamma_i = n^{alpha_i}``) or of the Section-8.2 algorithm
    (``gamma_i = (log* n)^{alpha_i}`` with the relaxed ``x'``)."""
    if regime == "poly":
        x = efficiency_factor(delta, d)
        base = float(n)
    elif regime == "logstar":
        from ..analysis.landscape import alpha_vector_logstar, efficiency_factor_relaxed

        x = efficiency_factor_relaxed(delta, d)
        base = float(max(2, log_star(n)))
        return [
            max(2, int(round(base**a))) for a in alpha_vector_logstar(x, k)
        ]
    else:
        raise ValueError("regime must be 'poly' or 'logstar'")
    return [max(2, int(round(base**a))) for a in alpha_vector_poly(x, k)]


def run_weighted_solver(
    graph: Graph,
    ids: Sequence[int],
    delta: int,
    d: int,
    k: int,
    variant: str = "2.5",
    gammas: Optional[Sequence[int]] = None,
    id_exponent: int = 3,
) -> ExecutionTrace:
    """Solve ``Pi^Z_{Delta,d,k}`` on a graph with Active/Weight inputs.

    ``variant='2.5'`` is A_poly (Theorem 2); ``variant='3.5'`` is the
    Section-8.2 composition with the ``log*``-regime gammas and relaxed
    efficiency ``x'`` (Theorem 5) — here both use Algorithm A for the
    weight side; the dedicated O(1)-node-averaged weight machinery lives
    in :mod:`repro.algorithms.fast_decomposition` and is exercised by the
    Pi^{3.5} benchmarks for comparison.
    """
    n = graph.n
    if gammas is None:
        regime = "poly" if variant == "2.5" else "logstar"
        gammas = apoly_gammas(n, delta, d, k, regime)
    R = dfree_radius(n, d)[1] if n else 0

    def algorithm_a(sub: Graph):
        sol = run_algorithm_a(sub, d, n_global=n)
        return sol.outputs, [sol.rounds] * sub.n, sol.copy_component_of

    rounds, outputs, weight = solve_weighted(
        graph, ids, k, gammas, variant, id_exponent, algorithm_a
    )
    missing = outputs.count(None)
    if missing:
        raise RuntimeError(f"weighted solver left {missing} nodes unlabeled")
    return ExecutionTrace(
        rounds=rounds,
        outputs=outputs,
        algorithm=f"a_poly-{variant}",
        meta={"gammas": list(gammas), "dfree_rounds": R if weight else 0},
    )


def solve_weighted(
    graph: Graph,
    ids: Sequence[int],
    k: int,
    gammas: Sequence[int],
    variant: str,
    id_exponent: int,
    solve_weight: Callable[[Graph], tuple],
) -> Tuple[List[int], List, int]:
    """The composition both weighted solvers share.

    Active nodes run the generic phase algorithm on the active
    components.  Weight nodes form the d-free instance: the weight
    forest, with input ``A`` on every weight node adjacent to an active
    node and ``W`` elsewhere.  ``solve_weight(sub)`` returns its
    ``(labels, per-node rounds, copy_component_of)``; Connect and Decline
    nodes keep their label and round.  Each Copy component ``C(u)`` waits
    for the active neighbour ``v`` of ``u`` that commits first (smaller
    ID on ties), then floods ``v``'s output through the component as the
    secondary output: node ``w`` commits at
    ``max(T_u, T_v + 1) + dist_C(u, w)``.

    Returns ``(rounds, outputs, number of weight nodes)``; nodes with
    any other input stay unlabeled (``None``).
    """
    n = graph.n
    kind = defaultdict(int, {ACTIVE: 1, WEIGHT: 2})
    kinds = np.fromiter(map(kind.__getitem__, graph.inputs()), np.int8, n)
    is_active = kinds == 1
    active = np.flatnonzero(is_active).tolist()
    weight = np.flatnonzero(kinds == 2)
    rounds: List[int] = [0] * n
    outputs: List = [None] * n
    if active:
        levels = compute_levels(graph, k, restrict=active)
        tr = run_generic_fast_forward(
            graph, ids, k, gammas, variant,
            id_exponent=id_exponent, levels=levels, restrict=active,
        )
        rounds, outputs = tr.rounds, tr.outputs
    if not weight.size:
        return rounds, outputs, 0

    indptr, indices = vec.csr_arrays(graph)
    sub, _ = graph.induced_subgraph(weight)
    touches = vec.induced_degrees(indptr, indices, is_active)[weight] > 0
    sub = sub.with_inputs(np.where(touches, A_INPUT, W_INPUT).tolist())
    labels, sub_rounds, components = solve_weight(sub)

    old_of = weight.tolist()
    conn, dec = connect(), decline()
    for old, lab, t in zip(old_of, labels, sub_rounds):
        if lab == DF_CONNECT:
            outputs[old] = conn
            rounds[old] = t
        elif lab != DF_COPY:
            outputs[old] = dec
            rounds[old] = t

    roots = [a for a, comp in components.items() if comp]
    if not roots:
        return rounds, outputs, weight.size
    members = np.array(
        [w for a in roots for w in components[a]], dtype=np.int64
    )
    comp_of = np.full(sub.n, -1, dtype=np.int64)
    comp_of[members] = np.repeat(
        np.arange(len(roots)), [len(components[a]) for a in roots]
    )
    assert np.count_nonzero(comp_of >= 0) == members.size, (
        "Copy components overlap"
    )
    dist = _component_distances(sub, roots, comp_of)

    # each component adopts the output of the first-committing active
    # neighbour of its root
    ip, ix = graph.adjacency()
    active_l = is_active.tolist()
    starts, labels_of = [], []
    for a in roots:
        u = old_of[a]
        best = -1
        for w in ix[ip[u]:ip[u + 1]]:
            if active_l[w] and (
                best < 0 or (rounds[w], ids[w]) < (rounds[best], ids[best])
            ):
                best = w
        assert best >= 0, "Copy root without an active neighbour"
        starts.append(max(sub_rounds[a], rounds[best] + 1))
        labels_of.append(copy_of(outputs[best]))
    comp_idx = comp_of[members]
    commit = (np.array(starts, dtype=np.int64)[comp_idx] + dist[members])
    for w, c, t in zip(members.tolist(), comp_idx.tolist(), commit.tolist()):
        old = old_of[w]
        outputs[old] = labels_of[c]
        rounds[old] = t
    return rounds, outputs, weight.size


def run_apoly(graph, ids, delta, d, k, **kw) -> ExecutionTrace:
    """Theorem 2's algorithm for ``Pi^{2.5}_{Delta,d,k}``."""
    return run_weighted_solver(graph, ids, delta, d, k, "2.5", **kw)


def run_a35(graph, ids, delta, d, k, **kw) -> ExecutionTrace:
    """The Section-8.2-style composition for ``Pi^{3.5}_{Delta,d,k}``
    using Algorithm A for the weight side (baseline; the O(1)-averaged
    weight solver is in :mod:`repro.algorithms.weighted35`)."""
    return run_weighted_solver(graph, ids, delta, d, k, "3.5", **kw)


def _component_distances(graph: Graph, roots: Sequence[int], comp_of):
    """Per node, the BFS distance from its component's root inside the
    component (``comp_of[v]`` is v's component index, -1 outside any):
    one layered BFS from all roots, crossing only edges that stay inside
    a component."""
    indptr, indices = vec.csr_arrays(graph)
    dist = np.full(graph.n, -1, dtype=np.int64)
    frontier = np.array(roots, dtype=np.int64)
    dist[frontier] = 0
    r = 0
    while frontier.size:
        r += 1
        src, nbr = vec.expand_segments(indptr, indices, frontier)
        step = (comp_of[nbr] == comp_of[src]) & (dist[nbr] < 0)
        dist[nbr[step]] = r
        frontier = np.flatnonzero(dist == r)
    return dist
