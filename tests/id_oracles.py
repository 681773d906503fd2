"""Per-draw Python oracles for the bulk random draws.

:func:`repro.local.ids.draw_below` reads ``rng.randrange`` draws in bulk
from the Mersenne Twister word stream.  The functions here are the loops
it replaces, one ``randint``/``randrange`` call per value; ``test_ids.py``
asserts that the bulk forms return exactly what these return and leave
the rng in exactly the same state.
"""

import heapq
import random
from typing import List, Tuple

from repro.local.ids import id_space_size


def random_ids_py(n: int, c: int, rng: random.Random) -> List[int]:
    """``random_ids``: ``randint(1, n^c)`` per draw, repeats retried."""
    space = id_space_size(n, c)
    chosen: set = set()
    ids: List[int] = []
    while len(ids) < n:
        x = rng.randint(1, space)
        if x not in chosen:
            chosen.add(x)
            ids.append(x)
    return ids


def prufer_edges_py(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """``prufer_tree``'s edge list: one ``randrange(n)`` per sequence
    element, then the min-heap Prüfer decode."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges: List[Tuple[int, int]] = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges
