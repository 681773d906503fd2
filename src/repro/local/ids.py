"""Identifier assignments for LOCAL algorithms.

In the LOCAL model, nodes carry unique identifiers from a polynomial ID space
``{1, ..., n^c}``.  Deterministic algorithms may depend on these IDs (this is
exactly what the paper's lower-bound arguments manipulate), so the choice of
assignment is part of the experiment design:

* :func:`sequential_ids` — IDs ``1..n`` in node-handle order (best case for
  symmetry breaking, useful as a sanity baseline);
* :func:`random_ids` — uniformly random injection into ``{1..n^c}`` (the
  standard adversarial-free setting for measuring upper bounds);
* :func:`draw_below` — the bulk form of ``rng.randrange(bound)`` both
  random IDs and the Prüfer-tree family draw from: the same values and
  the same final rng state as the per-draw loop, read from the Mersenne
  Twister stream in chunks;
* adversarial assignments — the node-averaged measure is a sup over ID
  assignments as well as topology, so sweeps probe structured worst cases:
  :func:`descending_ids` (IDs strictly decreasing in handle order — on
  canonical paths every edge points backwards, the classic bad case for
  greedy orientations), :func:`bit_reversal_ids` (handles ranked by their
  bit-reversed value — destroys the correlation between handle distance
  and ID distance that random assignments keep on average), and
  :func:`boundary_clustered_ids` (smallest IDs alternate between the two
  ends of the handle range — clusters extreme IDs at path/cycle
  boundaries, where root/parent election rules are most sensitive);
* :data:`ID_MODES` / :func:`make_ids` — the named registry sweeps expose
  as an axis (``python -m repro.sweep --id-mode ...``);
* :func:`id_space_size` — the canonical ID space size ``n^c``;
* :func:`validate_ids` — the uniqueness/positivity check every simulator
  entry point applies to caller-supplied assignments.
"""

from __future__ import annotations

import itertools
import random
import sys
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set

import numpy as np

from ..parallel import stable_seed

__all__ = [
    "sequential_ids",
    "random_ids",
    "draw_below",
    "descending_ids",
    "bit_reversal_ids",
    "boundary_clustered_ids",
    "IdMode",
    "ID_MODES",
    "make_ids",
    "validate_ids",
    "id_space_size",
    "IdAssignment",
]

IdAssignment = List[int]


def id_space_size(n: int, c: int = 3) -> int:
    """The canonical polynomial ID space size ``n^c`` (``c >= 1``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c < 1:
        raise ValueError("c must be >= 1")
    return n**c


def sequential_ids(n: int) -> IdAssignment:
    """IDs ``1..n`` in node-handle order."""
    return list(range(1, n + 1))


def random_ids(
    n: int,
    c: int = 3,
    rng: Optional[random.Random] = None,
) -> IdAssignment:
    """A uniformly random injective ID assignment from ``{1..n^c}``.

    Rejection sampling without materialising the ID space: the IDs are
    the first ``n`` distinct values of ``rng.randint(1, n^c)`` in draw
    order, a repeat being skipped and drawn again (cheap, since the space
    is ``n^c >= n^3`` times larger than the sample, expected extra draws
    are ``O(1/n)``).  The draws are read in bulk by :func:`draw_below`,
    which returns exactly what the per-draw ``randint`` loop returns and
    leaves ``rng`` in exactly the state that loop leaves it in.

    Without an explicit ``rng`` the assignment is a fixed function of
    ``(n, c)`` (DET001: unseeded entropy is banned in library code), so
    repeated calls return the same assignment; pass one seeded
    ``random.Random`` to draw independent assignments from it.
    """
    rng = rng or random.Random(stable_seed("repro.local.ids.random_ids", n, c))
    return draw_below(rng, id_space_size(n, c), n, offset=1, distinct=True)


#: Draws per bulk read of the Mersenne Twister stream: every temporary of
#: :func:`draw_below` is at most ``2 * _CHUNK`` words, whatever ``count``.
_CHUNK = 1 << 14

_LOW_WORD = np.uint64(0xFFFFFFFF)


def _read_draws(rng: random.Random, k: int, m: int) -> np.ndarray:
    """The next ``m`` results of ``rng.getrandbits(k)`` (``k <= 64``) as
    uint64, decoded from one bulk read of the same 32-bit words.

    ``getrandbits(32 * W)`` is the next ``W`` Mersenne Twister outputs as
    one little-endian int.  A ``k``-bit draw takes one word shifted right
    by ``32 - k`` when ``k <= 32``, else a low word plus a high word
    shifted right by ``64 - k``.
    """
    if k <= 32:
        raw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        return (np.frombuffer(raw, dtype="<u4") >> (32 - k)).astype(np.uint64)
    raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
    pairs = np.frombuffer(raw, dtype="<u8")
    return (pairs & _LOW_WORD) | (
        (pairs >> np.uint64(96 - k)) << np.uint64(32)
    )


def _first(draws: Iterator[int], count: int, distinct: bool) -> List[int]:
    """The first ``count`` of ``draws`` (of their distinct values when
    ``distinct``), taking nothing from ``draws`` past the last one kept."""
    kept: List[int] = []
    seen: Set[int] = set()
    for x in draws:
        if distinct:
            if x in seen:
                continue
            seen.add(x)
        kept.append(x)
        if len(kept) == count:
            break
    return kept


def _has_repeat(values: np.ndarray) -> bool:
    ordered = np.sort(values)
    return bool((ordered[1:] == ordered[:-1]).any())


def draw_below(
    rng: random.Random,
    bound: int,
    count: int,
    *,
    offset: int = 0,
    distinct: bool = False,
) -> List[int]:
    """The next ``count`` values of ``offset + rng.randrange(bound)``.

    With ``distinct=True`` a value drawn before is skipped and drawing
    goes on, so the result is the first ``count`` distinct values in draw
    order.  Either way the result, and the state ``rng`` is left in, are
    exactly those of the per-draw loop.

    For a :class:`random.Random` and a ``bound`` of at most 64 bits,
    ``randrange(bound)`` is rejection sampling over ``getrandbits(k)``,
    ``k = bound.bit_length()``.  The draws are decoded from bulk reads of
    the same words (:func:`_read_draws`, :data:`_CHUNK` draws at a time)
    and filtered by numpy; the last read is then rewound with
    ``setstate`` and replayed only as far as the kept draws reach.
    Wider bounds and other generators draw one value per call, as does a
    distinct draw that holds a repeat, from the start of its last read
    on (repeats are likely only when ``bound`` is not much larger than
    ``count**2``).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if distinct and count > bound:
        raise ValueError(f"cannot draw {count} distinct values below {bound}")
    if count <= 0:
        return []
    k = bound.bit_length()
    bulk = (
        k <= 64 and 0 <= offset and offset + bound <= 1 << 64
        and sys.byteorder == "little"
        and type(rng).getrandbits is random.Random.getrandbits
        and type(rng)._randbelow is random.Random._randbelow
    )
    each = iter(lambda: rng.randrange(bound), None)  # one call per draw
    if not bulk:
        return [offset + x for x in _first(each, count, distinct)]
    values = np.empty(count, np.uint64)
    got = 0
    while got < count:
        state, start = rng.getstate(), got
        m = min(_CHUNK, ((count - got) << k) // bound + (count - got) // 8 + 16)
        draws = _read_draws(rng, k, m)
        hits = np.flatnonzero(draws < np.uint64(bound))[: count - got]
        values[got:got + hits.size] = draws[hits]
        got += hits.size
    if distinct and _has_repeat(values):
        # keep first occurrences among the reads before the last one,
        # then draw one value per call from where the last read began
        rng.setstate(state)
        replay = itertools.chain(values[:start].tolist(), each)
        return [offset + x for x in _first(replay, count, distinct)]
    if hits[-1] + 1 < m:
        rng.setstate(state)
        rng.getrandbits(32 * (1 if k <= 32 else 2) * (int(hits[-1]) + 1))
    values += np.uint64(offset)
    return values.tolist()


def descending_ids(n: int) -> IdAssignment:
    """IDs ``n..1`` in node-handle order (strictly decreasing)."""
    return list(range(n, 0, -1))


def bit_reversal_ids(n: int) -> IdAssignment:
    """Handles ranked by the bit-reversal of their binary representation.

    Handle ``v`` is written in ``ceil(log2 n)`` bits, the bits are
    reversed, and IDs ``1..n`` are assigned by ascending reversed value
    (ties — only possible through the shared zero — broken by handle).
    Nearby handles land far apart in ID order and vice versa, the standard
    decorrelation permutation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = max(1, (n - 1).bit_length())
    order = sorted(
        range(n),
        key=lambda v: (int(format(v, f"0{bits}b")[::-1], 2), v),
    )
    ids = [0] * n
    for rank, v in enumerate(order):
        ids[v] = rank + 1
    return ids


def boundary_clustered_ids(n: int) -> IdAssignment:
    """Small IDs clustered at the two ends of the handle range.

    IDs are dealt alternately to the lowest and highest unassigned
    handles: handle 0 gets 1, handle ``n-1`` gets 2, handle 1 gets 3, ...
    so the extreme (small) IDs sit on the boundary nodes of canonical
    paths/cycles and the largest IDs in the middle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ids = [0] * n
    lo, hi, next_id = 0, n - 1, 1
    while lo <= hi:
        ids[lo] = next_id
        next_id += 1
        lo += 1
        if lo <= hi:
            ids[hi] = next_id
            next_id += 1
            hi -= 1
    return ids


class IdMode(NamedTuple):
    """A registered ID-assignment mode.

    ``deterministic`` declares whether ``fn`` ignores the rng (same
    assignment on every call for a given ``n``) — consumers like the
    sweep use it to collapse redundant samples, so a mode that consumes
    the rng must say ``deterministic=False`` or aggregates over it will
    silently lose their independent draws.
    """

    fn: Callable[[int, Optional[random.Random]], IdAssignment]
    deterministic: bool


#: Named ID-assignment modes, the sweep axis.
ID_MODES: Dict[str, IdMode] = {
    "random": IdMode(lambda n, rng=None: random_ids(n, rng=rng),
                     deterministic=False),
    "sequential": IdMode(lambda n, rng=None: sequential_ids(n),
                         deterministic=True),
    "descending": IdMode(lambda n, rng=None: descending_ids(n),
                         deterministic=True),
    "bit_reversal": IdMode(lambda n, rng=None: bit_reversal_ids(n),
                           deterministic=True),
    "boundary_clustered": IdMode(lambda n, rng=None: boundary_clustered_ids(n),
                                 deterministic=True),
}


def get_id_mode(mode: str) -> IdMode:
    """Look up a registered mode; ``KeyError`` with the known names."""
    try:
        return ID_MODES[mode]
    except KeyError:
        raise KeyError(
            f"unknown id mode {mode!r}; known: {sorted(ID_MODES)}"
        ) from None


def make_ids(
    mode: str, n: int, rng: Optional[random.Random] = None
) -> IdAssignment:
    """Build an ID assignment by mode name (see :data:`ID_MODES`)."""
    return get_id_mode(mode).fn(n, rng)


def validate_ids(ids: IdAssignment, space: Optional[int] = None) -> None:
    """Raise ``ValueError`` unless ``ids`` are positive, unique, in range."""
    if len(set(ids)) != len(ids):
        raise ValueError("IDs must be unique")
    for x in ids:
        if x < 1:
            raise ValueError("IDs must be >= 1")
        if space is not None and x > space:
            raise ValueError(f"ID {x} exceeds ID space {space}")
