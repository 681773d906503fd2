"""Bulk random draws against their per-draw oracles, and the pinned ID stream.

``draw_below`` decodes ``rng.randrange`` draws from bulk reads of the
Mersenne Twister word stream.  Every case here checks both halves of its
contract against ``tests/id_oracles.py``: the values are the per-draw
loop's, and ``rng.getstate()`` afterwards is the per-draw loop's, so the
next consumer of the rng sees the same stream either way.
"""

import random

import pytest

from id_oracles import prufer_edges_py, random_ids_py
from repro.families import get_family, prufer_tree
from repro.local.ids import draw_below, id_space_size, make_ids, random_ids
from repro.parallel import stable_digest
from repro.sweep import _sample_seed


def assert_same_as_oracle(n, c, seed=0):
    bulk_rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert random_ids(n, c, bulk_rng) == random_ids_py(n, c, oracle_rng)
    assert bulk_rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("n", range(1, 65))
def test_random_ids_match_oracle_c3(n):
    assert_same_as_oracle(n, 3, seed=n)


@pytest.mark.parametrize("n,c,bits", [
    (1625, 3, 32), (1626, 3, 33),      # one word per draw -> two
    (65535, 4, 64), (65536, 4, 65),    # two words -> the per-draw path
])
def test_random_ids_bit_width_edges(n, c, bits):
    assert id_space_size(n, c).bit_length() == bits
    assert_same_as_oracle(n, c)


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("n", [2, 7, 40, 300])
def test_random_ids_collisions_keep_first_occurrence(n, c):
    # spaces of n and n^2 make repeats certain or likely: the bulk path
    # must fall back to the exact first-occurrence replay
    for seed in range(4):
        assert_same_as_oracle(n, c, seed)


def test_distinct_draw_with_repeats_across_reads():
    # ~800 repeats spread over several bulk reads: the reads before the
    # last one are replayed with the first-occurrence rule
    bulk_rng, oracle_rng = random.Random(3), random.Random(3)
    expected, seen = [], set()
    while len(expected) < 40_000:
        x = oracle_rng.randrange(10**6)
        if x not in seen:
            seen.add(x)
            expected.append(x)
    assert draw_below(bulk_rng, 10**6, 40_000, distinct=True) == expected
    assert bulk_rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("n", [1, 5, 64, 1000])
def test_random_ids_wider_than_64_bits(n):
    assert_same_as_oracle(n, 7)


def test_successive_draws_share_one_stream():
    bulk_rng, oracle_rng = random.Random(11), random.Random(11)
    for n in (100, 1, 2000, 37):
        assert random_ids(n, rng=bulk_rng) == random_ids_py(n, 3, oracle_rng)
        assert bulk_rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("bound", [
    1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
    2**63, 2**64 - 1, 2**64, 2**64 + 1, 10**30,
])
def test_draw_below_matches_randrange(bound):
    for count in (0, 1, 33, 3000):
        bulk_rng, oracle_rng = random.Random(count), random.Random(count)
        assert draw_below(bulk_rng, bound, count) == [
            oracle_rng.randrange(bound) for _ in range(count)
        ]
        assert bulk_rng.getstate() == oracle_rng.getstate()


def test_draw_below_other_generators_draw_per_call():
    class Floaty(random.Random):
        # overriding random() alone makes randrange reject over floats
        def random(self):
            return super().random()

    bulk_rng, oracle_rng = Floaty(5), Floaty(5)
    assert draw_below(bulk_rng, 10**9, 200, offset=1) == [
        1 + oracle_rng.randrange(10**9) for _ in range(200)
    ]
    assert bulk_rng.getstate() == oracle_rng.getstate()


def test_draw_below_rejects_impossible_requests():
    with pytest.raises(ValueError):
        draw_below(random.Random(0), 0, 1)
    with pytest.raises(ValueError):
        draw_below(random.Random(0), 3, 4, distinct=True)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
def test_prufer_tree_matches_oracle(n):
    bulk_rng, oracle_rng = random.Random(n), random.Random(n)
    edges = sorted(prufer_tree(n, bulk_rng).edges())
    oracle = sorted(
        (min(u, v), max(u, v)) for u, v in prufer_edges_py(n, oracle_rng))
    assert edges == oracle
    assert bulk_rng.getstate() == oracle_rng.getstate()


def test_random_ids_without_rng_is_fixed():
    assert random_ids(50) == random_ids(50)
    rng = random.Random(0)
    assert random_ids(50, rng=rng) != random_ids(50, rng=rng)


STALE_STORE = (
    "the random ID / Prüfer stream changed. Store keys do not include the "
    "ID derivation, so a warm store would serve results computed from the "
    "old IDs: bump repro.store.CODE_SALT in the same change and update "
    "this digest."
)


@pytest.mark.parametrize("what,draw,digest", [
    ("random_ids(1000)",
     lambda: random_ids(1000, rng=random.Random(0)),
     "504941b43ab6339d"),
    ("sweep sample random_tree n=4096",
     lambda: make_ids("random", 4096, random.Random(
         _sample_seed("random_tree", 4096, 0, 0, 0))),
     "cda9ee7436ab1087"),
    ("random_tree instance n=1000",
     lambda: list(get_family("random_tree").instance(1000, 0, 0).edges()),
     "1c93a8df2d6591e0"),
])
def test_id_stream_is_pinned(what, draw, digest):
    assert stable_digest(draw()) == digest, f"{what}: {STALE_STORE}"
