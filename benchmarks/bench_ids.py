"""Random ID draws — bulk Mersenne Twister reads vs. the per-draw loop.

Micro-benchmark for :func:`repro.local.ids.draw_below`: draw one random
ID assignment (``random_ids``, ``c = 3``) through the bulk path and
through the per-draw ``randint`` oracle of ``tests/id_oracles.py``, and
record wall-clock and ns per ID in ``benchmarks/results/``.

Gates:

* the bulk draw must be at least 5x faster than the per-draw oracle at
  n = 10^5 and n = 10^6, and return the same IDs with the rng left in
  the same state;
* a fresh process that draws IDs and builds a Prüfer tree must never
  import ``numpy.random`` (the decode uses only numpy's core, and the
  submodule would add ~2.5 MiB to every sweep worker).
"""

import os
import random
import subprocess
import sys

from harness import record_table, timed

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from id_oracles import random_ids_py  # noqa: E402
from repro.local.ids import random_ids  # noqa: E402

SIZES = (100_000, 1_000_000)
MIN_SPEEDUP = 5.0
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def best_of(repeats, fn, *args):
    """Best-of-N wall clock from a fresh rng each run."""
    best = None
    for _ in range(repeats):
        rng = random.Random(0)
        ids, wall, _ = timed(fn, *args, rng)
        best = wall if best is None else min(best, wall)
    return ids, rng.getstate(), best


def test_bulk_ids_speedup():
    rows = []
    failures = []
    for n in SIZES:
        bulk, bulk_state, wall_bulk = best_of(3, random_ids, n, 3)
        oracle, oracle_state, wall_oracle = best_of(2, random_ids_py, n, 3)
        assert bulk == oracle, f"n={n}: bulk IDs differ from the oracle"
        assert bulk_state == oracle_state, f"n={n}: rng state differs"
        speedup = wall_oracle / wall_bulk
        rows.append((
            n, f"{wall_oracle:.4f}", f"{wall_bulk:.4f}",
            f"{wall_oracle / n * 1e9:.0f}", f"{wall_bulk / n * 1e9:.0f}",
            f"{speedup:.1f}", f"{MIN_SPEEDUP:.0f}",
        ))
        if speedup < MIN_SPEEDUP:
            failures.append(f"n={n}: {speedup:.1f}x < {MIN_SPEEDUP:.0f}x")
    record_table(
        "ids_bulk",
        "random_ids: bulk word-stream decode vs. per-draw randint (c=3)",
        ["n", "per_draw_s", "bulk_s", "per_draw_ns_id", "bulk_ns_id",
         "speedup", "gate"],
        rows,
    )
    assert not failures, failures


def test_id_draws_do_not_import_numpy_random():
    script = (
        "import random, sys\n"
        "from repro.families import get_family\n"
        "from repro.local.ids import random_ids\n"
        "random_ids(5000, rng=random.Random(0))\n"
        "random_ids(100, c=7, rng=random.Random(0))\n"
        "get_family('random_tree').instance(5000, 0)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert out == "False", "drawing IDs imported numpy.random"
