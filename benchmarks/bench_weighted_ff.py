"""The Theorem-5 pipeline — array builds and solver vs. their per-node oracles.

Micro-benchmark for the ``weighted35_ff`` sweep's two serial layers:

* building the ``weighted35_d6k2`` instance (Definition 25) from int64
  edge arrays vs. the tuple-list builder of
  ``tests/construction_oracles.py``;
* ``run_weighted35`` vs. the per-node glue, fast d-free solver and
  Cole–Vishkin path coloring of ``tests/solver_oracles.py``.

Both sides must return identical CSR bytes and inputs, or identical
traces; wall-clock lands in ``benchmarks/results/weighted_ff.txt``.

Gates:

* the array build must be at least 5x faster than the oracle builder at
  n = 10^6;
* ``run_weighted35`` must be at least 1.25x faster than its oracle at
  n = 2 * 10^5.
"""

import os
import random
import sys
from unittest import mock

from harness import record_table, timed

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

import repro.constructions  # noqa: E402
from construction_oracles import build_weighted_construction_py  # noqa: E402
from repro.algorithms import generic_phases, run_weighted35  # noqa: E402
from repro.algorithms.symmetry_breaking import cv_total_rounds  # noqa: E402
from repro.families import get_family, weighted_construction_graph  # noqa: E402
from repro.local import random_ids  # noqa: E402
from solver_oracles import run_weighted35_py, three_color_path_py  # noqa: E402

BUILD_N = 1_000_000
SOLVE_N = 200_000
MIN_BUILD_SPEEDUP = 5.0
MIN_SOLVE_SPEEDUP = 1.25


def best_of(repeats, fn, *args):
    best = None
    for _ in range(repeats):
        out, wall, _ = timed(fn, *args)
        best = wall if best is None else min(best, wall)
    return out, best


def build(n):
    return weighted_construction_graph(n, delta=6, d=3, k=2, regime="logstar")


def build_oracle(n):
    with mock.patch.object(repro.constructions, "build_weighted_construction",
                           build_weighted_construction_py):
        return build(n)


def three_color_paths_py(id_paths, space):
    return ([three_color_path_py(p, space)[0] for p in id_paths],
            cv_total_rounds(space))


def solve_oracle(graph, ids):
    with mock.patch.object(generic_phases, "three_color_paths",
                           three_color_paths_py):
        return run_weighted35_py(graph, ids, 6, 3, 2)


def test_weighted_ff_speedup():
    rows, failures = [], []

    graph, wall_array = best_of(3, build, BUILD_N)
    oracle, wall_oracle = best_of(1, build_oracle, BUILD_N)
    assert bytes(graph.adjacency()[0]) == bytes(oracle.adjacency()[0])
    assert bytes(graph.adjacency()[1]) == bytes(oracle.adjacency()[1])
    assert graph.inputs() == oracle.inputs()
    rows.append(("build weighted35_d6k2", graph.n, f"{wall_oracle:.3f}",
                 f"{wall_array:.3f}", f"{wall_oracle / wall_array:.1f}",
                 f"{MIN_BUILD_SPEEDUP}"))
    if wall_oracle / wall_array < MIN_BUILD_SPEEDUP:
        failures.append(f"build: {wall_oracle / wall_array:.1f}x")

    graph = get_family("weighted35_d6k2").instance(SOLVE_N, 0, 0)
    ids = random_ids(graph.n, rng=random.Random(0))
    trace, wall_array = best_of(3, run_weighted35, graph, ids, 6, 3, 2)
    oracle, wall_oracle = best_of(2, solve_oracle, graph, ids)
    assert trace.rounds == oracle.rounds and trace.outputs == oracle.outputs
    rows.append(("run_weighted35", graph.n, f"{wall_oracle:.3f}",
                 f"{wall_array:.3f}", f"{wall_oracle / wall_array:.1f}",
                 f"{MIN_SOLVE_SPEEDUP}"))
    if wall_oracle / wall_array < MIN_SOLVE_SPEEDUP:
        failures.append(f"solve: {wall_oracle / wall_array:.1f}x")

    record_table(
        "weighted_ff",
        "weighted35_ff layers: array code vs. per-node oracles",
        ["layer", "n", "oracle_s", "array_s", "speedup", "gate"],
        rows,
    )
    assert not failures, failures
