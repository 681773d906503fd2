"""The benchmark's workloads: what each one runs through the public API,
how much work that is, and how its output is checked.

Nothing here pins a random-ID value: sweep checks are structural
(run counts, zero kernel violations, ``1 <= AVG_V <= worst case``), so
a deliberate ``CODE_SALT`` or ID-derivation change stays benchmarkable
without editing this file.  Census checks pin verdict counts, which do
not depend on any seed.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: every workload fans out over at most this many worker processes
WORKERS = 2


@dataclass(frozen=True)
class SweepRun:
    """One ``SweepRunner.run`` call: its families at one size, one algorithm."""

    families: Tuple[str, ...]
    n: int
    algorithm: str
    instances: int


@dataclass(frozen=True)
class Census:
    """One ``run_atlas`` call over the ``max_labels``/``delta`` space,
    truncated to its first ``max_problems`` canonical forms (``None``: the
    whole space), with the verdict counts it must reproduce."""

    max_labels: int
    delta: int
    max_problems: Optional[int]
    raw_space: int
    #: verdict -> (canonical problems, orbit-weighted raw problems)
    regions: Dict[str, Tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: Tuple[SweepRun, ...] = ()
    samples: int = 2
    #: every cell must carry kernel validity counts (its algorithm
    #: declares the LCL it solves)
    verified: bool = False
    #: ``1 <= node_averaged.max <= worst_case.max`` on every cell
    avg_bounds: bool = False
    #: a census resumes from a store filled with the same census first
    census: Optional[Census] = None

    @property
    def kind(self) -> str:
        return "census" if self.census is not None else "sweep"


# ml3/delta2 has 263 184 raw and 23 350 canonical problems; filling a
# store with all of it takes ~35 s here, too long to repeat in every
# run.  The census decides the first 3000 canonical forms of its sorted
# stream.  The counts below were measured on that prefix; the whole-space
# counts (O(1) 4070, logstar-regime 1936, no-good-function 17344) are
# quoted in README.md.  A change that reorders the canonical stream moves
# problems in or out of the prefix and must re-derive these counts.
_ML3_PREFIX = Census(
    max_labels=3, delta=2, max_problems=3000, raw_space=263184,
    regions={"O(1)": (752, 8360), "logstar-regime": (176, 2030),
             "no-good-function": (2072, 21169)},
)
# ml2/delta2 whole: the toy census of the self-test
_ML2 = Census(
    max_labels=2, delta=2, max_problems=None, raw_space=1040,
    regions={"O(1)": (37, 125), "logstar-regime": (4, 14),
             "no-good-function": (257, 901)},
)


def _workloads(toy: bool) -> Dict[str, Workload]:
    trees_n, big_n, instances = (2000, 5000, 2) if toy else (10**5, 10**6, 4)
    census = _ML2 if toy else _ML3_PREFIX
    table = [
        Workload(
            "sweep_trees",
            "bounded-degree trees: instance generation, ID draws and the "
            "batched engine; no kernel, decider or store",
            sweeps=(SweepRun(("random_tree", "bounded_tree_d3"), trees_n,
                             "rake_layering", instances),),
            avg_bounds=True,
        ),
        Workload(
            "sweep_1e6",
            "million-node sweeps: fast-forward solver, kernel verifier, "
            "shm publish/attach of large CSR arrays and peak RSS",
            sweeps=(SweepRun(("weighted35_d6k2",), big_n, "weighted35_ff", 1),
                    SweepRun(("cycle",), big_n, "cole_vishkin", 1)),
            verified=True,
        ),
        Workload(
            "census_warm",
            "census resumed from a full store: canonical enumeration and "
            "store reads, no decisions",
            census=census,
        ),
    ]
    return {w.name: w for w in table}


WORKLOADS = _workloads(toy=False)
TOY_WORKLOADS = _workloads(toy=True)


def get_workload(name: str, toy: bool = False) -> Workload:
    table = TOY_WORKLOADS if toy else WORKLOADS
    try:
        return table[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(table)}"
        ) from None


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the layers the
    workloads call (the import is part of every workload's set-up)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro.gap.census  # noqa: F401
    import repro.sweep  # noqa: F401


# ----------------------------------------------------------------------
# running through the public API
# ----------------------------------------------------------------------
def run_sweeps(wl: Workload, seed: int) -> List[Dict]:
    from repro.sweep import SweepRunner

    payloads = []
    for run in wl.sweeps:
        runner = SweepRunner(workers=WORKERS, samples=wl.samples,
                             instances=run.instances, check=True)
        payloads.append(runner.run(list(run.families), [run.n],
                                   [run.algorithm], seed=seed))
    return payloads


def run_census(wl: Workload, store_root: str, resume: bool) -> Dict:
    from repro.gap.census import run_atlas

    c = wl.census
    return run_atlas(max_labels=c.max_labels, delta=c.delta,
                     workers=WORKERS, max_problems=c.max_problems,
                     store=store_root, resume=resume)


# ----------------------------------------------------------------------
# comparable forms: what the traced pipeline must reproduce exactly
# ----------------------------------------------------------------------
def sweep_cells(payloads: List[Dict]) -> List[List[Dict]]:
    return [p["cells"] for p in payloads]


def census_verdicts(atlas: Dict) -> Dict:
    return {
        "raw_problems": atlas["atlas"]["raw_problems"],
        "problems": {k: [v["orbit"], v["verdict"]]
                     for k, v in atlas["problems"].items()},
    }


def region_counts(problems: Dict[str, List]) -> Dict[str, List[int]]:
    """verdict -> [canonical problems, orbit-weighted raw problems]."""
    counts: Dict[str, List[int]] = {}
    for orbit, verdict in problems.values():
        entry = counts.setdefault(verdict, [0, 0])
        entry[0] += 1
        entry[1] += orbit
    return counts


# ----------------------------------------------------------------------
# work and checks
# ----------------------------------------------------------------------
def work_done(wl: Workload, result) -> float:
    """Throughput numerator: node-samples (sweeps) or canonical problems
    (census) of one iteration."""
    if wl.kind == "census":
        return float(len(result["problems"]))
    return float(sum(c["runs"] * c["instance_n"]["max"]
                     for cells in sweep_cells(result) for c in cells))


def expected_ops(wl: Workload) -> int:
    """Operations one iteration attempts: one per labeling run (sweeps)
    or per canonical problem (census)."""
    if wl.kind == "census":
        return sum(p for p, _raw in wl.census.regions.values())
    return sum(len(r.families) * r.instances * wl.samples for r in wl.sweeps)


def check_sweeps(wl: Workload, payloads: List[Dict]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)``.  A run fails when its labeling
    violates the declared LCL; every run of a cell fails when the cell is
    missing runs or breaks ``1 <= AVG_V <= worst case``."""
    attempted = failed = 0
    problems: List[str] = []
    for run, payload in zip(wl.sweeps, payloads):
        expected = run.instances * wl.samples
        cells = payload["cells"]
        if len(cells) != len(run.families):
            problems.append(f"{run.algorithm}: {len(cells)} cells, "
                            f"expected {len(run.families)}")
            attempted += expected * len(run.families)
            failed += expected * len(run.families)
            continue
        for cell in cells:
            label = f"{cell['family']}/n={cell['n']}/{cell['algorithm']}"
            attempted += expected
            bad = []
            if cell["runs"] != expected:
                bad.append(f"{cell['runs']} runs, expected {expected}")
            avg, worst = cell["node_averaged"]["max"], cell["worst_case"]["max"]
            if wl.avg_bounds and not 1 <= avg <= worst:
                bad.append(f"node_averaged.max {avg} outside [1, {worst}]")
            validity = cell["validity"]
            if validity is None and wl.verified:
                bad.append("no kernel validity counts")
            if validity is not None and (validity["valid"]
                                         + validity["violations"] != expected):
                bad.append(f"validity counts {validity} for {expected} runs")
            if bad:
                problems.append(f"{label}: " + "; ".join(bad))
                failed += expected
            elif validity is not None and validity["violations"]:
                problems.append(f"{label}: {validity['violations']} "
                                "labeling(s) violate the LCL")
                failed += validity["violations"]
    return attempted, failed, problems


def check_census(wl: Workload, atlas: Dict) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)``.  The atlas fails as a whole —
    every problem counts as failed — when its verdict counts, its
    orbit-weighted raw counts or its space size differ from the pinned
    ones."""
    c = wl.census
    attempted = expected_ops(wl)
    problems: List[str] = []
    spec = atlas["atlas"]
    if spec["raw_problems"] != c.raw_space:
        problems.append(f"raw space {spec['raw_problems']}, "
                        f"expected {c.raw_space}")
    got = {k: (v["problems"], v["raw_problems"])
           for k, v in atlas["regions"].items()}
    if got != c.regions:
        problems.append(f"region counts {got}, expected {c.regions}")
    recount = {k: tuple(v) for k, v in
               region_counts(census_verdicts(atlas)["problems"]).items()}
    if recount != got:
        problems.append(f"per-problem verdicts {recount} disagree with "
                        f"the region summary {got}")
    return attempted, attempted if problems else 0, problems


def check(wl: Workload, result,
          cold: Optional[Dict] = None) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` of one iteration's output;
    ``cold`` is the payload that filled a warm census' store, which the
    warm payload must equal byte for byte."""
    if wl.kind == "sweep":
        return check_sweeps(wl, result)
    attempted, failed, problems = check_census(wl, result)
    if cold is not None and canonical(cold) != canonical(result):
        problems.append("warm payload differs from the cold payload that "
                        "filled its store")
        failed = attempted
    return attempted, failed, problems


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)
