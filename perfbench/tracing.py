"""The traced run: every layer's public function called from here, in the
order the pipeline calls it, with one span per call.

The program has no tracing of its own yet, so the spans sit around the
calls into each layer.  The pipelines below mirror
``SweepRunner.run`` (shared-memory path) and ``run_atlas`` at
``workers=1``; the driver checks that they produce exactly the cells and
verdicts the public API produces, so the per-layer numbers describe the
program the end-to-end numbers measure.  Spans are kept in memory and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List

from workloads import Workload

#: per-layer metric -> unit, in the order the driver prints them
LAYER_UNITS = {
    "families.build_s": "s",
    "families.nodes_per_s": "1/s",
    "ids.draw_s": "s",
    "ids.ns_per_id": "ns",
    "engine.run_batch_s": "s",
    "engine.node_rounds": "count",
    "engine.node_rounds_per_s": "1/s",
    "solver.fast_forward_s": "s",
    "solver.nodes_per_s": "1/s",
    "kernel.verify_s": "s",
    "kernel.labelings": "count",
    "kernel.nodes_per_s": "1/s",
    "shm.publish_s": "s",
    "shm.attach_s": "s",
    "shm.bytes": "B",
    "parallel.busy_frac": "frac",
    "canonical.iter_space_s": "s",
    "canonical.raw_visited": "count",
    "canonical.kept": "count",
    "canonical.keep_ratio": "frac",
    "decider.decide_s": "s",
    "decider.ms_p50": "ms",
    "decider.ms_p99": "ms",
    "decider.top1pct_share": "frac",
    "decider.problems": "count",
    "store.put_s": "s",
    "store.puts": "count",
    "store.put_ms_p50": "ms",
    "store.bytes_written": "B",
    "store.get_s": "s",
    "store.gets": "count",
    "store.get_ms_p50": "ms",
    "store.hit_ratio": "frac",
    "store.corrupt": "count",
    "trace.unattributed_frac": "frac",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "Recorder", record: Dict) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> Dict:
        stack = self.recorder._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record["counters"]

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()
        self.recorder.records.append(self.record)


class _NoSpan:
    __slots__ = ("counters",)

    def __enter__(self) -> Dict:
        self.counters = {}
        return self.counters

    def __exit__(self, *exc) -> None:
        pass


class Recorder:
    """In-memory span recorder.  ``span(name, **counters)`` is a context
    manager yielding the span's counter dict, so work counts found inside
    the span can be added to it.  ``enabled=False`` records nothing: the
    untraced twin the tracing overhead is measured against."""

    def __init__(self, trace_id: str, enabled: bool = True) -> None:
        self.trace_id = trace_id
        self.enabled = enabled
        self.records: List[Dict] = []
        self._stack: List[int] = []
        self._next = 0

    def span(self, name: str, **counters):
        if not self.enabled:
            return _NoSpan()
        self._next += 1
        return _Span(self, {"trace": self.trace_id, "id": self._next,
                            "name": name, "counters": dict(counters)})

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.records, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_spans(path: str) -> List[Dict]:
    """Parse a span file, rejecting records that lack a field."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            missing = {"trace", "id", "parent", "name", "start", "end",
                       "counters"} - set(rec)
            if missing or rec["end"] < rec["start"]:
                raise ValueError(f"bad span record {rec!r}")
            records.append(rec)
    return records


# ----------------------------------------------------------------------
# the sweep pipeline (SweepRunner.run with shared memory, workers=1)
# ----------------------------------------------------------------------
def traced_sweeps(wl: Workload, seed: int, rec: Recorder) -> List[List[Dict]]:
    return [_traced_sweep(wl, run, seed, rec) for run in wl.sweeps]


def _traced_sweep(wl, run, seed: int, rec: Recorder) -> List[Dict]:
    from repro.families import get_family
    from repro.parallel import stable_digest
    from repro.shm import SharedGraphPool, worker_attach_specs
    from repro.sweep import get_algorithm

    spec = get_algorithm(run.algorithm)
    units = [(name, index) for name in run.families
             for index in range(run.instances)]
    results = {}
    with SharedGraphPool() as pool:
        # the parent builds and publishes every instance before fan-out
        keys = {}
        for name, index in units:
            with rec.span("families.build") as counters:
                graph = get_family(name).instance(run.n, seed, index)
                counters["nodes"] = graph.n
            key = stable_digest("sweep-graph", name, run.n, seed, index)
            with rec.span("shm.publish") as counters:
                counters["bytes"] = pool.publish(key, graph).nbytes()
            keys[(name, index)] = key
        with rec.span("shm.attach"):
            worker_attach_specs(pool.specs())
        for name, index in units:
            results[(name, index)] = _traced_unit(
                wl, run, spec, name, index, keys[(name, index)], seed, rec)

    cells = []
    for name in run.families:
        runs, sizes, valid = [], [], []
        for index in range(run.instances):
            instance_n, unit_runs, unit_valid = results[(name, index)]
            runs.extend(unit_runs)
            sizes.append(instance_n)
            if unit_valid is None:
                valid = None
            elif valid is not None:
                valid.extend(unit_valid)
        avgs = [avg for avg, _ in runs]
        worsts = [worst for _, worst in runs]
        cells.append({
            "family": name,
            "n": run.n,
            "algorithm": run.algorithm,
            "runs": len(runs),
            "instance_n": {"min": min(sizes), "max": max(sizes)},
            "node_averaged": {"max": max(avgs), "mean": sum(avgs) / len(avgs)},
            "worst_case": {"max": max(worsts),
                           "mean": sum(worsts) / len(worsts)},
            "validity": None if valid is None else {
                "valid": sum(1 for ok in valid if ok),
                "violations": sum(1 for ok in valid if not ok),
            },
        })
    return cells


def _traced_unit(wl, run, spec, name, index, key, seed, rec):
    """One (instance, algorithm) unit, as a sweep worker runs it."""
    from repro.local.ids import make_ids
    from repro.local.simulator import LocalSimulator, resolve_auto_engine
    from repro.parallel import stable_seed
    from repro.shm import shared_graph

    with rec.span("shm.attach"):
        graph = shared_graph(key)
    with rec.span("ids.draw", ids=graph.n * wl.samples):
        id_samples = [
            make_ids("random", graph.n, rng=random.Random(
                stable_seed("ids", name, run.n, seed, index, sample)))
            for sample in range(wl.samples)
        ]
    if spec.fast_forward is not None:
        traces = []
        for ids in id_samples:
            with rec.span("solver.fast_forward", nodes=graph.n):
                traces.append(spec.fast_forward(graph, ids))
    else:
        algorithm = spec.factory(graph.n)
        engine = resolve_auto_engine(algorithm)
        with rec.span("engine.run_batch") as counters:
            traces = LocalSimulator(engine=engine).run_batch(
                graph, algorithm, id_samples)
            counters["node_rounds"] = sum(sum(t.rounds) for t in traces)
    valid = None
    if spec.problem is not None:  # SweepRunner(check=True)
        verifier = spec.problem(graph.n)
        with rec.span("kernel.verify", labelings=len(traces),
                      nodes=graph.n * len(traces)):
            valid = [bool(r) for r in verifier.verify_batch(
                graph, [t.outputs for t in traces], early_exit=True)]
    runs = [(t.node_averaged(), t.worst_case()) for t in traces]
    return graph.n, runs, valid


# ----------------------------------------------------------------------
# the census pipeline (run_atlas at workers=1)
# ----------------------------------------------------------------------
def traced_census(wl: Workload, store_root: str, resume: bool,
                  rec: Recorder) -> Dict:
    from repro.gap.canonical import iter_space
    from repro.gap.census import (decide_encoding, space_size, spec_name,
                                  verdict_key)
    from repro.store import ResultStore

    c = wl.census
    ell, max_functions = 2, 4096  # run_atlas defaults
    store = ResultStore(store_root)
    raw_seen = [0]

    def tick(raw: int) -> None:
        raw_seen[0] = raw

    encodings, orbit = [], {}
    with rec.span("canonical.iter_space") as counters:
        stream = iter_space(c.max_labels, c.delta,
                            tick=tick if rec.enabled else None, tick_every=1)
        for enc, size in stream:
            if c.max_problems is not None and len(encodings) >= c.max_problems:
                stream.close()
                break
            encodings.append(enc)
            orbit[enc] = size
        counters["raw_visited"] = raw_seen[0]
        counters["kept"] = len(encodings)
    with rec.span("census.space_size"):
        raw = space_size(c.max_labels, c.delta)

    verdicts = {}
    if resume:
        for enc in encodings:
            with rec.span("store.get"):
                payload = store.get(verdict_key(store, enc, ell,
                                                max_functions))
            if (isinstance(payload, dict)
                    and isinstance(payload.get("klass"), str)
                    and isinstance(payload.get("detail"), str)):
                verdicts[enc] = payload["klass"]
    for enc in encodings:
        if enc in verdicts:
            continue
        with rec.span("decider.decide"):
            verdict = decide_encoding(enc, ell, max_functions)
        key = verdict_key(store, enc, ell, max_functions)
        with rec.span("store.put") as counters:
            store.put(key, verdict.to_payload())
        if rec.enabled:  # the untraced twin skips the stat
            counters["bytes"] = os.path.getsize(store.path_for(key))
        verdicts[enc] = verdict.klass
    with rec.span("store.counters", hits=store.hits, misses=store.misses,
                  corrupt=store.corrupt):
        pass
    with rec.span("census.assemble"):
        return {
            "raw_problems": raw,
            "problems": {spec_name(enc): [orbit[enc], verdicts[enc]]
                         for enc in encodings},
        }


# ----------------------------------------------------------------------
# per-layer metrics from the span records
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(records: Iterable[Dict], traced_wall: float,
                  busy_frac: float, overhead_s: float) -> Dict[str, float]:
    """Every :data:`LAYER_UNITS` metric; a layer the workload bypasses
    reports 0."""
    durations: Dict[str, List[float]] = defaultdict(list)
    counters: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    covered = 0.0
    for rec in records:
        d = rec["end"] - rec["start"]
        durations[rec["name"]].append(d)
        for k, v in rec["counters"].items():
            counters[rec["name"]][k] += v
        if rec["parent"] is None:
            covered += d

    def total(name: str) -> float:
        return sum(durations[name])

    def count(name: str, key: str) -> float:
        return counters[name][key]

    decide = sorted(durations["decider.decide"], reverse=True)
    slowest = decide[:max(1, math.ceil(len(decide) / 100))] if decide else []
    gets = count("store.counters", "hits") + count("store.counters", "misses")
    kept = count("canonical.iter_space", "kept")
    raw = count("canonical.iter_space", "raw_visited")
    return {
        "families.build_s": total("families.build"),
        "families.nodes_per_s": _ratio(count("families.build", "nodes"),
                                       total("families.build")),
        "ids.draw_s": total("ids.draw"),
        "ids.ns_per_id": _ratio(total("ids.draw") * 1e9,
                                count("ids.draw", "ids")),
        "engine.run_batch_s": total("engine.run_batch"),
        "engine.node_rounds": count("engine.run_batch", "node_rounds"),
        "engine.node_rounds_per_s": _ratio(
            count("engine.run_batch", "node_rounds"),
            total("engine.run_batch")),
        "solver.fast_forward_s": total("solver.fast_forward"),
        "solver.nodes_per_s": _ratio(count("solver.fast_forward", "nodes"),
                                     total("solver.fast_forward")),
        "kernel.verify_s": total("kernel.verify"),
        "kernel.labelings": count("kernel.verify", "labelings"),
        "kernel.nodes_per_s": _ratio(count("kernel.verify", "nodes"),
                                     total("kernel.verify")),
        "shm.publish_s": total("shm.publish"),
        "shm.attach_s": total("shm.attach"),
        "shm.bytes": count("shm.publish", "bytes"),
        "parallel.busy_frac": busy_frac,
        "canonical.iter_space_s": total("canonical.iter_space"),
        "canonical.raw_visited": raw,
        "canonical.kept": kept,
        "canonical.keep_ratio": _ratio(kept, raw),
        "decider.decide_s": total("decider.decide"),
        "decider.ms_p50": _pct(durations["decider.decide"], 50) * 1e3,
        "decider.ms_p99": _pct(durations["decider.decide"], 99) * 1e3,
        "decider.top1pct_share": _ratio(sum(slowest), sum(decide)),
        "decider.problems": float(len(decide)),
        "store.put_s": total("store.put"),
        "store.puts": float(len(durations["store.put"])),
        "store.put_ms_p50": _pct(durations["store.put"], 50) * 1e3,
        "store.bytes_written": count("store.put", "bytes"),
        "store.get_s": total("store.get"),
        "store.gets": float(len(durations["store.get"])),
        "store.get_ms_p50": _pct(durations["store.get"], 50) * 1e3,
        "store.hit_ratio": _ratio(count("store.counters", "hits"), gets)
        if durations["store.get"] else 0.0,
        "store.corrupt": count("store.counters", "corrupt"),
        "trace.unattributed_frac": max(0.0, 1.0 - _ratio(covered,
                                                         traced_wall)),
        "trace.overhead_s": overhead_s,
    }
