"""Self-test of the benchmark driver at toy sizes.

    python3 perfbench/selftest.py

Checks that

* every workload and metric named in ``BENCHMARK.json`` is run and
  emitted, with its unit, by ``run.py`` (``--trace 0`` and ``--trace 1``);
* a deliberately corrupted labeling, and a deliberately corrupted
  verdict in a warm store, raise ``failed_frac`` above 0;
* the span writer emits records that parse, with valid parent links;
* without the program source the driver exits nonzero and prints no
  result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads as W
from run import WORK
from tracing import Recorder, read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(W.ROOT, "BENCHMARK.json")


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_driver(args, cwd=W.ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_emitted_metrics(spec) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if names != list(W.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {list(W.WORKLOADS)}")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in names:
            proc = run_driver(["--workload", name, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--toy"])
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name} --trace {trace}: result keys {sorted(last)}")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                fail(f"{name} --trace {trace}: {last}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != wanted:
                fail(f"{name} --trace {trace}: metrics {got} != {wanted}")
            for key, unit in wanted.items():
                if f"{name} {key} = " not in proc.stdout:
                    fail(f"{name}: {key} not printed by name")
            print(f"selftest: {name} --trace {trace}: {len(got)} metrics ok")


def check_corrupted_labeling() -> None:
    """A solver whose labeling is wrong at one node must fail its run."""
    from repro.sweep import AlgorithmSpec, get_algorithm, register_algorithm

    wl = W.get_workload("sweep_1e6", toy=True)
    spec = get_algorithm("weighted35_ff")
    solve = spec.fast_forward

    def corrupted(graph, ids):
        trace = solve(graph, ids)
        trace.outputs[0] = trace.outputs[graph.neighbors(0)[0]]
        return trace

    register_algorithm(AlgorithmSpec(spec.name, fast_forward=corrupted,
                                     problem=spec.problem), overwrite=True)
    try:
        attempted, failed, problems = W.check(wl, W.run_sweeps(wl, seed=3))
    finally:
        register_algorithm(spec, overwrite=True)
    if not failed > 0:
        fail(f"corrupted labeling not caught: {attempted} attempted, "
             f"{problems}")
    print(f"selftest: corrupted labeling -> failed_frac "
          f"{failed / attempted:.3f} ({problems[0]})")


def check_corrupted_verdict() -> None:
    """A verdict flipped inside the store must fail the warm census."""
    from repro.store import ResultStore

    wl = W.get_workload("census_warm", toy=True)
    root = os.path.join(WORK, "selftest-store")
    shutil.rmtree(root, ignore_errors=True)
    try:
        cold = W.run_census(wl, root, resume=False)
        store = ResultStore(root)
        kind_dir = os.path.join(store.objects_root, "census-verdict")
        path = next(os.path.join(d, f) for d, _sub, files
                    in sorted(os.walk(kind_dir)) for f in sorted(files))
        with open(path, encoding="utf-8") as fh:
            wrapper = json.load(fh)
        klass = wrapper["payload"]["klass"]
        wrapper["payload"]["klass"] = ("O(1)" if klass != "O(1)"
                                       else "no-good-function")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(wrapper, fh)
        warm = W.run_census(wl, root, resume=True)
        attempted, failed, problems = W.check(wl, warm, cold)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if not failed > 0:
        fail(f"corrupted verdict not caught: {attempted} attempted")
    print(f"selftest: corrupted verdict -> failed_frac "
          f"{failed / attempted:.3f} ({len(problems)} check(s) failed)")


def check_span_writer() -> None:
    rec = Recorder("selftest")
    with rec.span("outer", items=2) as counters:
        with rec.span("inner"):
            pass
        counters["found"] = 1
    with rec.span("second"):
        pass
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "selftest-spans.jsonl")
    rec.write(path)
    records = read_spans(path)
    os.remove(path)
    by_name = {r["name"]: r for r in records}
    if (len(records) != 3
            or by_name["inner"]["parent"] != by_name["outer"]["id"]
            or by_name["outer"]["parent"] is not None
            or by_name["second"]["parent"] is not None
            or by_name["outer"]["counters"] != {"items": 2, "found": 1}):
        fail(f"span records {records}")
    results = os.path.join(WORK, "results")
    written = [f for f in sorted(os.listdir(results))
               if f.startswith("spans-")]
    for name in written:
        if not read_spans(os.path.join(results, name)):
            fail(f"{name} holds no spans")
    print(f"selftest: span writer ok ({len(written)} traced-run files parse)")


def check_no_source() -> None:
    """In a directory with only BENCHMARK.json and this directory, the
    driver must fail without printing a result."""
    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    try:
        proc = run_driver(["--workload", "sweep_trees", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout "
             f"{proc.stdout!r}")
    print(f"selftest: bare directory exits {proc.returncode} without a result")


def main() -> None:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    W.import_program()
    check_emitted_metrics(spec)
    check_corrupted_labeling()
    check_corrupted_verdict()
    check_span_writer()
    check_no_source()
    print("selftest: ok")


if __name__ == "__main__":
    main()
