"""The repo benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs fresh-process iterations of the workload (see
``iteration.py``) for about ``--seconds`` and reports the median of each
end-to-end metric.  ``--trace 1`` runs one untraced iteration,
then the traced layer-by-layer pipeline and its untraced twin, checks
that all three produce the same output, and reports the per-layer
metrics.  ``--workload all`` runs every workload in turn.  ``--toy``
shrinks every workload for the self-test (``selftest.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when a correctness check failed.  Scratch files go under
``.bench_work/`` in the checkout; the fingerprint and raw samples of each
run are kept in ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import workloads as W
from tracing import LAYER_UNITS, layer_metrics, read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(W.ROOT, ".bench_work")

#: end-to-end metric -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "items/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}

#: one invocation must end within this many seconds
BUDGET_S = 170.0
#: set-up samples wanted per run; workloads whose iterations outlast
#: ``--seconds`` add set-up-only iterations to reach it
MIN_SETUP_SAMPLES = 3


class ChildFailed(RuntimeError):
    pass


class Driver:
    def __init__(self, workload: str, seed: int, toy: bool) -> None:
        self.wl = W.get_workload(workload, toy)
        self.seed = seed
        self.toy = toy
        self.deadline = time.monotonic() + BUDGET_S
        self.workdir = os.path.join(
            WORK, f"{self.wl.name}-seed{seed}-pid{os.getpid()}")
        self.live: List[subprocess.Popen] = []

    # ------------------------------------------------------------------
    def start(self, mode: str, tag: str, *extra: str):
        """Start one ``iteration.py`` process in its own session."""
        cwd = os.path.join(self.workdir, tag)
        os.makedirs(os.path.join(cwd, "tmp"), exist_ok=True)
        out = os.path.join(cwd, "out.json")
        spans = os.path.join(cwd, "spans.jsonl")
        cmd = [sys.executable, os.path.join(HERE, "iteration.py"),
               "--workload", self.wl.name, "--seed", str(self.seed),
               "--mode", mode, "--workdir", cwd, "--out", out,
               "--spans", spans, *extra]
        if self.toy:
            cmd.append("--toy")
        env = dict(os.environ, TMPDIR=os.path.join(cwd, "tmp"))
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        self.live.append(proc)
        return mode, proc, out, spans

    def finish(self, handle) -> Tuple[Dict, str, str]:
        """Wait for a started process; returns its report and the paths
        of its output and span files (removed with the work dir)."""
        mode, proc, out, spans = handle
        timed_out = False
        try:
            stdout, stderr = proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out, stdout, stderr = True, "", ""
        finally:
            self.stop(proc)
        if timed_out:
            raise ChildFailed(f"{mode} iteration exceeded the time budget")
        if proc.returncode != 0:
            sys.stderr.write(stderr)
            raise ChildFailed(f"{mode} iteration exited {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1]), out, spans

    def child(self, mode: str, tag: str, *extra: str) -> Tuple[Dict, str, str]:
        return self.finish(self.start(mode, tag, *extra))

    def stop(self, proc: subprocess.Popen) -> None:
        """Kill a process's session (it holds the process's fork workers
        too) and reap the process."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        self.live.remove(proc)

    def fill(self) -> Tuple[float, Tuple[str, ...]]:
        """Census: fill one store for the whole run.  Returns the fill
        time and the arguments that point an iteration at the store and
        at the payload it must reproduce; ``(0, ())`` for sweeps."""
        if self.wl.kind != "census":
            return 0.0, ()
        store = os.path.join(self.workdir, "store")
        report, out, _ = self.child("fill", "fill", "--store", store)
        return report["fill_s"], ("--store", store, "--cold", out)

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Tuple[Dict, int, int, List[str], Dict]:
        """Fresh-process iterations for about ``seconds`` (another one
        starts only when it should end in time; the first always runs);
        medians of each end-to-end metric.  A census store is filled
        once per run, outside ``setup_s``: its fsync time drifts too much
        to bound (README.md)."""
        fill_s, extra = self.fill()
        reports: List[Dict] = []
        setups: List[float] = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            report, _out, _spans = self.child(
                "plain", f"iter{len(reports)}", *extra)
            reports.append(report)
            setups.append(report["setup_s"])
            took = time.monotonic() - t
            if (time.monotonic() + took - start > seconds
                    or time.monotonic() + took > self.deadline):
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            report, _out, _spans = self.child("setup", f"setup{len(setups)}")
            setups.append(report["setup_s"])
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        problems = [p for r in reports for p in r["problems"]]
        med = statistics.median
        metrics = {
            "setup_s": med(setups),
            "wall_s": med(r["wall_s"] for r in reports),
            "throughput": med(r["work"] / r["wall_s"] for r in reports),
            "cpu_s": med(r["cpu_s"] for r in reports),
            "peak_rss_mib": med(r["peak_rss_mib"] for r in reports),
            "ok_frac": 1.0 - failed / attempted,
        }
        samples = {"fill_s": fill_s, "iterations": reports, "setup_s": setups}
        return metrics, attempted, failed, problems, samples

    # ------------------------------------------------------------------
    def trace(self) -> Tuple[Dict, int, int, List[str], Dict]:
        """One untraced iteration, then the traced pipeline and its
        untraced twin side by side (one core each, so both see the same
        machine); per-layer metrics from the traced run's span file."""
        _fill_s, extra = self.fill()
        plain, plain_out, _ = self.child("plain", "plain", *extra)
        handles = [self.start("traced", "traced"), self.start("null", "null")]
        try:
            traced, traced_out, spans = self.finish(handles[0])
        finally:
            null, null_out, _ = self.finish(handles[1])
        attempted, failed = plain["attempted"], plain["failed"]
        problems = list(plain["problems"])
        with open(plain_out, encoding="utf-8") as fh:
            reference = fh.read()
        for label, path in (("traced", traced_out), ("untraced twin", null_out)):
            with open(path, encoding="utf-8") as fh:
                if fh.read() != reference:
                    problems.append(f"the {label} pipeline's output differs "
                                    "from the public API's")
                    failed = attempted
        records = read_spans(spans)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        shutil.copyfile(spans, os.path.join(
            WORK, "results", f"spans-{self.wl.name}-seed{self.seed}.jsonl"))
        busy = plain["worker_cpu_s"] / (plain["wall_s"] * W.WORKERS)
        metrics = layer_metrics(records, traced["wall_s"], busy,
                                traced["wall_s"] - null["wall_s"])
        samples = {"plain": plain, "traced": traced, "null": null,
                   "spans": len(records)}
        return metrics, attempted, failed, problems, samples

    def close(self) -> None:
        for proc in list(self.live):
            self.stop(proc)
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
def fingerprint(seed: int) -> Dict:
    """What later trajectory points need to be compared with this one."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(W.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, W.SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(W.ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            toy: bool) -> bool:
    driver = Driver(name, seed, toy)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    try:
        if trace:
            metrics, attempted, failed, problems, samples = driver.trace()
        else:
            metrics, attempted, failed, problems, samples = driver.measure(
                seconds)
    except ChildFailed as exc:
        # no medians without iterations: report the workload as failed
        print(f"{name}: {exc}", file=sys.stderr)
        attempted = failed = max(1, W.expected_ops(driver.wl))
        problems, samples = [str(exc)], {}
        metrics = {k: 0.0 for k in units}
    finally:
        driver.close()

    fp = fingerprint(seed)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "fingerprint": fp, "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "problems": problems, "samples": samples}, fh, indent=1)

    correct = failed == 0 and not problems
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(trace)} fingerprint "
          + json.dumps(fp, sort_keys=True))
    for key, unit in units.items():
        print(f"{name} {key} = {metrics[key]:.6g} {unit}")
    print(f"{name} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(W.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (self-test only)")
    args = parser.parse_args(argv)
    # a terminated driver still stops its iteration processes (finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isdir(os.path.join(W.SRC, "repro")):
        print(f"no program source at {W.SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(W.SRC, quiet=1)  # keep byte-compiling out of set-up
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        W.get_workload(name)  # fail fast on typos
    ok = True
    for name in names:
        ok = run_one(name, args.seed, args.seconds, bool(args.trace),
                     args.toy) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
