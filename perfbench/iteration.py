"""One benchmark iteration in a fresh process, so its set-up time, CPU
time and peak RSS belong to it alone (``ru_maxrss`` never decreases
inside a process).

Modes:

* ``plain``  — set up, run the workload once through the public API,
  check its output.  A census resumes from ``--store`` and must
  reproduce the payload in ``--cold``, the one that filled it;
* ``setup``  — set up only (extra set-up samples for long workloads);
* ``fill``   — census only: run the census once into ``--store`` and
  write its payload to ``--out``;
* ``traced`` — set up, run the layer-by-layer pipeline of
  :mod:`tracing` with ``workers=1`` and spans on.  A census fills a
  store of its own and then resumes from it, both traced;
* ``null``   — the same pipeline with spans off: the untraced twin the
  tracing overhead is measured against.

Prints one JSON line; writes the output in a comparable form to
``--out`` and, when traced, the spans to ``--spans``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads as W  # noqa: E402


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            max(me.ru_maxrss, kids.ru_maxrss) / 1024.0)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "setup", "fill", "traced", "null"))
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--store", default=None)
    parser.add_argument("--cold", default=None)
    args = parser.parse_args()

    wl = W.get_workload(args.workload, args.toy)
    W.import_program()
    store = args.store or os.path.join(args.workdir, "store")
    cold = None
    if args.cold:
        with open(args.cold, encoding="utf-8") as fh:
            cold = json.load(fh)
    report = {"setup_s": time.perf_counter() - T0}
    if args.mode == "setup":
        print(W.canonical(report))
        return
    if args.mode == "fill":
        start = time.perf_counter()
        result = W.run_census(wl, store, resume=False)
        report["fill_s"] = time.perf_counter() - start
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(W.canonical(result))
        print(W.canonical(report))
        return

    from tracing import Recorder, traced_census, traced_sweeps

    self0, kids0, _ = _usage()
    start = time.perf_counter()
    if args.mode == "plain":
        if wl.kind == "census":
            result = W.run_census(wl, store, resume=True)
        else:
            result = W.run_sweeps(wl, args.seed)
    else:
        rec = Recorder(f"{wl.name}/seed={args.seed}",
                       enabled=args.mode == "traced")
        if wl.kind == "census":
            traced_census(wl, store, False, rec)
            result = traced_census(wl, store, True, rec)
        else:
            result = traced_sweeps(wl, args.seed, rec)
    wall = time.perf_counter() - start
    self1, kids1, rss = _usage()
    report.update(wall_s=wall, cpu_s=(self1 - self0) + (kids1 - kids0),
                  worker_cpu_s=kids1 - kids0, peak_rss_mib=rss)

    if args.mode == "plain":
        attempted, failed, problems = W.check(wl, result, cold)
        report.update(attempted=attempted, failed=failed, problems=problems,
                      work=W.work_done(wl, result))
        result = (W.census_verdicts(result) if wl.kind == "census"
                  else W.sweep_cells(result))
    elif args.mode == "traced":
        rec.write(args.spans)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(W.canonical(result))
    print(W.canonical(report))


if __name__ == "__main__":
    main()
