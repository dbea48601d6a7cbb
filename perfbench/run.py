"""icoswitch benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  paper_run      `witness` on the ideal switch (solve capped), then
                 `check` and `tomo`; D and the tomography inputs are seeded
  cone_certify   dual_cone_check on seeded candidates, solves capped

Operations run back to back until ``--seconds`` have passed (the last one
is allowed to finish); every operation goes through its correctness gate
and an exception counts as a failed operation.

--trace 0 reports the end-to-end metrics:
  op_s_p50     median wall seconds per operation
  setup_s      median wall time of fresh processes from start to the
               first operation (interpreter, imports, inputs, warm-up)
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics (tracing.py) of the traced ones, per operation.  It fails
if a span the workload is expected to reach recorded no call.

The report lines come first; the last line of standard output is the JSON
result.  BLAS runs on a pinned thread count (common.DEFAULT_BLAS_THREADS,
at most nproc).  The package is imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import common

# fresh-process set-ups per run: at least 5, more while under 4 s in total
SETUP_SAMPLES = (5, 15)
SETUP_SECONDS = 4.0
END_TO_END_UNITS = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="icoswitch benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, then exit (one setup_s sample)")
    return p.parse_args(argv)


def setup_samples(args):
    """Seconds from spawning a fresh process until it has set up the
    workload (it then prints one line and exits), one per process."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    least, most = SETUP_SAMPLES
    while len(out) < least or (len(out) < most
                               and sum(out) < SETUP_SECONDS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=common.ROOT, text=True,
                              stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            out.append(time.perf_counter() - t0)
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process failed: {line!r}")
    return out


def run_ops(wl, state, seconds, outdir, tracer=None):
    """Closed loop until the deadline; returns per-op times and failures.

    With a tracer, even operations run untraced and odd ones traced.
    """
    times = {False: [], True: []}
    failures = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        done = time.perf_counter() >= deadline
        if done and (tracer is None or (times[False] and times[True])):
            break
        inp = wl.inputs(state, i)
        if traced:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run(state, inp, outdir)
        except Exception:
            failures.append((i, traceback.format_exc()))
        finally:
            times[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        i += 1
    return times, failures


def main(argv=None):
    args = parse_args(argv)
    threads = common.pin_blas_threads()
    common.use_package_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setups = setup_samples(args)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        peaks = [common.gemm_peak_gflop_per_s()]

    common.WORK.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=common.WORK))
    try:
        times, failures = run_ops(wl, state, args.seconds, outdir, tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        teardown = getattr(wl, "teardown", None)
        if teardown is not None:
            teardown(state)

    all_times = times[False] + times[True]
    attempted = len(all_times)
    for i, tb in failures:
        print(f"operation {i} failed:\n{tb}", file=sys.stderr)

    env = common.environment(threads)
    print(f"workload {wl.name}  seed {args.seed}  "
          f"BLAS {env['blas_name']} {env['blas_version']} "
          f"threads {threads} of nproc {env['nproc']}")
    print(f"operations {attempted}  failed {len(failures)}  "
          f"failed_frac {len(failures) / attempted:.4f}")
    print("fresh-process setup seconds "
          + " ".join(f"{s:.3f}" for s in setups))
    print("operation seconds " + " ".join(f"{t:.3f}" for t in all_times))

    if tracer is None:
        metrics = {
            "op_s_p50": statistics.median(all_times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
        }
        tail = common.tail_percentile(all_times)
        if tail is None:
            print(f"op_s_tail: not reported, {attempted} operations "
                  f"(needs at least 20 for ten samples beyond it)")
        else:
            q, value, above = tail
            print(f"op_s_tail: p{q} = {value:.6f} s over {attempted} "
                  f"operations ({above} beyond it)")
        result = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        import tracing
        peaks.append(common.gemm_peak_gflop_per_s())
        peak = max(peaks)
        print("env.peak_gflop_per_s (GEMM probe before and after the "
              "operations) " + " ".join(f"{p:.1f}" for p in peaks))
        stale = tracing.stale_spans(tracer, wl.spans)
        overhead = (statistics.median(times[True])
                    / statistics.median(times[False]) - 1.0)
        result = tracing.layer_metrics(tracer, len(times[True]),
                                       overhead, peak)
        tracer.write(common.WORK / f"trace-{wl.name}-{args.seed}.jsonl")
        if stale:
            print(f"stale-wrap guard: no calls recorded for {stale}",
                  file=sys.stderr)
            return 3
        print(f"traced operations {len(times[True])}, untraced "
              f"{len(times[False])}; values are per traced operation")

    for name, (value, unit) in result.items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
