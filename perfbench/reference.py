"""Full-size reference runs behind the capped benchmark operations.

    python3 perfbench/reference.py witness [--threads N]
        The complete `witness` command on the ideal switch: wall time, peak
        RSS, the solver's per-iteration trajectory, and the certified value
        (-0.4248390751 within 1e-6, status optimal).  Also prints the value
        of the capped witness iterate that paper_run pins.

    python3 perfbench/reference.py cone [--threads N]
        The uncapped dual_cone_check on the first CONE_CANDIDATES
        cone_certify candidates of seed CONE_SEED, each through the full
        membership gate.  Reports every outcome, so solver failures show as
        a failure share.

Each prints one JSON object as its last line.  These runs take minutes and
are not part of the timed benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common

CONE_SEED = 0
CONE_CANDIDATES = 4


def _traced_solve(solve, trajectory):
    def run(*args, **kwargs):
        def callback(it, gap, pinf, dinf):
            trajectory.append({"it": it, "t": time.perf_counter(),
                               "gap": gap, "pinf": pinf, "dinf": dinf})
        kwargs["callback"] = callback
        return solve(*args, **kwargs)
    return run


def witness_reference():
    from icoswitch import cli, witness
    import workloads

    common.WORK.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(dir=common.WORK)
    try:
        trajectory = []
        solve = witness.solve_conic
        witness.solve_conic = _traced_solve(solve, trajectory)
        t0 = time.perf_counter()
        rc = cli.main(["witness", "--model", "procmat",
                       "--distinguishability", "0", "--out", outdir])
        wall = time.perf_counter() - t0
        witness.solve_conic = solve
        with open(f"{outdir}/witness.json") as fh:
            result = json.load(fh)
        paper_run = workloads.WORKLOADS["paper_run"]
        state = paper_run.setup(0)
        t1 = time.perf_counter()
        try:
            iterate = workloads.witness_command(state["cap"], Path(outdir))
        finally:
            capped_wall = time.perf_counter() - t1
            paper_run.teardown(state)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    steps = [b["t"] - a["t"] for a, b in zip(trajectory, trajectory[1:])]
    certified = (rc == 0 and result["status"] == "optimal" and abs(
        result["value"] - workloads.WITNESS_OPTIMUM) <= 1e-6)
    return {
        "command": "witness --model procmat --distinguishability 0",
        "exit_code": rc,
        "certified": certified,
        "status": result["status"],
        "value": result["value"],
        "iterations": result["iterations"],
        "wall_s": wall,
        "iter_s_median": statistics.median(steps) if steps else None,
        "peak_rss_mb": common.peak_rss_mb(),
        "trajectory": [{k: v for k, v in p.items() if k != "t"}
                       for p in trajectory],
        "capped_iterate_value": iterate,
        "capped_op_s": capped_wall,
    }


def cone_reference():
    import numpy as np

    from icoswitch import witness
    import workloads

    span = witness.build_span()
    rows = []
    for i in range(CONE_CANDIDATES):
        c, s_op = workloads.cone_candidate(
            span, workloads._op_rng(CONE_SEED, i))
        row = {"index": i, "c": c}
        t0 = time.perf_counter()
        try:
            report = witness.dual_cone_check(s_op)
            row.update(member=report.member, statuses=report.statuses,
                       margins=report.margins)
            workloads.certify_cone_report(
                s_op, report, np.random.default_rng([CONE_SEED, i, 1]))
            row["ok"] = True
        except Exception as exc:   # every failure is an outcome to report
            row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        row["wall_s"] = time.perf_counter() - t0
        print(json.dumps(row), file=sys.stderr, flush=True)
        rows.append(row)
    failed = sum(not r["ok"] for r in rows)
    return {"seed": CONE_SEED, "attempted": len(rows), "failed": failed,
            "failed_frac": failed / len(rows), "candidates": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("witness", "cone"))
    parser.add_argument("--threads", type=int,
                        default=common.DEFAULT_BLAS_THREADS)
    args = parser.parse_args(argv)
    threads = common.pin_blas_threads(args.threads)
    common.use_package_source()
    if args.what == "witness":
        out = witness_reference()
    else:
        out = cone_reference()
    out["environment"] = common.environment(threads)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
