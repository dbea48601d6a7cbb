"""The benchmark's workloads: inputs from a seed, one timed operation, and
the correctness gate applied to every operation.

A workload has three parts:

  setup(seed)        imports done, inputs built, lazy caches warmed
  inputs(state, i)   the inputs of operation i (untimed, seeded)
  run(state, inp)    one timed operation; raises CheckFailed on a wrong
                     result

Both workloads cap the interior-point iteration count, because one full
solve at this size (128 x 128 blocks, up to 1969 dual variables)
takes 80-120 s on a 2-core machine, longer than a whole benchmark run may
last.  Every iteration of a solve does the same dense work, so the capped
operation's time scales the full solve's time, but the one-time block
set-up weighs more in a capped operation than in a full solve: judge
changes to the per-iteration work on the traced ``sdp.iter_s_p50`` and
``sdp.solve_conic.self_s``.  ``reference.py`` runs the full solves and
records their results and wall times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from icoswitch import cli, witness
from icoswitch import procmat as pm
from icoswitch.paulialg import PauliContext, sparse_coeffs_to_matrix
from icoswitch.qmath import LabeledOperator

# Interior-point iterations per solve: paper_run's witness solve and each
# order's solve in cone_certify.
WITNESS_ITERATIONS = 2
CONE_ITERATIONS = 2

# Tr[S W_switch] of the ideal-switch witness iterate after WITNESS_ITERATIONS
# steps, and the certified optimum the full solve reaches in 16 iterations
# (both from reference.py witness).
WITNESS_ITERATE_VALUE = 0.9641385554785636
WITNESS_OPTIMUM = -0.4248390751
ITERATE_RTOL = 1e-6

CONE_C_RANGE = (0.0, 2.5)   # non-member, boundary and member candidates
TOMO_PAIRS = 30000
TOMO_MIN_FIDELITY = 0.95

_CTX = PauliContext(pm.NQUBITS)


class CheckFailed(AssertionError):
    """An operation returned, but its output failed the correctness gate."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _op_rng(seed, i):
    return np.random.default_rng([int(seed), int(i)])


class CappedSolve:
    """Stand-in for ``witness.solve_conic`` that caps the iteration count
    and keeps every returned solution for the correctness gate."""

    def __init__(self, solve, maxiter):
        self.solve = solve
        self.maxiter = maxiter
        self.solutions = []

    def __call__(self, *args, **kwargs):
        kwargs["maxiter"] = self.maxiter
        sol = self.solve(*args, **kwargs)
        self.solutions.append(sol)
        return sol


# -- paper_run ------------------------------------------------------------------

WITNESS_ARGV = ("witness", "--model", "procmat", "--distinguishability", "0")


def witness_command(cap, outdir: Path):
    """The `witness` command on the ideal switch, its solve capped.

    The command's own ``cli.solve_reference_witness`` builds the span and
    runs the (capped) witness optimization.  A capped solve is not
    optimal, and ``cmd_witness`` would stop there with EXIT_SOLVER; the
    steps it then skips (probability table, alpha-table cross-check,
    witness.json and probabilities.csv) are run here as ``cmd_witness``
    runs them.  Returns Tr[S W] of the iterate after the gate.
    """
    argv = [*WITNESS_ARGV, "--out", str(outdir)]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    cap.solutions.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", witness.SpanRankWarning)
        sol = cli.solve_reference_witness(config)
    _check(len(cap.solutions) == 1, f"{len(cap.solutions)} solves, not 1")
    table = pm.probability_table(config["distinguishability"])
    recomputed = witness.evaluate_witness(
        sol.alpha, witness.probs_to_witness_table(table)
    )
    payload = json.loads(witness.solution_to_json(sol))
    payload["metadata"] = cli.run_metadata(config)
    payload["value_from_probabilities"] = recomputed
    cli.write_report_files(outdir, {
        "witness.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "probabilities.csv": cli.probabilities_csv(table),
    })
    return check_witness_iterate(sol, recomputed, outdir)


def lab_commands(d_value, z, count_seed, outdir: Path):
    """`check` at distinguishability D, then `tomo` on input state z."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc_check = cli.main(["check", "--distinguishability", repr(d_value)])
        rc_tomo = cli.main([
            "tomo", "--input-state", str(z), "--pairs", str(TOMO_PAIRS),
            "--seed", str(count_seed), "--out", str(outdir),
        ])
    _check(rc_check == 0 and rc_tomo == 0,
           f"exit codes check={rc_check} tomo={rc_tomo}: {log.getvalue()}")
    mle = json.loads((outdir / "tomo.json").read_text())["mle"]
    _check(mle["psd"] is True, "MLE estimate is not PSD")
    _check(mle["fidelity"] >= TOMO_MIN_FIDELITY,
           f"MLE fidelity {mle['fidelity']:.4f} < {TOMO_MIN_FIDELITY}")


class PaperRun:
    """The paper's reproduction as a user runs it: `witness` on the ideal
    switch with the solve capped, then `check` (the three probability
    models agree) and `tomo`.

    Only the reference optimum at D = 0 is known, so the witness part is
    the same in every operation; the seed draws `check`'s D and `tomo`'s
    input state and count seed.
    """

    name = "paper_run"
    spans = (
        "cli.main", "cli.write_report_files", "witness.build_span",
        "witness.optimize_witness", "sdp.solve_conic", "sdp.gram", "sdp.dots",
        "sdp.combine", "paulialg.ShiftCache.apply",
        "paulialg.ShiftCache.apply_combined", "paulialg.pauli_coeffs",
        "paulialg.sparse_coeffs_to_matrix", "procmat.probability_table",
        "switch.setting_probabilities", "circuits.program_from_spec",
        "fock.evolve", "fock.SwitchProgram.joint_distribution",
        "tomo.simulate_counts", "tomo.reconstruct.mle",
        "tomo.reconstruct.linear", "tomo.fringe_scan",
    )

    def setup(self, seed):
        witness.build_span()   # warms the catalog and pattern-mask caches
        cli.load_circuit()
        cap = CappedSolve(witness.solve_conic, WITNESS_ITERATIONS)
        witness.solve_conic = cap
        return {"cap": cap, "seed": seed}

    def teardown(self, state):
        witness.solve_conic = state["cap"].solve

    def inputs(self, state, i):
        rng = _op_rng(state["seed"], i)
        d_value = float(rng.uniform(0.0, 1.0))
        z = int(rng.integers(1, 4))
        count_seed = int(rng.integers(0, 2**31 - 1))
        return d_value, z, count_seed

    def run(self, state, inp, outdir: Path):
        d_value, z, count_seed = inp
        witness_command(state["cap"], outdir)
        lab_commands(d_value, z, count_seed, outdir)


def check_witness_iterate(sol, recomputed, outdir):
    _check(sol.status == "max_iterations"
           and sol.iterations == WITNESS_ITERATIONS,
           f"solver ended {sol.status} after {sol.iterations} iterations")
    w = pm.dephase_order_coherence(pm.w_switch(), 0.0)
    value = float(np.real(np.trace(sol.s_op.entries @ w.entries)))
    _check(abs(recomputed - value) <= 1e-9,
           f"alpha table gives {recomputed!r}, operator gives {value!r}")
    ref = WITNESS_ITERATE_VALUE
    _check(abs(value - ref) <= ITERATE_RTOL * abs(ref),
           f"iterate value {value!r} differs from reference {ref!r}")
    written = json.loads((outdir / "witness.json").read_text())
    _check(written["value_from_probabilities"] == recomputed,
           "witness.json does not hold the computed value")
    return value


# -- cone_certify ---------------------------------------------------------------

def cone_candidate(span, rng):
    """S = c 1 + Q with Q a random unit-norm operator in the catalog span."""
    c = float(rng.uniform(*CONE_C_RANGE))
    q = rng.normal(size=span.rank)
    q /= np.linalg.norm(q)
    mat = sparse_coeffs_to_matrix(span.support, span.onb.T @ q, _CTX)
    mat = mat + c * np.eye(pm.SIDE)
    return c, LabeledOperator(pm.CANONICAL, pm.DIMS, mat)


class ConeCertify:
    """``witness.dual_cone_check`` on seeded candidates, solves capped.

    The capped check cannot decide membership, so the gate checks that
    both order solves ran their iterations without a solver failure and
    left strictly interior, finite iterates.  ``reference.py cone`` runs
    the uncapped check with the full membership gate.
    """

    name = "cone_certify"
    spans = (
        "witness.dual_cone_check", "sdp.solve_conic", "sdp.gram", "sdp.dots",
        "sdp.combine", "paulialg.ShiftCache.apply",
        "paulialg.ShiftCache.apply_combined", "paulialg.pauli_coeffs",
        "paulialg.sparse_coeffs_to_matrix",
    )

    def setup(self, seed):
        witness._order_patterns("A->B")   # warms the pattern-mask cache
        cap = CappedSolve(witness.solve_conic, CONE_ITERATIONS)
        witness.solve_conic = cap
        return {"span": witness.build_span(), "cap": cap, "seed": seed}

    def teardown(self, state):
        witness.solve_conic = state["cap"].solve

    def inputs(self, state, i):
        return cone_candidate(state["span"], _op_rng(state["seed"], i))

    def run(self, state, inp, outdir: Path):
        _, s_op = inp
        cap = state["cap"]
        cap.solutions.clear()
        report = witness.dual_cone_check(s_op)
        _check(len(cap.solutions) == 2,
               f"{len(cap.solutions)} solves instead of one per order")
        for order, sol in zip(("A->B", "B->A"), cap.solutions):
            _check(report.statuses[order] == sol.status == "max_iterations",
                   f"{order} solve ended {sol.status}")
            _check(np.all(np.isfinite(sol.y)) and math.isfinite(sol.gap)
                   and sol.gap > 0, f"{order} iterate is not finite")
            for kind, blocks in (("X", sol.x_blocks), ("Z", sol.z_blocks)):
                for mat in blocks.values():
                    low = np.linalg.eigvalsh(mat)[0]
                    _check(low > 0, f"{order} {kind} block left the cone "
                           f"(smallest eigenvalue {low:.3e})")
        _check(report.member is None,
               f"capped check decided member={report.member}")
        return None


def certify_cone_report(s_op, report, rng, tol=1e-6):
    """The membership gate for an uncapped dual_cone_check.

    Raises CheckFailed when the check is undecided, a certificate S - R
    fails its eigenvalue bound, a PSD S is rejected, or S is accepted
    while a random ordered process W has Tr[S W] < 0.
    """
    s = np.asarray(s_op.entries)
    _check(report.member is not None,
           f"membership undecided, statuses {report.statuses}")
    for order, (cert, _resid) in report.decomposition.items():
        low = float(np.linalg.eigvalsh(cert)[0])
        t_star = report.margins[order]
        _check(low >= t_star - tol,
               f"{order}: S - R has eigenvalue {low:.3e} < t* {t_star:.3e}")
    if np.linalg.eigvalsh(s)[0] >= 0.0:
        _check(report.member is True, "PSD candidate rejected")
    for order in ("A->B", "B->A"):
        w = pm.random_ordered(order, rng)
        tr = float(np.real(np.trace(s @ w.entries)))
        if tr < -tol:
            _check(report.member is False,
                   f"accepted although Tr[S W_{order}] = {tr:.3e} < 0")


WORKLOADS = {wl.name: wl for wl in (PaperRun(), ConeCertify())}
