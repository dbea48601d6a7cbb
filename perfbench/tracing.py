"""Layer spans recorded from the benchmark's own files.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers and ``Tracer.uninstall`` puts the
originals back; the package source is not changed.  Module attributes are
wrapped where callers look the name up (``witness.solve_conic`` rather
than ``sdp.solve_conic``, because ``witness`` imported the name).

Spans stay in memory: name, start, end, parent span and operation index.
A span's self time is its duration minus the durations of its direct
child spans.  ``layer_metrics`` turns them into the per-layer metrics,
given per operation.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

from icoswitch import cli, fock, paulialg, sdp, switch, tomo, witness
from icoswitch import procmat as pm

# (owner, attribute, span name); the name is that of the layer that
# defines the function, whichever module the call goes through
TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "write_report_files", "cli.write_report_files"),
    (cli, "program_from_spec", "circuits.program_from_spec"),
    (witness, "build_span", "witness.build_span"),
    (witness, "optimize_witness", "witness.optimize_witness"),
    (witness, "dual_cone_check", "witness.dual_cone_check"),
    (witness, "solve_conic", "sdp.solve_conic"),
    (witness, "pauli_coeffs", "paulialg.pauli_coeffs"),
    (witness, "sparse_coeffs_to_matrix", "paulialg.sparse_coeffs_to_matrix"),
    (sdp, "pauli_coeffs", "paulialg.pauli_coeffs"),
    (sdp, "sparse_coeffs_to_matrix", "paulialg.sparse_coeffs_to_matrix"),
    (sdp.PauliColumns, "gram", "sdp.gram"),
    (sdp.PauliColumns, "dots", "sdp.dots"),
    (sdp.PauliColumns, "combine", "sdp.combine"),
    (paulialg.ShiftCache, "apply", "paulialg.ShiftCache.apply"),
    (paulialg.ShiftCache, "apply_combined",
     "paulialg.ShiftCache.apply_combined"),
    (pm, "probability_table", "procmat.probability_table"),
    (switch, "setting_probabilities", "switch.setting_probabilities"),
    (fock, "evolve", "fock.evolve"),
    (fock.SwitchProgram, "joint_distribution",
     "fock.SwitchProgram.joint_distribution"),
    (tomo, "simulate_counts", "tomo.simulate_counts"),
    (tomo, "reconstruct", "tomo.reconstruct"),
    (tomo, "fringe_scan", "tomo.fringe_scan"),
)

_SOLVER_FAILURES = ("stalled", "numerical_failure")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counters = defaultdict(float)
        self.iter_s = []         # seconds per interior-point iteration
        self.solves = []         # final status per solve ("raised" on error)
        self.op = None
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name == "sdp.solve_conic":
            fn = self._with_iteration_clock(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "tomo.reconstruct":
                span = f"{name}.{kwargs.get('method', 'mle')}"
            idx = self._begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    def _with_iteration_clock(self, solve):
        """Time each iteration through solve_conic's ``callback``."""
        def timed(*args, **kwargs):
            stamps = []
            inner = kwargs.get("callback")

            def callback(*cb_args):
                stamps.append(time.perf_counter())
                if inner is not None:
                    inner(*cb_args)
            kwargs["callback"] = callback
            try:
                sol = solve(*args, **kwargs)
            except Exception:
                self.solves.append("raised")
                raise
            if sol.status != "optimal":   # the last iteration took a step
                stamps.append(time.perf_counter())
            self.iter_s.extend(b - a for a, b in zip(stamps, stamps[1:]))
            self.counters["sdp.iterations"] += sol.iterations
            self.solves.append(sol.status)
            return sol
        return timed

    def _after_sdp_gram(self, args, kwargs, result):
        cols = args[0]
        k = len(cols.indices)
        self.counters["sdp.gram.gflop"] += 8.0 * k * k * 4**cols.nqubits / 1e9

    def _after_cli_write_report_files(self, args, kwargs, result):
        files = args[1] if len(args) > 1 else kwargs["files"]
        self.counters["cli.bytes_written"] += sum(
            len(text.encode()) for text in files.values())

    def _after_tomo_reconstruct(self, args, kwargs, result):
        if kwargs.get("method", "mle") == "mle":
            self.counters["tomo.mle.iterations"] += result.iterations

    # -- installation ----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        """All spans as JSON lines, written once at the end of a run."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """name -> (total seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return out


_FIELDS = {"s": 0, "self_s": 1, "calls": 2}


# per-layer metrics read from one span's totals, given per operation
def _span(name, field, unit="s", better="lower"):
    return (f"{name}.{field}", unit, better, name, field)


SPAN_METRICS = (
    _span("sdp.solve_conic", "s"), _span("sdp.solve_conic", "self_s"),
    _span("sdp.solve_conic", "calls", "count"),
    _span("sdp.gram", "s"), _span("sdp.gram", "self_s"),
    _span("sdp.gram", "calls", "count"),
    _span("sdp.dots", "s"), _span("sdp.dots", "calls", "count"),
    _span("sdp.combine", "s"), _span("sdp.combine", "calls", "count"),
    _span("paulialg.ShiftCache.apply", "s"),
    _span("paulialg.ShiftCache.apply_combined", "s"),
    _span("paulialg.pauli_coeffs", "s"),
    _span("paulialg.pauli_coeffs", "calls", "count"),
    _span("paulialg.sparse_coeffs_to_matrix", "s"),
    _span("paulialg.sparse_coeffs_to_matrix", "calls", "count"),
    _span("witness.build_span", "s"),
    _span("witness.optimize_witness", "self_s"),
    _span("witness.dual_cone_check", "self_s"),
    _span("fock.evolve", "s"), _span("fock.evolve", "calls", "count"),
    _span("fock.SwitchProgram.joint_distribution", "s"),
    _span("switch.setting_probabilities", "s"),
    _span("procmat.probability_table", "s"),
    _span("circuits.program_from_spec", "s"),
    _span("circuits.program_from_spec", "calls", "count"),
    _span("tomo.simulate_counts", "s"),
    _span("tomo.reconstruct.mle", "s"),
    _span("tomo.reconstruct.linear", "s"),
    _span("tomo.fringe_scan", "s"),
    _span("cli.main", "s"), _span("cli.write_report_files", "s"),
)

# metrics computed from counters and run-level measurements
OTHER_METRICS = (
    ("sdp.iterations", "count", "lower"),
    ("sdp.iter_s_p50", "s", "lower"),
    ("sdp.ok_frac", "frac", "higher"),
    ("sdp.gram.gflop", "GFLOP", "lower"),
    ("sdp.gram.gflop_per_s", "GFLOP/s", "higher"),
    ("sdp.gram.peak_frac", "frac", "higher"),
    ("tomo.mle.iterations", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def per_layer_spec():
    """The per_layer list of BENCHMARK.json, in report order."""
    rows = [(m, u, b) for m, u, b, _, _ in SPAN_METRICS] + list(OTHER_METRICS)
    return [{"name": m, "unit": u, "better": b} for m, u, b in rows]


def layer_metrics(tracer, traced_ops, overhead_frac, peak_gflop):
    """Per-operation layer metrics from the spans of ``traced_ops`` ops.

    ``peak_gflop`` is the GEMM probe's rate; the Gram's share of peak is
    taken against the larger of it and the Gram's own rate, because a
    probe of a few repeats on a shared machine can read low.
    """
    totals = tracer.totals()
    n = max(traced_ops, 1)
    out = {}
    for metric, unit, _, name, field in SPAN_METRICS:
        row = totals.get(name, (0.0, 0.0, 0))
        value = row[_FIELDS[field]] / n
        out[metric] = (value, unit)
    c = tracer.counters
    gram_self = totals.get("sdp.gram", (0.0, 0.0, 0))[1]
    rate = c["sdp.gram.gflop"] / gram_self if gram_self > 0 else 0.0
    solves = tracer.solves
    ok = sum(s not in _SOLVER_FAILURES + ("raised",) for s in solves)
    values = {
        "sdp.iterations": c["sdp.iterations"] / n,
        "sdp.iter_s_p50": (statistics.median(tracer.iter_s)
                           if tracer.iter_s else 0.0),
        "sdp.ok_frac": ok / len(solves) if solves else 0.0,
        "sdp.gram.gflop": c["sdp.gram.gflop"] / n,
        "sdp.gram.gflop_per_s": rate,
        "sdp.gram.peak_frac": rate / max(peak_gflop, rate),
        "tomo.mle.iterations": c["tomo.mle.iterations"] / n,
        "cli.bytes_written": c["cli.bytes_written"] / n,
        "trace.overhead_frac": overhead_frac,
    }
    for metric, unit, _ in OTHER_METRICS:
        out[metric] = (values[metric], unit)
    return out


def stale_spans(tracer, expected):
    """Expected span names that recorded no call."""
    seen = {name for name, *_ in tracer.spans}
    return [name for name in expected if name not in seen]
