"""The names the benchmark harness in perfbench/ wraps or calls exist.

A refactor that moves one of them otherwise shows up only as a KeyError
under ``perfbench/run.py --trace 1`` or as failed benchmark operations.
The last test runs one operation of each workload through the workload's
own correctness gate (two capped solve iterations per solve) under the
benchmark's tracer, and applies its stale-wrap guard.
"""

import importlib.util
from pathlib import Path

import pytest

from icoswitch import cli, witness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_seam_resolves():
    tracing = load("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing


@pytest.mark.parametrize("owner, names", [
    (witness, ["SpanRankWarning", "solve_conic", "_order_patterns",
               "build_span", "dual_cone_check", "evaluate_witness",
               "probs_to_witness_table", "solution_to_json"]),
    (cli, ["solve_reference_witness", "run_metadata", "probabilities_csv",
           "write_report_files", "load_circuit", "config_from_args",
           "build_parser", "main"]),
], ids=["witness", "cli"])
def test_workload_names_resolve(owner, names):
    load("workloads")   # its own imports from the package resolve
    assert [n for n in names if not hasattr(owner, n)] == []


@pytest.mark.parametrize("name", ["paper_run", "cone_certify"])
def test_one_operation_passes_the_workload_gate(name, tmp_path):
    # the gates pin the capped iterate, the alpha identity and an
    # undecided capped cone check with strictly interior iterates; the
    # benchmark's stale-wrap guard then finds a call in every span the
    # workload expects
    tracing = load("tracing")
    workload = load("workloads").WORKLOADS[name]
    tracer = tracing.Tracer()
    state = workload.setup(0)
    try:
        tracer.install()
        workload.run(state, workload.inputs(state, 0), tmp_path)
    finally:
        tracer.uninstall()
        workload.teardown(state)
    assert witness.solve_conic is state["cap"].solve
    assert tracing.stale_spans(tracer, workload.spans) == []
