"""Witness-machinery tests.

The full-span optimization is expensive (one interior-point solve on the
ideal switch takes a couple of minutes), so it runs once as a session
fixture shared with the acceptance suite (see conftest).
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import icoswitch
from icoswitch import procmat as pm
from icoswitch import witness as wt
from icoswitch.qmath import LabeledOperator
from icoswitch.sdp import SdpSolution


@pytest.fixture(scope="module")
def small_span():
    return wt.build_span(x_subset=[1, 2])


def test_span_covers_all_settings(full_span):
    assert full_span.raw.shape[0] == 720
    assert np.array_equal(full_span.xs, np.arange(10))
    assert 0 < full_span.rank <= 720


def test_alpha_map_reproduces_onb():
    span = wt.build_span(x_subset=[1, 3])
    rng = np.random.default_rng(0)
    s = rng.normal(size=span.rank)
    coeffs = span.onb.T @ s
    alpha = span.alpha_map @ s
    rebuilt = span.raw.T @ alpha
    assert np.abs(rebuilt - coeffs).max() < 1e-9


def dense_span(xs):
    """Support and raw rows the direct way: every outcome operator written
    out over all 4^7 patterns, patterns forbidden in both orders zeroed,
    support = the columns left non-zero."""
    prep, alice, bob, det = pm.factor_coeffs()
    settings = [(z, x, y, r, b, d) for z in (1, 2, 3) for x in xs
                for y in (1, 2) for r in (1, 2, 3) for b in (0, 1)
                for d in (0, 1)]
    rows = np.empty((len(settings), 4**pm.NQUBITS))
    for i, (z, x, y, r, b, d) in enumerate(settings):
        rows[i] = np.real(np.kron(np.kron(np.kron(
            alice[x - 1], bob[y - 1, r - 1, b]), det[d]), prep[z - 1]))
    rows[:, pm.forbidden_mask("A->B") & pm.forbidden_mask("B->A")] = 0.0
    support = np.flatnonzero(np.abs(rows).max(axis=0) > wt.SPAN_TOL)
    return support, rows[:, support]


@pytest.mark.parametrize("xs", [[1, 2], None], ids=["x-subset", "full"])
def test_factorized_span_matches_dense_construction(xs, full_span):
    span = full_span if xs is None else wt.build_span(x_subset=xs)
    support, raw = dense_span(range(1, 11) if xs is None else xs)
    assert np.array_equal(span.support, support)
    assert np.abs(span.raw - raw).max() < 1e-15
    # same row space: equal projectors onb^T onb
    sing, vt = np.linalg.svd(raw, full_matrices=False)[1:]
    onb = vt[:int((sing > wt.SPAN_TOL * sing[0]).sum())]
    assert len(onb) == span.rank
    assert np.abs(span.onb.T @ span.onb - onb.T @ onb).max() < 1e-12


def test_build_span_memory_stays_small():
    # the outcome rows are formed on the support only, never over 4^7
    pm.factor_coeffs.cache_clear()
    tracemalloc.start()
    try:
        wt.build_span()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.slow
def test_dual_cone_identity_and_negative_identity():
    eye = LabeledOperator(pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE))
    rep = wt.dual_cone_check(eye)
    assert rep.member is True
    assert all(v > -1e-9 for v in rep.margins.values())
    rep_neg = wt.dual_cone_check(-1.0 * eye)
    assert rep_neg.member is False


@pytest.mark.parametrize("outcomes, member", [
    ([("optimal", -0.917), ("stalled", None)], False),
    ([("stalled", None), ("optimal", -0.917)], False),
    ([("max_iterations", None), ("max_iterations", None)], None),
], ids=["decided-then-stalled", "stalled-then-decided", "both-capped"])
def test_dual_cone_check_keeps_a_decided_false(monkeypatch, outcomes,
                                               member):
    # one order's certified t* < 0 decides non-membership, whatever the
    # other order's solve did; with no order decided the check is undecided
    calls = iter(outcomes)

    def solve(blocks, b, **kwargs):
        status, dobj = next(calls)
        return SdpSolution(status, np.zeros(len(b)), {}, {}, np.zeros(0),
                           dobj, dobj, 0.0, 5)

    monkeypatch.setattr(wt, "solve_conic", solve)
    eye = LabeledOperator(pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE))
    rep = wt.dual_cone_check(eye)
    assert rep.member is member
    assert list(rep.statuses.values()) == [s for s, _ in outcomes]


@pytest.mark.slow
def test_dual_cone_decomposition_is_consistent():
    eye = LabeledOperator(pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE))
    rep = wt.dual_cone_check(2.5 * eye)
    for order, (t_mat, resid) in rep.decomposition.items():
        # T = S - R with R supported on the order's forbidden patterns
        assert np.linalg.eigvalsh((t_mat + t_mat.conj().T) / 2)[0] > -1e-7
        back = pm.project_ordered(
            LabeledOperator(pm.CANONICAL, pm.DIMS, resid), order
        )
        assert np.abs(back.entries).max() < 1e-8


def test_optimized_witness_value_matches_reference(witness_solution):
    assert witness_solution.status == "optimal"
    assert abs(witness_solution.value - (-0.4248)) < 5e-3
    assert witness_solution.gap < 1e-7
    assert witness_solution.convention == "white-noise"


def test_witness_consistency_invariants(witness_solution, full_span):
    sol = witness_solution
    w = pm.w_switch()
    trace_val = float(np.real(np.trace(sol.s_op.entries @ w.entries)))
    assert abs(sol.value - trace_val) < 1e-6
    table = wt.probs_to_witness_table(pm.probability_table(0.0))
    assert abs(wt.evaluate_witness(sol.alpha, table) - sol.value) < 1e-6
    assert sol.s_op.is_hermitian()


def test_witness_member_of_dual_cone(witness_solution):
    rep = wt.dual_cone_check(witness_solution.s_op, margin=1e-6)
    assert rep.member is True


def test_witness_soundness_on_random_separable(witness_solution):
    rng = np.random.default_rng(7)
    s_mat = witness_solution.s_op.entries
    for _ in range(100):
        w_ab = pm.random_ordered("A->B", rng, kraus_rank=int(rng.integers(1, 3)))
        w_ba = pm.random_ordered("B->A", rng, kraus_rank=int(rng.integers(1, 3)))
        mix = pm.mix_orders(float(rng.uniform()), w_ab, w_ba)
        assert float(np.real(np.trace(s_mat @ mix.entries))) >= -1e-6


def test_witness_nonnegative_on_dephased_switch(witness_solution):
    table = wt.probs_to_witness_table(pm.probability_table(1.0))
    val = wt.evaluate_witness(witness_solution.alpha, table)
    assert val >= -1e-6


def test_witness_sweep_monotone_with_sign_change(witness_solution):
    values = []
    grid = np.linspace(0.0, 1.0, 21)
    for d_value in grid:
        table = wt.probs_to_witness_table(pm.probability_table(float(d_value)))
        values.append(wt.evaluate_witness(witness_solution.alpha, table))
    assert values[0] < 0.0
    assert values[-1] >= -1e-6
    assert all(values[i + 1] >= values[i] - 1e-9 for i in range(20))
    crossings = [i for i in range(20) if values[i] < 0.0 <= values[i + 1]]
    assert len(crossings) == 1


def test_evaluate_witness_linearity(witness_solution):
    alpha = witness_solution.alpha
    t1 = wt.probs_to_witness_table(pm.probability_table(0.0))
    t2 = wt.probs_to_witness_table(pm.probability_table(0.7))
    lam = 0.3125  # exactly representable
    lhs = wt.evaluate_witness(alpha, lam * t1 + (1 - lam) * t2)
    rhs = (lam * wt.evaluate_witness(alpha, t1)
           + (1 - lam) * wt.evaluate_witness(alpha, t2))
    assert abs(lhs - rhs) < 1e-12


def test_evaluate_witness_rejects_index_mismatch():
    table = pm.probability_table(0.0)
    alpha = np.zeros_like(wt.probs_to_witness_table(table))
    # a table not mapped to the witness layout, and one missing a unitary
    for bad in (table, wt.probs_to_witness_table(table[:, :9])):
        with pytest.raises(ValueError, match="shape"):
            wt.evaluate_witness(alpha, bad)


@pytest.mark.slow
def test_nested_span_monotonicity(witness_solution):
    # removing Alice unitaries never improves (lowers) the optimum
    w = pm.w_switch()
    subsets = [[1, 3], [1, 3, 5], [1, 3, 5, 8], [1, 3, 5, 8, 10]]
    values = []
    for xs in subsets:
        span = wt.build_span(x_subset=xs)
        with pytest.warns(wt.SpanRankWarning):
            sol = wt.optimize_witness(w, span)
        assert sol.status == "optimal"
        values.append(sol.value)
    values.append(witness_solution.value)  # the full span
    for smaller, larger in zip(values, values[1:]):
        assert smaller >= larger - 1e-6


def test_serialization_round_trip(witness_solution):
    text = wt.solution_to_json(witness_solution)
    payload = json.loads(text)
    assert len(payload["alpha"]) == witness_solution.alpha.size == 720
    alpha = np.full(witness_solution.alpha.shape, np.nan)
    for key, val in payload["alpha"].items():
        b, d, x, y, z = (int(v) for v in key.split(","))  # x, y, z from 1
        alpha[b, d, x - 1, y - 1, z - 1] = val
    assert np.array_equal(alpha, witness_solution.alpha)
    assert abs(payload["value"] - witness_solution.value) < 1e-12


@pytest.mark.slow
def test_small_span_witness_still_negative(small_span):
    # two Alice unitaries already certify causal nonseparability
    with pytest.warns(wt.SpanRankWarning, match=str(small_span.rank)):
        sol = wt.optimize_witness(pm.w_switch(), small_span)
    assert sol.status == "optimal"
    assert sol.value < -1e-3
    rep = wt.dual_cone_check(sol.s_op, margin=1e-6)
    assert rep.member is True
    # alpha weighs only the span's unitaries, so the full table gives C_W
    assert not sol.alpha[:, :, 2:].any()
    table = wt.probs_to_witness_table(pm.probability_table(0.0))
    assert abs(wt.evaluate_witness(sol.alpha, table) - sol.value) < 1e-6


SMALL_SPAN_SOLVE = """
import json, warnings
from icoswitch import procmat as pm, witness as wt
warnings.simplefilter("ignore", wt.SpanRankWarning)
sol = wt.optimize_witness(pm.w_switch(), wt.build_span(x_subset=[1, 2]))
print(json.dumps({"status": sol.status, "iterations": sol.iterations,
                  "value": sol.value, "alpha": sol.alpha.ravel().tolist()}))
"""
# the README's thread-count promise; measured 6e-15 and 4e-9 between 1 and
# 2 OpenBLAS threads (numpy 2.4, OpenBLAS 0.3.31)
THREADS_VALUE_BOUND = 1e-12
THREADS_ALPHA_BOUND = 1e-7


@pytest.mark.slow
def test_witness_agrees_across_blas_thread_counts():
    src = str(Path(icoswitch.__file__).resolve().parents[1])
    runs = [subprocess.Popen(
        [sys.executable, "-c", SMALL_SPAN_SOLVE], stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=src,
                            OPENBLAS_NUM_THREADS=str(threads)))
        for threads in (1, 2)]
    try:
        one, two = (json.loads(run.communicate(timeout=600)[0])
                    for run in runs)
    finally:
        for run in runs:
            run.kill()
    assert one["status"] == two["status"] == "optimal"
    assert one["iterations"] == two["iterations"]
    assert abs(one["value"] - two["value"]) <= THREADS_VALUE_BOUND
    assert np.abs(np.subtract(one["alpha"], two["alpha"])).max() \
        <= THREADS_ALPHA_BOUND


def test_witness_blocks_build_each_table_set_once(full_span):
    from icoswitch.paulialg import _cached_shift_tables

    _cached_shift_tables.cache_clear()
    blocks, *_ = wt._span_blocks(full_span, "white-noise")
    t_ab, t_ba = (bl.columns for bl in blocks)
    # only the span support holds shift tables: built for T_ab and reused
    # by T_ba; the unit patterns' Gram needs none
    info = _cached_shift_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not hasattr(t_ab, "_unit_cache")
    shared = t_ab._dense_cache, t_ba._dense_cache
    for name in ("tgt", "re", "im"):
        table = getattr(shared[0], name)
        assert table is getattr(shared[1], name)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
