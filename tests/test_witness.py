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
from icoswitch.paulialg import PAULIS, PauliContext, sparse_coeffs_to_matrix
from icoswitch.qmath import LabeledOperator, tensor
from icoswitch.sdp import PauliRows, SdpSolution


# the six qubits every witness and dual-cone block is solved on
REST = tuple(l for l in pm.CANONICAL if l != "F_t")


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


def test_cone_block_gram_memory_stays_small():
    # the dual_cone_check A->B block: 819 unit columns and one dense row;
    # its unit x unit Gram forms no 4^5 x 4^5 superoperator
    pats = wt._order_patterns("A->B")
    block = wt._target_free_block(
        "T", np.eye(pm.SIDE, dtype=complex), np.arange(len(pats)), pats,
        [len(pats)], PauliRows(6, np.ones((1, 1)), [0]))
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    w = a @ a.conj().T / 64 + np.eye(64)
    block.columns.gram(w)   # warm-up: the shift tables are cached
    tracemalloc.start()
    try:
        block.columns.gram(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_witness_solve_memory_stays_small(full_span, monkeypatch):
    # two iterations of the white-noise witness solve with its blocks built
    # in the traced region: the span operators are synthesized once for
    # both order blocks, on the two 32-side X_{F_c} sectors, and an
    # iteration's Newton system and each block's Gram are freed before the
    # next Gram is assembled; measured 66.4 MB (numpy 2.4)
    monkeypatch.setattr(wt, "WITNESS_MAXITER", 2)
    w = pm.w_switch()
    with pytest.warns(wt.SpanRankWarning):
        wt.optimize_witness(w, full_span)   # warm-up: the shift tables
    tracemalloc.start()
    try:
        with pytest.warns(wt.SpanRankWarning):
            sol = wt.optimize_witness(w, full_span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations == 2
    assert peak <= 76 * 2**20


@pytest.mark.slow
def test_dual_cone_identity_and_negative_identity():
    eye = LabeledOperator(pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE))
    rep = wt.dual_cone_check(eye)
    assert rep.member is True
    assert all(v > -1e-9 for v in rep.margins.values())
    rep_neg = wt.dual_cone_check(
        LabeledOperator(pm.CANONICAL, pm.DIMS, -np.eye(pm.SIDE)))
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


def on_f_c(pauli):
    """The Pauli matrix ``pauli`` on F_c, as a 128-side matrix."""
    others = tuple(label for label in pm.CANONICAL if label != "F_c")
    return tensor([LabeledOperator(["F_c"], [2], PAULIS[pauli]),
                   LabeledOperator(others, (2,) * 6, np.eye(64))]).entries


@pytest.mark.parametrize("pauli", [0, 1, 3], ids=["I", "X", "Z"])
def test_a_block_is_solved_in_sectors_only_when_c_commutes_with_x_on_f_c(
        pauli):
    # 1 + 0.1 X_{F_c} commutes with X_{F_c}, 1 + 0.1 Z_{F_c} does not: that
    # block keeps the six-qubit frame, one sector
    pats = wt._order_patterns("A->B")
    block = wt._target_free_block(
        "T", np.eye(pm.SIDE) + 0.1 * on_f_c(pauli), np.arange(len(pats)),
        pats, [len(pats)], PauliRows(6, np.ones((1, 1)), [0]))
    sector = None if pauli == 3 else wt._F_C
    assert block.columns.sector == sector
    assert block.columns.frame.nqubits == (6 if sector is None else 5)


@pytest.mark.slow
def test_dual_cone_check_off_the_sectors_keeps_its_margins():
    # S = 1 + 0.1 Z_{F_c} does not commute with X_{F_c}; it is checked on six
    # qubits, with the member and margins of the six-qubit solve (t* = 0.9)
    rep = wt.dual_cone_check(LabeledOperator(
        pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE) + 0.1 * on_f_c(3)))
    assert rep.member is True
    assert list(rep.margins) == list(pm.ORDERS)
    for t_star in rep.margins.values():
        assert abs(t_star - 0.8999999992521628) < 1e-10


@pytest.mark.parametrize("pauli", [1, 3], ids=["X", "Z"])
def test_dual_cone_check_rejects_an_operator_on_f_t(pauli):
    # 1 + X_{F_t} has off-diagonal F_t blocks, 1 + Z_{F_t} unequal ones;
    # neither is 1_{F_t} (x) S', so the check refuses before any solve
    on_f_t = tensor([LabeledOperator(["F_t"], [2], PAULIS[pauli]),
                     LabeledOperator(REST, (2,) * 6, np.eye(64))])
    s_op = LabeledOperator(pm.CANONICAL, pm.DIMS,
                           np.eye(pm.SIDE) + on_f_t.entries)
    with pytest.raises(ValueError, match="identity on F_t"):
        wt.dual_cone_check(s_op)
    with pytest.raises(ValueError, match="acts on F_t"):
        wt._drop_target([4**(pm.NQUBITS - 1 - pm.CANONICAL.index("F_t"))])


@pytest.mark.slow
def test_dual_cone_decomposition_is_consistent():
    rep = wt.dual_cone_check(
        LabeledOperator(pm.CANONICAL, pm.DIMS, 2.5 * np.eye(pm.SIDE)))
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


# the full-span white-noise solve on the ideal switch: its iteration count
# and certified value; 1 and 2 OpenBLAS threads (numpy 2.4, OpenBLAS
# 0.3.31) read -0.42483907508416807 and -0.42483907508416796
FULL_SPAN_ITERATIONS = 16
FULL_SPAN_VALUE = -0.42483907508416763


def test_full_span_witness_trajectory_is_pinned(witness_solution):
    assert witness_solution.iterations == FULL_SPAN_ITERATIONS
    assert abs(witness_solution.value - FULL_SPAN_VALUE) <= 1e-10


def test_witness_consistency_invariants(witness_solution, full_span):
    sol = witness_solution
    w = pm.w_switch()
    trace_val = float(np.real(np.trace(sol.s_op.entries @ w.entries)))
    assert abs(sol.value - trace_val) < 1e-6
    table = wt.probs_to_witness_table(pm.probability_table(0.0))
    assert abs(wt.evaluate_witness(sol.alpha, table) - sol.value) < 1e-6
    assert sol.s_op.is_hermitian()


# Tr[S W_switch] after two iterations of the solve on 128-side blocks
CAPPED_ITERATE = 0.9641385554785636


def test_capped_witness_iterate_is_the_128_side_iterate(monkeypatch,
                                                         full_span):
    # two 64-side blocks of two copies each start where the 128-side blocks
    # did, so the iterate is theirs
    solve, seen = wt.solve_conic, []

    def capped(blocks, b, **kwargs):
        seen.extend(blocks)
        return solve(blocks, b, **{**kwargs, "maxiter": 2})

    monkeypatch.setattr(wt, "solve_conic", capped)
    w = pm.dephase_order_coherence(pm.w_switch(), 0.0)
    with pytest.warns(wt.SpanRankWarning):
        sol = wt.optimize_witness(w, full_span)
    assert [(bl.side, bl.copies) for bl in seen] == [(64, 2), (64, 2)]
    value = float(np.real(np.trace(sol.s_op.entries @ w.entries)))
    assert abs(value - CAPPED_ITERATE) <= 1e-12 * CAPPED_ITERATE


def test_solved_blocks_lift_to_the_128_side_certificates(witness_solution,
                                                         full_span):
    # each solved block Z stands for 1_{F_t} (x) Z; lifted, it is the
    # order's certificate S - R, with R built on seven qubits from y
    sol = witness_solution
    _, layout, *_ = wt._span_blocks(full_span, "white-noise")
    s_mat = sol.s_op.entries
    for name, order, key in (("T_ab", "A->B", "v_ab"),
                             ("T_ba", "B->A", "v_ba")):
        resid = sparse_coeffs_to_matrix(
            np.flatnonzero(pm.forbidden_mask(order)), sol.solver.y[layout[key]],
            PauliContext(pm.NQUBITS))
        lifted = tensor([LabeledOperator(["F_t"], [2], np.eye(2)),
                         LabeledOperator(REST, (2,) * 6,
                                         sol.solver.z_blocks[name])])
        assert np.abs(lifted.entries - (s_mat - resid)).max() < 1e-9
        assert np.linalg.eigvalsh(lifted.entries)[0] >= -1e-9
    # the white-noise normalization Tr[S W_white] = 1, W_white = 1/16
    assert abs(np.real(np.trace(s_mat)) / 16 - 1.0) < 1e-9


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
# the README's thread-count promise; measured 7e-16 and 7e-9 between 1 and
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
    blocks, *_ = wt._span_blocks(full_span, "generalized-robustness")
    cols = [bl.columns for bl in blocks]
    # every block is solved in the two X_{F_c} sectors on the one PauliRows
    # of -Q_k (T_norm's +Q_k is its column sign): one sector form, so one
    # five-qubit shift-table set and one operator stack; the unit patterns'
    # Gram needs no tables
    assert [(c.sector, c.sign) for c in cols] == [
        (wt._F_C, 1.0), (wt._F_C, 1.0), (wt._F_C, -1.0)]
    info = _cached_shift_tables.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    for c in cols[1:]:
        assert c.dense is cols[0].dense
        assert c._cache is cols[0]._cache and c._ops is cols[0]._ops
    rows, cache, ops = cols[0]._rows, cols[0]._cache, cols[0]._ops
    k = full_span.rank
    assert rows.shape[:2] == (2, k) and ops.shape == (2, 32, k * 32)
    for name in ("tgt", "re", "im"):
        table = getattr(cache, name)
        assert table.shape == (rows.shape[2], 4**5)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
