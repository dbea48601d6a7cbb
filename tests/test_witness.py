"""Witness-machinery tests.

The full-span optimization is expensive (one interior-point solve on the
ideal switch takes a couple of minutes), so it runs once as a session
fixture shared with the acceptance suite (see conftest).
"""

import numpy as np
import pytest

from icoswitch import procmat as pm
from icoswitch import witness as wt
from icoswitch.qmath import LabeledOperator


@pytest.fixture(scope="module")
def small_span():
    return wt.build_span(x_subset=[1, 2])


def test_span_covers_all_settings(full_span):
    assert len(full_span.keys) == 720
    assert full_span.rank > 0
    assert full_span.rank <= 720
    # keys follow the (b, d, x, y, z) layout with y in 1..6
    b, d, x, y, z = full_span.keys[0]
    assert (b, d) in [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert 1 <= y <= 6 and 1 <= z <= 3 and 1 <= x <= 10


def test_alpha_map_reproduces_onb():
    span = wt.build_span(x_subset=[1, 3])
    rng = np.random.default_rng(0)
    s = rng.normal(size=span.rank)
    coeffs = span.onb.T @ s
    alpha = span.alpha_map @ s
    rebuilt = span.raw.T @ alpha
    assert np.abs(rebuilt - coeffs).max() < 1e-9


def test_dual_cone_identity_and_negative_identity():
    eye = LabeledOperator(pm.CANONICAL, pm.DIMS, np.eye(pm.SIDE))
    rep = wt.dual_cone_check(eye)
    assert rep.member is True
    assert all(v > -1e-9 for v in rep.margins.values())
    rep_neg = wt.dual_cone_check(-1.0 * eye)
    assert rep_neg.member is False


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
    mix = {k: lam * t1[k] + (1 - lam) * t2[k] for k in t1}
    lhs = wt.evaluate_witness(alpha, mix)
    rhs = (lam * wt.evaluate_witness(alpha, t1)
           + (1 - lam) * wt.evaluate_witness(alpha, t2))
    assert abs(lhs - rhs) < 1e-12


def test_evaluate_witness_rejects_index_mismatch(witness_solution):
    table = wt.probs_to_witness_table(pm.probability_table(0.0))
    bad = dict(table)
    bad.pop(sorted(bad)[0])
    with pytest.raises(KeyError, match="missing"):
        wt.evaluate_witness(witness_solution.alpha, bad)
    bad2 = dict(table)
    bad2[("bogus",)] = 0.1
    with pytest.raises(KeyError, match="unexpected"):
        wt.evaluate_witness(witness_solution.alpha, bad2)


@pytest.mark.slow
def test_nested_span_monotonicity(witness_solution):
    # removing Alice unitaries never improves (lowers) the optimum
    w = pm.w_switch()
    subsets = [[1, 3], [1, 3, 5], [1, 3, 5, 8], [1, 3, 5, 8, 10]]
    values = []
    for xs in subsets:
        span = wt.build_span(x_subset=xs)
        sol = wt.optimize_witness(w, span)
        assert sol.status == "optimal"
        values.append(sol.value)
    values.append(witness_solution.value)  # the full span
    for smaller, larger in zip(values, values[1:]):
        assert smaller >= larger - 1e-6


def test_serialization_round_trip(witness_solution):
    text = wt.solution_to_json(witness_solution)
    alpha = wt.alpha_from_json(text)
    assert alpha == witness_solution.alpha
    import json

    payload = json.loads(text)
    assert abs(payload["value"] - witness_solution.value) < 1e-12
    key = sorted(payload["alpha"])[0]
    assert len(key.split(",")) == 5  # b,d,x,y,z


def test_small_span_witness_still_negative(small_span):
    # two Alice unitaries already certify causal nonseparability
    with pytest.warns(wt.SpanRankWarning, match=str(small_span.rank)):
        sol = wt.optimize_witness(pm.w_switch(), small_span)
    assert sol.status == "optimal"
    assert sol.value < -1e-3
    rep = wt.dual_cone_check(sol.s_op, margin=1e-6)
    assert rep.member is True


def test_witness_blocks_build_each_table_set_once(full_span):
    from icoswitch.paulialg import _cached_shift_tables

    _cached_shift_tables.cache_clear()
    blocks, *_ = wt._span_blocks(full_span, "white-noise")
    t_ab, t_ba = (bl.columns for bl in blocks)
    # A->B patterns, B->A patterns and the span support: the support's
    # tables are built for T_ab and reused by T_ba
    info = _cached_shift_tables.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    shared = t_ab._dense_cache, t_ba._dense_cache
    for name in ("tgt", "re", "im"):
        assert getattr(shared[0], name) is getattr(shared[1], name)
    for cache in (t_ab._unit_cache, t_ab._dense_cache, t_ba._unit_cache):
        for table in (cache.tgt, cache.re, cache.im):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
