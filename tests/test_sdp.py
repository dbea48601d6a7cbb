import numpy as np
import pytest

from icoswitch.sdp import Block, DenseColumns, PauliColumns, solve_conic


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def test_min_trace_with_pinned_corner():
    # minimize Tr(X) s.t. X >= 0, X11 = 1  -> optimum 1
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    block = Block("X", 3, np.eye(3, dtype=complex), DenseColumns(3, [0], [e11]))
    sol = solve_conic([block], np.array([1.0]))
    assert sol.optimal
    assert abs(sol.primal_objective - 1.0) < 1e-7
    assert abs(sol.primal_objective - sol.dual_objective) < 1e-7
    x = sol.x_blocks["X"]
    assert np.linalg.eigvalsh(x)[0] > -1e-9
    assert abs(x[0, 0] - 1.0) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimum_eigenvalue_matches_dense_solver(seed):
    rng = np.random.default_rng(seed)
    h = rand_herm(rng, 8)
    # max t s.t. h - t I >= 0
    block = Block("S", 8, h, DenseColumns(8, [0], [np.eye(8, dtype=complex)]))
    sol = solve_conic([block], np.array([1.0]))
    assert sol.optimal
    assert abs(sol.dual_objective - np.linalg.eigvalsh(h)[0]) < 1e-7
    assert abs(sol.primal_objective - sol.dual_objective) < 1e-7


def test_feasibility_classification_matches_grid_oracle():
    # random 8x8 witness-style LMI family F0 + y1 F1 + y2 F2 >= 0 over a
    # 2-parameter box, classified by brute-force grid search
    rng = np.random.default_rng(5)
    for trial in range(4):
        f1, f2 = rand_herm(rng, 8), rand_herm(rng, 8)
        f0 = rand_herm(rng, 8) + (2.0 if trial % 2 == 0 else -6.0) * np.eye(8)
        grid = np.linspace(-1, 1, 41)
        feasible_grid = any(
            np.linalg.eigvalsh(f0 + a * f1 + b * f2)[0] >= 1e-9
            for a in grid for b in grid
        )
        # SDP: maximize t s.t. f0 + a f1 + b f2 - t I >= 0, |a|,|b| <= 1
        # box constraints via four 1x1 slack blocks
        blocks = [
            Block("M", 8, f0, DenseColumns(
                8, [0, 1, 2], [-f1, -f2, np.eye(8, dtype=complex)]
            )),
            Block("a+", 1, np.eye(1, dtype=complex),
                  DenseColumns(1, [0], [[[1.0]]])),
            Block("a-", 1, np.eye(1, dtype=complex),
                  DenseColumns(1, [0], [[[-1.0]]])),
            Block("b+", 1, np.eye(1, dtype=complex),
                  DenseColumns(1, [1], [[[1.0]]])),
            Block("b-", 1, np.eye(1, dtype=complex),
                  DenseColumns(1, [1], [[[-1.0]]])),
        ]
        sol = solve_conic(blocks, np.array([0.0, 0.0, 1.0]))
        assert sol.optimal
        feasible_sdp = sol.dual_objective >= -1e-7
        if feasible_grid:
            # the grid found a strictly feasible point, the SDP must agree
            assert feasible_sdp
        elif sol.dual_objective < -0.05:
            # SDP confidently infeasible: the grid must not find a point
            assert not feasible_grid


def test_primal_dual_gap_invariant_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(3):
        c = rand_herm(rng, 6) + 6 * np.eye(6)
        a1, a2 = rand_herm(rng, 6), rand_herm(rng, 6)
        block = Block("X", 6, c, DenseColumns(6, [0, 1], [a1, a2]))
        sol = solve_conic([block], np.array([1.0, 0.5]))
        assert sol.optimal
        assert abs(sol.primal_objective - sol.dual_objective) < 1e-7
        x = sol.x_blocks["X"]
        assert np.linalg.eigvalsh(x)[0] > -1e-8
        assert abs(np.real(np.trace(a1 @ x)) - 1.0) < 1e-6
        assert abs(np.real(np.trace(a2 @ x)) - 0.5) < 1e-6


def test_free_variable_equality_is_enforced():
    # max t s.t. diag(3, 1) - t I >= 0 and t pinned to 0.25 by an equality
    block = Block("S", 2, np.diag([3.0, 1.0]).astype(complex),
                  DenseColumns(2, [0], [np.eye(2, dtype=complex)]))
    sol = solve_conic([block], np.array([1.0]),
                      free_g=np.array([[1.0]]), free_f=np.array([0.25]))
    assert sol.optimal
    assert abs(sol.y[0] - 0.25) < 1e-7


def test_pauli_columns_agree_with_dense_columns():
    # same small LMI posed through both column providers
    rng = np.random.default_rng(13)
    from icoswitch.paulialg import PauliContext, sparse_coeffs_to_matrix

    ctx = PauliContext(2)
    pats = [1, 6, 9]
    coeffs = rng.normal(size=(2, 3))
    dense_ops = [sparse_coeffs_to_matrix(pats, row, ctx) for row in coeffs]
    c = rand_herm(rng, 4) + 4 * np.eye(4)

    dense = Block("S", 4, c, DenseColumns(4, [0, 1], dense_ops))
    sol_d = solve_conic([dense], np.array([0.7, -0.2]))

    pauli = Block("S", 4, c, PauliColumns(
        2, unit_indices=[], unit_patterns=[],
        dense_indices=[0, 1], dense_rows=coeffs, dense_support=pats,
    ))
    sol_p = solve_conic([pauli], np.array([0.7, -0.2]))
    assert sol_d.optimal and sol_p.optimal
    assert abs(sol_d.dual_objective - sol_p.dual_objective) < 1e-6
    assert np.abs(sol_d.y - sol_p.y).max() < 1e-5


def test_pauli_gram_matches_dense_gram_with_witness_signs():
    # the witness blocks' layout: unit columns with coefficient -1, then
    # negated dense rows whose shifted coefficients are partly real and
    # partly imaginary
    from icoswitch.paulialg import (PauliContext, ShiftCache, pauli_coeffs,
                                    sparse_coeffs_to_matrix)

    q = 3
    ctx = PauliContext(q)
    rng = np.random.default_rng(19)
    units = np.array([5, 18, 33, 60])
    support = np.array([0, 7, 21, 42, 63])
    rows = rng.normal(size=(3, len(support)))
    cols = PauliColumns(
        q, unit_indices=[0, 1, 2, 3], unit_patterns=units,
        dense_indices=[4, 5, 6], dense_rows=-rows, dense_support=support,
        unit_coeffs=-np.ones(len(units)),
    )
    dense = DenseColumns(8, range(7), [-ctx.dense(int(s)) for s in units]
                         + [sparse_coeffs_to_matrix(support, -r, ctx)
                            for r in rows])
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w = g @ g.conj().T + np.eye(8)
    vhat = np.real(pauli_coeffs(w, q))
    re, im = ShiftCache(ctx, support).apply_combined(vhat, -rows)
    assert np.abs(re).max() > 0.1 and np.abs(im).max() > 0.1
    expected = dense.gram(w)
    assert np.abs(cols.gram(w) - expected).max() < 1e-12 * np.abs(expected).max()


def test_unit_pattern_columns_and_signs():
    from icoswitch.paulialg import PauliContext

    ctx = PauliContext(2)
    rng = np.random.default_rng(17)
    c = rand_herm(rng, 4) + 4 * np.eye(4)
    pats = np.array([5, 10])
    dense_ops = [-ctx.dense(5), ctx.dense(10)]
    sol_d = solve_conic(
        [Block("S", 4, c, DenseColumns(4, [0, 1], dense_ops))],
        np.array([0.4, 0.1]),
    )
    sol_p = solve_conic(
        [Block("S", 4, c, PauliColumns(
            2, unit_indices=[0, 1], unit_patterns=pats,
            dense_indices=[], dense_rows=np.zeros((0, 0)),
            dense_support=[], unit_coeffs=np.array([-1.0, 1.0]),
        ))],
        np.array([0.4, 0.1]),
    )
    assert sol_d.optimal and sol_p.optimal
    assert np.abs(sol_d.y - sol_p.y).max() < 1e-5


def two_by_two(c=np.diag([3.0, 1.0])):
    """max t s.t. C - t I >= 0 on a 2 x 2 block."""
    return Block("S", 2, np.asarray(c, dtype=complex),
                 DenseColumns(2, [0], [np.eye(2, dtype=complex)]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["c", "b", "free_g", "free_f"])
def test_non_finite_input_fails_at_once(where, bad):
    c = np.diag([3.0, 1.0])
    b = np.array([1.0])
    free_g, free_f = np.array([[1.0]]), np.array([0.25])
    {"c": c, "b": b, "free_g": free_g, "free_f": free_f}[where].flat[0] = bad
    sol = solve_conic([two_by_two(c)], b, free_g=free_g, free_f=free_f)
    assert sol.status == "numerical_failure"
    assert sol.iterations == 0


def test_non_finite_schur_complement_fails_in_first_iteration():
    # finite data, but a NaN constraint operator makes H non-finite
    a = np.eye(2, dtype=complex)
    a[0, 1] = a[1, 0] = np.nan
    block = Block("S", 2, np.eye(2, dtype=complex), DenseColumns(2, [0], [a]))
    sol = solve_conic([block], np.array([1.0]))
    assert sol.status == "numerical_failure"
    assert sol.iterations == 1


def test_iteration_cap_returns_max_iterations():
    sol = solve_conic([two_by_two()], np.array([1.0]), maxiter=1)
    assert sol.status == "max_iterations"
    assert sol.iterations == 1
    assert not sol.optimal


def test_dual_infeasible_problem_stalls():
    # Z = -1 - y diag(1, -1) >= 0 needs y <= -1 and y >= 1: no dual point,
    # so the step lengths collapse
    block = Block("X", 2, -np.eye(2, dtype=complex),
                  DenseColumns(2, [0], [np.diag([1.0, -1.0]).astype(complex)]))
    sol = solve_conic([block], np.array([0.5]))
    assert sol.status == "stalled"
    assert sol.iterations < 60
