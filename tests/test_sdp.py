import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch import procmat as pm
from icoswitch import sdp
from icoswitch.paulialg import PauliContext, sparse_coeffs_to_matrix
from icoswitch.sdp import (Block, DenseColumns, PauliColumns, PauliRows,
                           _max_step, _nt_scaling, _scaling_and_schur,
                           solve_conic)


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def test_min_trace_with_pinned_corner():
    # minimize Tr(X) s.t. X >= 0, X11 = 1  -> optimum 1
    e11 = np.zeros((3, 3), dtype=complex)
    e11[0, 0] = 1.0
    block = Block("X", np.eye(3, dtype=complex), DenseColumns(3, [0], [e11]))
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
    block = Block("S", h, DenseColumns(8, [0], [np.eye(8, dtype=complex)]))
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
            Block("M", f0, DenseColumns(
                8, [0, 1, 2], [-f1, -f2, np.eye(8, dtype=complex)]
            )),
            Block("a+", np.eye(1, dtype=complex),
                  DenseColumns(1, [0], [[[1.0]]])),
            Block("a-", np.eye(1, dtype=complex),
                  DenseColumns(1, [0], [[[-1.0]]])),
            Block("b+", np.eye(1, dtype=complex),
                  DenseColumns(1, [1], [[[1.0]]])),
            Block("b-", np.eye(1, dtype=complex),
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
        block = Block("X", c, DenseColumns(6, [0, 1], [a1, a2]))
        sol = solve_conic([block], np.array([1.0, 0.5]))
        assert sol.optimal
        assert abs(sol.primal_objective - sol.dual_objective) < 1e-7
        x = sol.x_blocks["X"]
        assert np.linalg.eigvalsh(x)[0] > -1e-8
        assert abs(np.real(np.trace(a1 @ x)) - 1.0) < 1e-6
        assert abs(np.real(np.trace(a2 @ x)) - 0.5) < 1e-6


def test_free_variable_equality_is_enforced():
    # max t s.t. diag(3, 1) - t I >= 0 and t pinned to 0.25 by an equality
    block = Block("S", np.diag([3.0, 1.0]).astype(complex),
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

    dense = Block("S", c, DenseColumns(4, [0, 1], dense_ops))
    sol_d = solve_conic([dense], np.array([0.7, -0.2]))

    pauli = Block("S", c, PauliColumns(
        unit_indices=[], unit_patterns=[],
        dense_indices=[0, 1], dense=PauliRows(2, coeffs, pats),
    ))
    sol_p = solve_conic([pauli], np.array([0.7, -0.2]))
    assert sol_d.optimal and sol_p.optimal
    assert abs(sol_d.dual_objective - sol_p.dual_objective) < 1e-6
    assert np.abs(sol_d.y - sol_p.y).max() < 1e-5


def test_pauli_gram_matches_dense_gram_with_witness_signs():
    # the witness blocks' layout: unit columns +P_s, then negated dense
    # rows whose shifted coefficients are partly real and partly imaginary
    from icoswitch.paulialg import (PauliContext, ShiftCache, pauli_coeffs,
                                    sparse_coeffs_to_matrix)

    q = 3
    ctx = PauliContext(q)
    rng = np.random.default_rng(19)
    units = np.array([5, 18, 33, 60])
    support = np.array([0, 7, 21, 42, 63])
    rows = rng.normal(size=(3, len(support)))
    cols = PauliColumns(
        unit_indices=[0, 1, 2, 3], unit_patterns=units,
        dense_indices=[4, 5, 6], dense=PauliRows(q, -rows, support),
    )
    dense = DenseColumns(8, range(7), [ctx.dense(int(s)) for s in units]
                         + [sparse_coeffs_to_matrix(support, -r, ctx)
                            for r in rows])
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    w = g @ g.conj().T + np.eye(8)
    vhat = np.real(pauli_coeffs(w, q))
    re, im = ShiftCache(ctx, support).apply_combined(vhat, -rows)
    assert np.abs(re).max() > 0.1 and np.abs(im).max() > 0.1
    expected = dense.gram(w)
    assert np.abs(cols.gram(w) - expected).max() < 1e-12 * np.abs(expected).max()


def gram_oracle_error(q, units, support, rows, rng, sector=None, sign=1.0):
    """The largest of max |PauliColumns.f - DenseColumns.f| / max |f| over
    the Gram at a random positive definite W, projected to commute with X
    on ``sector`` when one is declared, ``dots`` and ``combine``; the dense
    columns are ``sign`` Q_l."""
    ctx = PauliContext(q)
    n_unit, k = len(units), len(rows)
    cols = PauliColumns(
        unit_indices=range(n_unit), unit_patterns=units,
        dense_indices=range(n_unit, n_unit + k),
        dense=PauliRows(q, rows, support), sector=sector, sign=sign,
    )
    mats = ([ctx.dense(int(s)) for s in units]
            + [sign * sparse_coeffs_to_matrix(support, r, ctx) for r in rows])
    dense = DenseColumns(ctx.dim, range(n_unit + k),
                         np.reshape(mats, (-1, ctx.dim, ctx.dim)))
    g = rng.normal(size=(ctx.dim,) * 2) + 1j * rng.normal(size=(ctx.dim,) * 2)
    w = g @ g.conj().T + 0.1 * np.eye(ctx.dim)
    if sector is not None:
        x = ctx.dense(4 ** (q - 1 - sector))   # X on the sector qubit
        w = (w + x @ w @ x) / 2
    mat, y = rand_herm(rng, ctx.dim), rng.normal(size=n_unit + k)
    return max(np.abs(got - want).max() / np.abs(want).max()
               for got, want in ((cols.gram(w), dense.gram(w)),
                                 (cols.dots(mat), dense.dots(mat)),
                                 (cols.combine(y), dense.combine(y))))


def patterns_on(data, q, qubits, min_size, max_size, unique, sector=None,
                sector_max=1):
    """Pattern indices that are the identity off ``qubits``, and on
    ``sector`` I or, with ``sector_max`` 1, X."""
    digit = [st.integers(0, sector_max if k == sector else 3) if k in qubits
             else st.just(0) for k in range(q)]
    pats = data.draw(st.lists(st.tuples(*digit), min_size=min_size,
                              max_size=max_size, unique=unique))
    place = 4 ** np.arange(q - 1, -1, -1)
    return np.array([np.dot(d, place) for d in pats], dtype=np.int64)


@settings(max_examples=60)
@given(q=st.sampled_from([2, 3, 4]), data=st.data())
def test_pauli_gram_matches_dense_gram_per_column_class(q, data):
    # unit patterns active on one qubit up to all of them; a dense support
    # active on a superset, a subset of, or qubits disjoint from the units';
    # with a declared sector qubit, every unit is I there and every dense
    # pattern I or X, so the sectors weigh the dense rows with equal or
    # opposite signs
    sector = data.draw(st.one_of(st.none(), st.integers(0, q - 1)))
    qubits = st.sets(st.integers(0, q - 1), min_size=1)
    unit_qubits = data.draw(qubits)
    relation = data.draw(st.sampled_from(["superset", "subset", "disjoint"]))
    if relation == "superset":
        support_qubits = unit_qubits | data.draw(qubits)
    elif relation == "subset":
        support_qubits = data.draw(st.sets(st.sampled_from(sorted(unit_qubits))))
    else:
        support_qubits = set(range(q)) - unit_qubits
    units = patterns_on(data, q, unit_qubits, 0, 6, unique=True, sector=sector,
                        sector_max=0)
    support = patterns_on(data, q, support_qubits, 1, 5, unique=False,
                          sector=sector)
    n_dense = data.draw(st.integers(0 if len(units) else 1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n_dense, len(support)))
    if data.draw(st.booleans()):
        rows = -rows
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    assert gram_oracle_error(q, units, support, rows, rng, sector,
                             sign) < 1e-12


def test_pauli_gram_matches_dense_gram_at_the_witness_size(full_span):
    # A->B patterns leave F_c and F_t idle, the span support F_t; every
    # span pattern is I or X on F_c, so the block also runs in its sectors
    rng = np.random.default_rng(23)
    units = rng.choice(np.flatnonzero(pm.forbidden_mask("A->B")), size=40,
                       replace=False)
    rows = -full_span.onb[rng.choice(full_span.rank, size=5, replace=False)]
    for sector in (None, pm.CANONICAL.index("F_c")):
        err = gram_oracle_error(pm.NQUBITS, units, full_span.support, rows,
                                rng, sector)
        assert err < 1e-12


@pytest.mark.parametrize("digit, where", [
    (1, "unit"), (2, "unit"), (2, "dense"), (3, "unit"), (3, "dense")],
    ids=["X-unit", "Y-unit", "Y-dense", "Z-unit", "Z-dense"])
def test_y_or_z_on_a_declared_sector_qubit_is_rejected(where, digit):
    # qubit 0 of two is the sector; the pattern 4 digit + 1 is X, Y or Z
    # there: a unit pattern must be I on it, a dense row I or X
    bad = [4 * digit + 1]
    units, support = (bad, [1]) if where == "unit" else ([1], bad)
    with pytest.raises(ValueError, match="Y or Z on the sector qubit 0"):
        PauliColumns([0], units, [1], PauliRows(2, np.ones((1, 1)), support),
                     sector=0)


def test_unit_pattern_columns_and_signs():
    # negating a column's operator and its b entry negates its y entry
    from icoswitch.paulialg import PauliContext

    ctx = PauliContext(2)
    rng = np.random.default_rng(17)
    c = rand_herm(rng, 4) + 4 * np.eye(4)
    pats = np.array([5, 10])
    dense_ops = [-ctx.dense(5), ctx.dense(10)]
    sol_d = solve_conic(
        [Block("S", c, DenseColumns(4, [0, 1], dense_ops))],
        np.array([0.4, 0.1]),
    )
    sol_p = solve_conic(
        [Block("S", c, PauliColumns(
            unit_indices=[0, 1], unit_patterns=pats,
            dense_indices=[], dense=PauliRows(2, np.zeros((0, 0)), []),
        ))],
        np.array([-0.4, 0.1]),
    )
    assert sol_d.optimal and sol_p.optimal
    assert np.abs(sol_d.y * [-1.0, 1.0] - sol_p.y).max() < 1e-5


def two_by_two(c=np.diag([3.0, 1.0])):
    """max t s.t. C - t I >= 0 on a 2 x 2 block."""
    return Block("S", np.asarray(c, dtype=complex),
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


def test_no_step_when_the_scaled_direction_overflows():
    # lam is numerically singular, so lam^-1/2 dx lam^-1/2 overflows: no
    # step length can be certified, and no overflow warning reaches the
    # caller
    lam = np.array([1.0, 1e-300])
    dx = np.diag([1.0, -1e10]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _max_step(dx, lam) == 0.0


def rand_pd(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m @ m.conj().T + 0.1 * np.eye(d)


@pytest.mark.parametrize("side", [2, 5, 16])
def test_nt_scaling_diagonalizes_both_iterates(side):
    rng = np.random.default_rng(side)
    x, z = rand_pd(rng, side), rand_pd(rng, side)
    g, lam = _nt_scaling(x, z)
    g_inv = np.linalg.inv(g)
    w = g @ g.conj().T
    for got in (g_inv @ x @ g_inv.conj().T, g.conj().T @ z @ g):
        assert np.abs(got - np.diag(lam)).max() < 1e-12 * lam.max()
    assert np.abs(w @ z @ w - x).max() < 1e-12 * np.abs(x).max()


def test_singular_iterate_fails_the_scaling_phase():
    x = np.diag([1.0, 0.0]).astype(complex)
    assert _nt_scaling(x, np.eye(2, dtype=complex)) is None
    assert _nt_scaling(np.eye(2, dtype=complex), x) is None
    h, scal = _scaling_and_schur([two_by_two()], {"S": x},
                                 {"S": np.eye(2, dtype=complex)},
                                 {"S": np.zeros((2, 2))}, np.zeros((1, 0)))
    assert h is None and scal is None


def test_solve_stalls_when_an_iterate_fails_its_scaling(monkeypatch):
    # the second iteration's X is singular: the solve ends stalled with
    # its iterates instead of raising
    calls = []

    def singular_after_first(x, z):
        calls.append(1)
        return _nt_scaling(x if len(calls) == 1 else 0 * x, z)

    monkeypatch.setattr(sdp, "_nt_scaling", singular_after_first)
    sol = solve_conic([two_by_two()], np.array([1.0]))
    assert sol.status == "stalled"
    assert sol.iterations == 2
    assert np.isfinite(sol.x_blocks["S"]).all() and np.isfinite(sol.y).all()


def test_non_finite_schur_complement_fails_in_first_iteration():
    # finite data, but a NaN constraint operator makes H non-finite
    a = np.eye(2, dtype=complex)
    a[0, 1] = a[1, 0] = np.nan
    block = Block("S", np.eye(2, dtype=complex), DenseColumns(2, [0], [a]))
    sol = solve_conic([block], np.array([1.0]))
    assert sol.status == "numerical_failure"
    assert sol.iterations == 1
    assert set(sol.residuals) == {"pinf", "dinf", "relgap"}


def identity_pieces(blocks, free_g):
    """H in pieces at X = Z = 1, Rd = 0."""
    eye = {bl.name: np.eye(bl.side, dtype=complex) for bl in blocks}
    zero = {bl.name: np.zeros((bl.side,) * 2) for bl in blocks}
    return _scaling_and_schur(blocks, eye, eye, zero, free_g)[0]


def test_exhausted_shift_ladder_fails_in_first_iteration(monkeypatch):
    # H = -1 is finite, and no shift up to 1e-2 (1 + max|H|) makes it
    # positive definite
    block = two_by_two()
    monkeypatch.setattr(block.columns, "gram", lambda w: np.array([[-1.0]]))
    free_g = np.zeros((1, 0))
    assert sdp._factored(identity_pieces([block], free_g), free_g) is None
    sol = solve_conic([block], np.array([1.0]))
    assert sol.status == "numerical_failure"
    assert sol.iterations == 1


@pytest.mark.parametrize("free_g, free_f", [
    ([[0.0]], [1.0]),               # G = 0
    ([[1.0, 1.0]], [0.25, 0.25]),   # two equal free columns
])
def test_singular_free_variable_system_fails_in_first_iteration(free_g,
                                                                 free_f):
    # Gt H^-1 G is singular at every shift: a status, not a LinAlgError
    sol = solve_conic([two_by_two()], np.array([1.0]), free_g=free_g,
                      free_f=free_f)
    assert sol.status == "numerical_failure"
    assert sol.iterations == 1


def assembled_h(blocks, w, m):
    """The dense Schur complement sum_b copies Gram_b(W_b), m x m."""
    h = np.zeros((m, m))
    for bl in blocks:
        idx = bl.columns.indices
        h[np.ix_(idx, idx)] += bl.copies * bl.columns.gram(w[bl.name])
    return h


def cholesky_ladder(h):
    """The first shift 1e-13, 1e-11, ... times 1 + max|H| at which H passes
    Cholesky, tested on the assembled matrix."""
    reg = 1e-13 * (1.0 + np.abs(h).max())
    while True:
        try:
            np.linalg.cholesky(h + reg * np.eye(len(h)))
            return reg
        except np.linalg.LinAlgError:
            reg *= 100.0


def test_block_elimination_matches_the_assembled_newton_system():
    # private indices 0, 2, 3, 4; index 5 shared by two blocks, 6 by two
    # and 7 by three; the free column's row touches 7, and 1, which block
    # "a" alone holds
    rng = np.random.default_rng(31)
    layout = {"a": [0, 1, 5, 7], "b": [2, 5, 6, 7], "c": [3, 4, 6, 7]}
    blocks = [Block(n, rand_pd(rng, 3), DenseColumns(
        3, idx, [rand_herm(rng, 3) for _ in idx]), copies=1 + (n == "b"))
        for n, idx in layout.items()]
    m = 8
    free_g = np.zeros((m, 1))
    free_g[[1, 7], 0] = rng.normal(size=2)
    x = {bl.name: rand_pd(rng, 3) for bl in blocks}
    z = {bl.name: rand_pd(rng, 3) for bl in blocks}
    rd = {bl.name: rand_herm(rng, 3) for bl in blocks}
    h, scal = _scaling_and_schur(blocks, x, z, rd, free_g)
    assert list(h[1]) == [1, 5, 6, 7]
    assert [list(rows) for rows, *_ in h[0]] == [[0], [2], [3, 4]]
    w = {}
    for n, (g, _, _) in scal.items():
        w[n] = g @ g.conj().T
        w[n] = (w[n] + w[n].conj().T) / 2
    h_full = assembled_h(blocks, w, m)
    fac = sdp._factored(h, free_g)
    assert fac.reg == cholesky_ladder(h_full)
    kkt = np.block([[h_full + fac.reg * np.eye(m), free_g],
                    [free_g.T, np.zeros((1, 1))]])
    for _ in range(2):
        rhs, r_g = rng.normal(size=m), rng.normal(size=1)
        got = np.concatenate(sdp._newton_solve(fac, rhs, r_g))
        want = np.linalg.solve(kkt, np.concatenate([rhs, r_g]))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 64, 150])
def test_blocked_triangular_solve_matches_dense_solve(n):
    # diagonal blocks of 64 rows, the last one partial; L^-T through the
    # reversed L^T, as the elimination applies it
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    low = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        want = np.linalg.solve(low, b)
        assert np.abs(sdp._tri_solve(low, b) - want).max() < 1e-12 * np.abs(
            want).max()
    b = rng.normal(size=n)
    got = sdp._tri_solve(low.T[::-1, ::-1], b[::-1])[::-1]
    want = np.linalg.solve(low.T, b)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_shift_ladder_on_the_pieces_matches_the_assembled_cholesky(
        monkeypatch):
    # H = [[1, 0, 1], [0, 1, 1], [1, 1, 2 - 1e-6]]: each block's private
    # 1 x 1 piece passes Cholesky at every shift, the Schur complement
    # 3 reg - 1e-6 fails at the first ones, so the ladder climbs
    blocks = []
    for name, idx in (("a", [0, 2]), ("b", [1, 2])):
        bl = Block(name, np.eye(2, dtype=complex), DenseColumns(
            2, idx, [np.eye(2, dtype=complex)] * 2))
        monkeypatch.setattr(bl.columns, "gram", lambda w: np.array(
            [[1.0, 1.0], [1.0, 1.0 - 5e-7]]))
        blocks.append(bl)
    free_g = np.zeros((3, 0))
    h = identity_pieces(blocks, free_g)
    first = 1e-13 * (1.0 + (2.0 - 1e-6))
    for _, _, hpp, _ in h[0]:
        np.linalg.cholesky(hpp + first * np.eye(1))
    with pytest.raises(np.linalg.LinAlgError):
        sdp._eliminated(h, free_g, first)
    fac = sdp._factored(h, free_g)
    h_full = assembled_h(blocks, {"a": None, "b": None}, 3)
    assert fac.reg == cholesky_ladder(h_full) > first


def test_iteration_cap_returns_max_iterations():
    sol = solve_conic([two_by_two()], np.array([1.0]), maxiter=1)
    assert sol.status == "max_iterations"
    assert sol.iterations == 1
    assert not sol.optimal


def test_iteration_cap_reports_the_returned_iterate():
    # the objectives, the gap and pinf at the cap are those of the y, X and
    # Z returned, not of the iterate before the last step; no extra callback
    rng = np.random.default_rng(31)
    mats = [rand_herm(rng, 4) for _ in range(3)]
    c = rand_herm(rng, 4) + 4 * np.eye(4)
    b = rng.normal(size=3)
    calls = []
    sol = solve_conic([Block("S", c, DenseColumns(4, range(3), mats))], b,
                      maxiter=2, callback=lambda *args: calls.append(args))
    assert sol.status == "max_iterations" and len(calls) == 2
    x, z = sol.x_blocks["S"], sol.z_blocks["S"]
    r_p = b - [np.trace(m @ x).real for m in mats]
    for got, want in ((sol.dual_objective, b @ sol.y),
                      (sol.primal_objective, np.trace(c @ x).real),
                      (sol.gap, np.trace(x @ z).real),
                      (sol.residuals["pinf"],
                       np.linalg.norm(r_p) / (1.0 + np.linalg.norm(b)))):
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("maxiter", [0, -1])
def test_iteration_cap_below_one_is_rejected(maxiter):
    with pytest.raises(ValueError, match="maxiter must be at least 1"):
        solve_conic([two_by_two()], np.array([1.0]), maxiter=maxiter)


@pytest.mark.parametrize("b", [np.array([1.0]), np.zeros(0)],
                         ids=["one-constraint", "no-constraint"])
def test_no_blocks_is_rejected(b):
    with pytest.raises(ValueError, match="solve_conic needs at least one block"):
        solve_conic([], b)


def test_block_side_is_c_side_and_must_match_its_columns():
    assert two_by_two().side == 2
    with pytest.raises(ValueError, match="columns side 3"):
        Block("S", np.eye(2, dtype=complex),
              DenseColumns(3, [0], [np.eye(3, dtype=complex)]))


def test_dual_infeasible_problem_stalls():
    # Z = -1 - y diag(1, -1) >= 0 needs y <= -1 and y >= 1: no dual point,
    # so the step lengths collapse
    block = Block("X", -np.eye(2, dtype=complex),
                  DenseColumns(2, [0], [np.diag([1.0, -1.0]).astype(complex)]))
    sol = solve_conic([block], np.array([0.5]))
    assert sol.status == "stalled"
    assert sol.iterations < 60


def test_block_copies_match_the_written_out_blocks():
    # a block of two copies stands for 1_2 (x) Z: the same problem as the
    # kron(1_2, .) block written out, from the same start, next to a block
    # of one copy and a free variable, so every weighting by copies counts
    rng = np.random.default_rng(29)
    mats = [rand_herm(rng, 3) for _ in range(3)]
    c = rand_herm(rng, 3) + 4 * np.eye(3)
    scalars = rng.normal(size=(3, 1, 1))
    x0 = rand_herm(rng, 3) + 4 * np.eye(3)
    free_g = rng.normal(size=(3, 1))
    b = (np.array([2 * np.trace(m @ x0).real for m in mats])
         + scalars.ravel() + free_g[:, 0])
    pair = np.eye(2)
    single = Block("d", np.eye(1, dtype=complex), DenseColumns(1, range(3),
                                                               scalars))
    sols = [solve_conic([block, single], b, free_g=free_g, free_f=[0.0])
            for block in (
                Block("M", c, DenseColumns(3, range(3), mats), copies=2),
                Block("M", np.kron(pair, c), DenseColumns(
                    6, range(3), [np.kron(pair, m) for m in mats])))]
    two, written = sols
    assert two.optimal and written.optimal
    assert two.iterations == written.iterations
    assert np.abs(two.y - written.y).max() < 1e-12
    for attr in ("primal_objective", "dual_objective"):
        assert abs(getattr(two, attr) - getattr(written, attr)) < 1e-12
    assert np.abs(np.kron(pair, two.z_blocks["M"])
                  - written.z_blocks["M"]).max() < 1e-9


def test_block_copies_must_be_positive():
    with pytest.raises(ValueError, match="0 copies"):
        Block("S", np.eye(2, dtype=complex),
              DenseColumns(2, [0], [np.eye(2, dtype=complex)]), copies=0)


def test_witness_newton_system_splits_by_order(full_span):
    # each order's 819 forbidden-pattern variables are private to its
    # block; the span coordinates, which both blocks and the white-noise
    # free column hold, are the shared ones
    from icoswitch import witness

    blocks, layout, _, free_g, _ = witness._span_blocks(full_span,
                                                        "white-noise")
    h_p, shared, h_ss = identity_pieces(blocks, free_g)
    r = full_span.rank
    assert np.array_equal(shared, layout["s"]) and h_ss.shape == (r, r)
    for (rows, places, hpp, hps), order in zip(h_p, ("v_ab", "v_ba")):
        assert np.array_equal(rows, layout[order])
        assert np.array_equal(places, np.arange(r))
        assert hpp.shape == (819, 819) and hps.shape == (819, r)
