import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch.paulialg import (
    PauliContext,
    ShiftCache,
    coeffs_to_matrix,
    pauli_coeffs,
    pauli_coeffs_batch,
    pauli_pair_traces,
    sparse_coeffs_to_matrix,
)

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def dense_reference(ctx, s):
    out = np.array([[1]], dtype=complex)
    for d in ctx.digits[s]:
        out = np.kron(out, PAULIS[d])
    return out


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("q", [1, 2, 3])
def test_dense_matches_kron_reference(q):
    ctx = PauliContext(q)
    for s in range(ctx.npatterns):
        assert np.abs(ctx.dense(s) - dense_reference(ctx, s)).max() < 1e-14


@pytest.mark.parametrize("q", [1, 2, 3])
def test_coeff_roundtrip_and_orthogonality(q):
    ctx = PauliContext(q)
    rng = np.random.default_rng(q)
    m = rng.normal(size=(ctx.dim, ctx.dim)) + 1j * rng.normal(size=(ctx.dim, ctx.dim))
    c = pauli_coeffs(m, q)
    # coefficients agree with Tr[P_s M]/2^q
    for s in range(ctx.npatterns):
        assert abs(c[s] - np.trace(ctx.dense(s) @ m) / ctx.dim) < 1e-12
    assert np.abs(coeffs_to_matrix(c, q) - m).max() < 1e-12


@settings(max_examples=30)
@given(q=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_pauli_transform_round_trip(q, seed):
    m = rand_herm(np.random.default_rng(seed), 2**q)
    assert np.abs(coeffs_to_matrix(pauli_coeffs(m, q), q) - m).max() < 1e-12


def test_coeff_batch_matches_single():
    q = 3
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
    batch = pauli_coeffs_batch(mats, q)
    for k in range(4):
        assert np.abs(batch[k] - pauli_coeffs(mats[k], q)).max() < 1e-12
    # synthesis takes the same leading batch axes
    assert np.abs(coeffs_to_matrix(batch, q) - mats).max() < 1e-12
    assert np.abs(coeffs_to_matrix(batch.reshape(2, 2, -1), q)
                  - mats.reshape(2, 2, 8, 8)).max() < 1e-12


@pytest.mark.parametrize("q", [1, 2])
def test_product_phase_exhaustive(q):
    ctx = PauliContext(q)
    for s in range(ctx.npatterns):
        ps = ctx.dense(s)
        for t in range(ctx.npatterns):
            prod = ps @ ctx.dense(t)
            u = int(ctx.xor(s, t))
            gamma = complex(ctx.product_phase(s, t))
            assert np.abs(prod - gamma * ctx.dense(u)).max() < 1e-12


def test_product_phase_random_large():
    ctx = PauliContext(7)
    rng = np.random.default_rng(11)
    for _ in range(24):
        s, t = rng.integers(0, ctx.npatterns, size=2)
        ps, pt = ctx.dense(int(s)), ctx.dense(int(t))
        u = int(ctx.xor(s, t))
        gamma = complex(ctx.product_phase(s, t))
        assert np.abs(ps @ pt - gamma * ctx.dense(u)).max() < 1e-12


@pytest.mark.parametrize("q", [2, 3])
def test_shift_rows_matches_dense_product(q):
    ctx = PauliContext(q)
    rng = np.random.default_rng(q + 7)
    v = rand_herm(rng, ctx.dim)
    vhat = pauli_coeffs(v, q)
    rows = rng.integers(0, ctx.npatterns, size=6)
    F = ctx.shift_rows(rows, vhat)
    for r, s in enumerate(rows):
        direct = pauli_coeffs(ctx.dense(int(s)) @ v, q)
        assert np.abs(F[r] - direct).max() < 1e-11


def test_gram_identity_tr_avbv():
    # Tr[A V B V] = 2^q * sum_u F_A(u) F_B(u) with F rows from shift_rows
    q = 3
    ctx = PauliContext(q)
    rng = np.random.default_rng(29)
    v = rand_herm(rng, ctx.dim)
    vhat = pauli_coeffs(v, q)
    a_pat = [3, 17, 40]
    b_pat = [5, 17, 63]
    ca = rng.normal(size=3)
    cb = rng.normal(size=3)
    A = sparse_coeffs_to_matrix(a_pat, ca, ctx)
    B = sparse_coeffs_to_matrix(b_pat, cb, ctx)
    FA = ca @ ctx.shift_rows(a_pat, vhat)
    FB = cb @ ctx.shift_rows(b_pat, vhat)
    lhs = np.trace(A @ v @ B @ v)
    rhs = ctx.dim * (FA * FB).sum()
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=30)
@given(q=st.integers(1, 3), data=st.data())
def test_sparse_synthesis_matches_dense(q, data):
    ctx = PauliContext(q)
    pats = data.draw(st.lists(st.integers(0, ctx.npatterns - 1),
                              min_size=1, max_size=12))
    # repeated patterns, whose values add up
    pats += data.draw(st.lists(st.sampled_from(pats), max_size=6))
    vals = data.draw(st.lists(st.complex_numbers(max_magnitude=10.0),
                              min_size=len(pats), max_size=len(pats)))
    direct = sum(v * ctx.dense(p) for p, v in zip(pats, vals))
    synth = sparse_coeffs_to_matrix(pats, vals, ctx)
    assert np.abs(synth - direct).max() < 1e-12
    # a (k, npat) batch over the same patterns, repeated ones included, is
    # the stack of the k one-row calls
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(3, len(pats), 2)) @ [1, 1j]
    rows[0] = vals
    batch = sparse_coeffs_to_matrix(pats, rows, ctx)
    assert batch.shape == (3, ctx.dim, ctx.dim)
    for row, mat in zip(rows, batch):
        one = sparse_coeffs_to_matrix(pats, row, ctx)
        assert np.abs(mat - one).max() < 1e-12


@pytest.mark.parametrize("q, n_rows", [(3, None), (7, 48)])
def test_shift_cache_matches_shift_rows(q, n_rows):
    # every row at q = 3, random rows at the witness size q = 7
    ctx = PauliContext(q)
    rng = np.random.default_rng(q + 41)
    vhat = np.real(pauli_coeffs(rand_herm(rng, ctx.dim), q))
    rows = (np.arange(ctx.npatterns) if n_rows is None
            else rng.choice(ctx.npatterns, size=n_rows, replace=False))
    cache = ShiftCache(ctx, rows)
    re, im = cache.apply(vhat)
    f = ctx.shift_rows(rows, vhat)
    assert np.array_equal(re, f.real)
    assert np.array_equal(im, f.imag)
    # Hermitian V: every entry is purely real or purely imaginary
    assert not np.any((re != 0) & (im != 0))
    # a column slice gathers the same entries
    cols = slice(5, 5 + ctx.npatterns // 3)
    re_c, im_c = cache.apply(vhat, cols=cols)
    assert np.array_equal(re_c, f.real[:, cols])
    assert np.array_equal(im_c, f.imag[:, cols])


def dense_pair_traces(ctx, xs, ys, pats):
    """sum_k Tr[P_s X_k P_t Y_k] from the explicit products of ctx.dense."""
    p = np.array([ctx.dense(int(s)) for s in pats])
    px = np.matmul(p[:, None], xs).reshape(len(p), -1)
    # Tr[A B] = sum_ab A[a, b] B[b, a]
    py = np.matmul(p[:, None], ys).transpose(0, 1, 3, 2).reshape(len(p), -1)
    return px @ py.T


def general_pair(ctx, seed):
    # general (not Hermitian) X_k, Y_k, so G is not symmetric
    rng = np.random.default_rng(seed)
    shape = (3, ctx.dim, ctx.dim)
    xs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ys = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rng, xs, ys


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_pauli_pair_traces_match_dense_products(q):
    ctx = PauliContext(q)
    rng, xs, ys = general_pair(ctx, q + 47)
    pats = rng.permutation(ctx.npatterns)[:ctx.npatterns - 1]
    expected = dense_pair_traces(ctx, xs, ys, pats)
    got = pauli_pair_traces(xs, ys, pats, q)
    assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("case", ["repeats", "one-x-mask"])
def test_pauli_pair_traces_on_x_mask_classes(case):
    ctx = PauliContext(3)
    rng, xs, ys = general_pair(ctx, 53)
    if case == "repeats":   # X-masks repeat, and one pattern is listed twice
        pats = rng.choice(ctx.npatterns, size=24, replace=False)
        pats = np.append(pats, pats[5])
        assert len(np.unique(ctx.xmask[pats])) < len(np.unique(pats))
    else:
        pats = rng.permutation(np.flatnonzero(ctx.xmask == 5))
    expected = dense_pair_traces(ctx, xs, ys, pats)
    got = pauli_pair_traces(xs, ys, pats, 3)
    assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


def test_pauli_pair_traces_of_no_patterns():
    ctx = PauliContext(2)
    _, xs, ys = general_pair(ctx, 59)
    got = pauli_pair_traces(xs, ys, [], 2)
    assert got.shape == (0, 0)


@pytest.mark.parametrize("q", [3, 6])   # one partial slice; four slices
def test_apply_combined_is_weights_times_apply(q):
    ctx = PauliContext(q)
    rng = np.random.default_rng(43)
    vhat = np.real(pauli_coeffs(rand_herm(rng, ctx.dim), q))
    rows = rng.choice(ctx.npatterns, size=20, replace=False)
    weights = rng.normal(size=(5, 20))
    cache = ShiftCache(ctx, rows)
    re, im = cache.apply(vhat)
    c_re, c_im = cache.apply_combined(vhat, weights)
    assert np.abs(c_re - weights @ re).max() < 1e-13
    assert np.abs(c_im - weights @ im).max() < 1e-13
