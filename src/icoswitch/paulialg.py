"""Pauli-product algebra on n qubits.

Hermitian Pauli products are indexed by base-4 digit strings (digit order
I, X, Y, Z; leftmost digit = first tensor factor).  The module provides
dense <-> coefficient transforms (qubitwise over all 4^n coefficients;
``sparse_coeffs_to_matrix`` synthesizes batched pattern lists instead as
a Walsh-Hadamard GEMM and an XOR gather), one qubit split off patterns
(``split_qubit``) and matrices (``qubit_blocks``), the signed-permutation
form of single products (``perm_phase``/``dense``, an independent
reference), and the group-product phase machinery used to assemble
operator Grams without forming large dense products:

    P_s P_t = gamma(s, t) P_{s xor t},   gamma in {+-1, +-i},

where the pattern XOR acts on the per-qubit (x, z) symplectic labels.
Writing V = sum_u vhat_u P_u, the coefficient vector of P_s V is the
XOR-shifted, phase-twisted gather  u -> vhat_{s xor u} * gamma(s, s xor u).
For Hermitian V the coefficients vhat are real, so each gathered entry is
purely real or purely imaginary: ``ShiftCache`` keeps the gather indices
and the phase as int8 sign tables, built once per pattern set and process,
and returns the real and imaginary parts separately, over all pattern
columns or a slice of them.  Tr[A V B V] then reduces to two real Gram
products.  ``sdp.PauliColumns`` gathers this way only for its dense rows,
on a sector frame (all qubits but one where every operator is I or X);
single products take ``pauli_pair_traces`` on their active qubits (a
gather and two Walsh-Hadamard GEMMs per X-mask class), and the cross
terms the batched coefficient transform below.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PAULIS = np.array([
    np.eye(2),
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)   # I, X, Y, Z

# digit -> (x, z) symplectic bits:  I=(0,0) X=(1,0) Y=(1,1) Z=(0,1)
_DIGIT_X = np.array([0, 1, 1, 0], dtype=np.int64)
_DIGIT_Z = np.array([0, 0, 1, 1], dtype=np.int64)

_I_POW = np.array([1, 1j, -1, -1j], dtype=complex)
# i^k = _RE_SIGN[k] + 1j * _IM_SIGN[k]
_RE_SIGN = np.array([1, 0, -1, 0], dtype=np.int8)
_IM_SIGN = np.array([0, 1, 0, -1], dtype=np.int8)


@lru_cache(maxsize=None)
class PauliContext:
    """Cached lookup tables for the n-qubit Pauli group."""

    def __init__(self, nqubits: int):
        self.nqubits = int(nqubits)
        self.dim = 2**self.nqubits
        self.npatterns = 4**self.nqubits
        q, n_pat = self.nqubits, self.npatterns

        idx = np.arange(n_pat)
        digits = np.empty((n_pat, q), dtype=np.int8)
        for k in range(q):  # digit 0 is the most significant (first factor)
            digits[:, k] = (idx // 4 ** (q - 1 - k)) % 4
        self.digits = digits

        # bit (q-1-k) of the masks corresponds to qubit k, matching the
        # most-significant-first computational-basis index convention
        shifts = 2 ** np.arange(q - 1, -1, -1, dtype=np.int64)
        self.xmask = (_DIGIT_X[digits] * shifts).sum(axis=1)
        self.zmask = (_DIGIT_Z[digits] * shifts).sum(axis=1)

        pop = np.zeros(self.dim, dtype=np.int64)
        for b in range(self.dim):
            pop[b] = bin(b).count("1")
        self.popcount = pop
        self.delta = pop[self.xmask & self.zmask]  # |x & z| per pattern

        # (x, z) masks -> pattern index
        lut = np.zeros((self.dim, self.dim), dtype=np.int64)
        lut[self.xmask, self.zmask] = idx
        self.index_from_masks = lut

        # parity of bitstrings, for (-1)^{z.c} phases
        self.parity = (pop % 2).astype(np.int64)

    # -- single patterns ---------------------------------------------------

    def perm_phase(self, s: int):
        """P_s |c> = phase[c] |perm[c]> over computational basis states c."""
        c = np.arange(self.dim)
        x, z = int(self.xmask[s]), int(self.zmask[s])
        perm = c ^ x
        expo = (int(self.delta[s]) + 2 * self.parity[z & c]) % 4
        return perm, _I_POW[expo]

    def dense(self, s: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        perm, phase = self.perm_phase(s)
        out[perm, np.arange(self.dim)] = phase
        return out

    # -- group product phases ----------------------------------------------

    def xor(self, s, t):
        """Pattern index of the symplectic XOR of two patterns."""
        return self.index_from_masks[
            self.xmask[s] ^ self.xmask[t], self.zmask[s] ^ self.zmask[t]
        ]

    def product_phase(self, s, t):
        """gamma with P_s P_t = gamma(s, t) P_{s xor t}; vectorized."""
        u = self.xor(s, t)
        cross = self.popcount[self.zmask[s] & self.xmask[t]]
        expo = (self.delta[s] + self.delta[t] - self.delta[u] + 2 * cross) % 4
        return _I_POW[expo]

    def shift_tables(self, rows):
        """Gather indices and phase signs for the coefficient map of P_s V.

        Returns (tgt, re, im) with the (P_s V)-coefficient at u equal to
        vhat[tgt[s_row, u]] * (re[s_row, u] + 1j * im[s_row, u]); the phase
        is in {+-1, +-i}, so re and im are int8 in {-1, 0, 1}.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 1)
        all_idx = np.arange(self.npatterns, dtype=np.int64).reshape(1, -1)
        xs, zs = self.xmask[rows], self.zmask[rows]
        xu, zu = self.xmask[all_idx], self.zmask[all_idx]
        tgt = self.index_from_masks[xs ^ xu, zs ^ zu]  # t = s xor u
        # gamma(s, t) with s xor t = u
        cross = self.popcount[zs & (xs ^ xu)]
        expo = (self.delta[rows] + self.delta[tgt] - self.delta[all_idx]
                + 2 * cross) % 4
        return tgt.astype(np.int32), _RE_SIGN[expo], _IM_SIGN[expo]

    def shift_rows(self, rows, vhat):
        """Coefficient vectors of P_s V for each pattern s in ``rows``.

        V = sum_u vhat_u P_u; returns the (len(rows), 4^n) complex array F
        with  P_s V = sum_u F[s, u] P_u.
        """
        tgt, re, im = self.shift_tables(rows)
        return vhat[tgt] * (re + 1j * im)


_BUILD_ROWS = 256   # pattern rows per table-building step (int64 temporaries)
_GATHER_ROWS = 8    # pattern rows per gather step (index conversion in cache)
_COMBINE_COLS = 1024  # pattern columns per gather-and-multiply step


@lru_cache(maxsize=4)
def _cached_shift_tables(nqubits, rows):
    """Read-only shift tables of one pattern set, built chunk by chunk."""
    ctx = PauliContext(nqubits)
    shape = (len(rows), ctx.npatterns)
    tgt = np.empty(shape, dtype=np.int32)
    re = np.empty(shape, dtype=np.int8)
    im = np.empty(shape, dtype=np.int8)
    for lo in range(0, len(rows), _BUILD_ROWS):
        hi = lo + _BUILD_ROWS
        tgt[lo:hi], re[lo:hi], im[lo:hi] = ctx.shift_tables(rows[lo:hi])
    for table in (tgt, re, im):
        table.flags.writeable = False
    return tgt, re, im


class ShiftCache:
    """Gather tables for repeated shift_rows on fixed patterns and real vhat.

    The tables of a pattern set are shared by every cache over that set in
    the process (an LRU of the last few sets), so repeated solves on the
    same support build them once.
    """

    def __init__(self, ctx: PauliContext, rows):
        self.ctx = ctx
        self.rows = np.asarray(rows, dtype=np.int64)
        self.tgt, self.re, self.im = _cached_shift_tables(
            ctx.nqubits, tuple(self.rows.tolist()))

    def apply(self, vhat, cols=slice(None)):
        """(Re F, Im F) over the pattern columns ``cols`` of F, for the
        cached patterns and real vhat, as float64."""
        tgt = self.tgt[:, cols]
        re_sign, im_sign = self.re[:, cols], self.im[:, cols]
        re, im = np.empty((2, *tgt.shape))
        for lo in range(0, len(self.rows), _GATHER_ROWS):
            hi = lo + _GATHER_ROWS
            part = re[lo:hi]
            np.take(vhat, tgt[lo:hi], out=part)
            np.multiply(part, im_sign[lo:hi], out=im[lo:hi])
            part *= re_sign[lo:hi]
        return re, im

    def apply_combined(self, vhat, weights):
        """(Re, Im) of weights @ F for real weights.

        F is gathered by ``apply`` one column slice at a time, so it is
        never held whole.
        """
        out = np.empty((2, len(weights), self.tgt.shape[1]))
        for lo in range(0, self.tgt.shape[1], _COMBINE_COLS):
            cols = slice(lo, lo + _COMBINE_COLS)
            re, im = self.apply(vhat, cols=cols)
            np.matmul(weights, re, out=out[0, :, cols])
            np.matmul(weights, im, out=out[1, :, cols])
        return out


def split_qubit(patterns, nqubits: int, qubit: int):
    """Each pattern's digit on ``qubit`` and its index on the other qubits."""
    patterns = np.asarray(patterns, dtype=np.int64)
    low = 4 ** (nqubits - 1 - qubit)
    return patterns // low % 4, patterns // (4 * low) * low + patterns % low


def qubit_blocks(mat, nqubits: int, qubit: int) -> np.ndarray:
    """Blocks [i, j] = <i| mat |j> on ``qubit``, each on the other qubits."""
    hi, lo = 2**qubit, 2 ** (nqubits - 1 - qubit)
    blocks = np.asarray(mat).reshape(hi, 2, lo, hi, 2, lo)
    return blocks.transpose(1, 4, 0, 2, 3, 5).reshape(2, 2, hi * lo, hi * lo)


# -- dense <-> coefficient transforms ---------------------------------------

# T4[p, 2r+c] = P_p[c, r] / 2  (coefficient extraction per qubit)
_T4 = np.stack([p.T.reshape(4) / 2 for p in PAULIS])
# T4INV[2r+c, p] = P_p[r, c]   (synthesis per qubit)
_T4INV = np.stack([p.reshape(4) for p in PAULIS]).T


def _apply_qubitwise(arr, table, nqubits):
    """Apply a 4x4 per-qubit map to every digit of (..., 4**n) arrays."""
    lead = arr.shape[:-1]
    a = arr.reshape(-1, 4 ** nqubits)
    batch = a.shape[0]
    for _ in range(nqubits):
        a = a.reshape(batch * 4 ** (nqubits - 1), 4) @ table.T
        # move the processed digit to the front; n steps restore the order
        a = (
            a.reshape(batch, 4 ** (nqubits - 1), 4)
            .transpose(0, 2, 1)
            .reshape(batch, 4 ** nqubits)
        )
    return a.reshape(*lead, 4 ** nqubits)


def pauli_coeffs(mat: np.ndarray, nqubits: int) -> np.ndarray:
    """Coefficients chat with  mat = sum_s chat_s P_s  (complex array, 4^n)."""
    return pauli_coeffs_batch(mat[None], nqubits)[0]


def pauli_coeffs_batch(mats: np.ndarray, nqubits: int) -> np.ndarray:
    """Batched version of :func:`pauli_coeffs` for (..., 2^n, 2^n) input."""
    q = nqubits
    lead = mats.shape[:-2]
    a = np.asarray(mats, dtype=complex).reshape((-1,) + (2,) * (2 * q))
    # interleave row/col axes per qubit: (batch, r0, c0, r1, c1, ...)
    perm = [0] + [1 + k + off for k in range(q) for off in (0, q)]
    a = a.transpose(perm).reshape(a.shape[0], 4**q)
    return _apply_qubitwise(a, _T4, q).reshape(*lead, 4**q)


def coeffs_to_matrix(coeffs: np.ndarray, nqubits: int) -> np.ndarray:
    """Inverse of :func:`pauli_coeffs`; leading axes of ``coeffs`` are a
    batch, as in :func:`pauli_coeffs_batch`."""
    q = nqubits
    coeffs = np.asarray(coeffs, dtype=complex)
    lead = coeffs.shape[:-1]
    a = _apply_qubitwise(coeffs, _T4INV, q).reshape((-1,) + (2, 2) * q)
    # de-interleave (batch, r0, c0, r1, c1, ...) -> (batch, r..., c...)
    perm = [0] + [1 + 2 * k for k in range(q)] + [2 + 2 * k for k in range(q)]
    return a.transpose(perm).reshape(*lead, 2**q, 2**q)


def pauli_pair_traces(xs, ys, patterns, nqubits: int) -> np.ndarray:
    """G[s, t] = sum_k Tr[P_s X_k P_t Y_k] for s, t in ``patterns``.

    With P_s = i^delta_s sum_c (-1)^{z_s.c} |c xor x_s><c| (``perm_phase``),
    Tr[P_s X P_t Y] = i^(delta_s + delta_t) sum_{c,d} (-1)^{z_s.c + z_t.d}
    X[c, d xor x_t] Y[d, c xor x_s].  So per X-mask class x_s of the rows,
    a gather forms K[c, d, y] = sum_k X_k[c, d xor y] Y_k[d, c xor x_s] over
    the X-masks y of ``patterns``, and the Walsh-Hadamard matrix
    H[z, c] = (-1)^{z.c} on d and then on c (two real GEMMs) gives every
    (z_s, z_t, y) entry: an O(k 8^n) transient, and no 4^n x 4^n array.
    """
    ctx = PauliContext(nqubits)
    pats = np.asarray(patterns, dtype=np.int64)
    c = np.arange(ctx.dim)
    masks, pos = np.unique(ctx.xmask[pats], return_inverse=True)
    had = 1.0 - 2 * ctx.parity[c[:, None] & c]
    # X_k[c, d xor y] as (c, d, y, k) and Y_k[d, c] as (c, d, k)
    xg = np.asarray(xs, dtype=complex).transpose(1, 2, 0)[
        c[:, None, None], c[:, None] ^ masks]
    yt = np.asarray(ys, dtype=complex).transpose(2, 1, 0)
    zs = ctx.zmask[pats]
    cols = zs * len(masks) + pos
    phase = _I_POW[ctx.delta[pats] % 4]
    g = np.empty((len(pats),) * 2, dtype=complex)
    for i, x in enumerate(masks):
        k = np.matmul(xg, yt[c ^ x, :, :, None]).view(float)
        n = had @ np.matmul(had, k.reshape(ctx.dim, ctx.dim, -1)).reshape(
            ctx.dim, -1)   # N[z_s, z_t, y], complex pairs in the last axis
        rows = pos == i
        g[rows] = (n.view(complex)[:, cols][zs[rows]]
                   * np.outer(phase[rows], phase))
    return g


def sparse_coeffs_to_matrix(patterns, values, ctx: PauliContext) -> np.ndarray:
    """sum_s values[..., s] P_s, batched over leading axes; repeated patterns
    add.  With T[z, x] the sum of i^delta_s values_s over (x_s, z_s) = (x, z),
    M[c xor x, c] = sum_z (-1)^{z.c} T[z, x] (``perm_phase``): a Walsh-
    Hadamard GEMM on the (re, im) pairs and an XOR gather."""
    pats, pos = np.unique(np.asarray(patterns, dtype=np.int64),
                          return_inverse=True)
    order = np.argsort(pos, kind="stable")   # sum repeated patterns' values
    values = np.add.reduceat(np.asarray(values, dtype=complex)[..., order],
                             np.searchsorted(pos[order], np.arange(len(pats))),
                             axis=-1)
    lead, dim, c = values.shape[:-1], ctx.dim, np.arange(ctx.dim)
    table = np.zeros(lead + (dim * dim,), dtype=complex)
    table[..., ctx.zmask[pats] * dim + ctx.xmask[pats]] = (
        values * _I_POW[ctx.delta[pats] % 4])
    # B[c, x] = M[c xor x, c]; the table is freed once B is formed
    table = np.matmul(1.0 - 2 * ctx.parity[c[:, None] & c],
                      table.reshape(lead + (dim, dim)).view(float))
    return np.take(table.view(complex).reshape(lead + (dim * dim,)),
                   c * dim + (c[:, None] ^ c), axis=-1)
