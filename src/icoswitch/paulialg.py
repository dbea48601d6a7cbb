"""Pauli-product algebra on n qubits.

Hermitian Pauli products are indexed by base-4 digit strings (digit order
I, X, Y, Z; leftmost digit = first tensor factor).  The module provides
dense <-> coefficient transforms, signed-permutation representations, and
the group-product phase machinery used to assemble operator Grams without
forming large dense products:

    P_s P_t = gamma(s, t) P_{s xor t},   gamma in {+-1, +-i},

where the pattern XOR acts on the per-qubit (x, z) symplectic labels.
Writing V = sum_u vhat_u P_u, the coefficient vector of P_s V is the
XOR-shifted, phase-twisted gather  u -> vhat_{s xor u} * gamma(s, s xor u).
For Hermitian V the coefficients vhat are real, so each gathered entry is
purely real or purely imaginary: ``ShiftCache`` keeps the gather indices
and the phase as int8 sign tables, built once per pattern set and process,
and returns the real and imaginary parts separately.  Tr[A V B V] then
reduces to two real Gram products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

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
    the process (an LRU of the last few sets), so two blocks on the same
    support and repeated solves build them once.
    """

    def __init__(self, ctx: PauliContext, rows):
        self.ctx = ctx
        self.rows = np.asarray(rows, dtype=np.int64)
        self.tgt, self.re, self.im = _cached_shift_tables(
            ctx.nqubits, tuple(self.rows.tolist()))

    def apply(self, vhat, out=None):
        """(Re F, Im F) for the cached patterns and real vhat, as float64."""
        if out is None:
            out = (np.empty(self.tgt.shape), np.empty(self.tgt.shape))
        re, im = out
        for lo in range(0, len(self.rows), _GATHER_ROWS):
            hi = lo + _GATHER_ROWS
            part = re[lo:hi]
            np.take(vhat, self.tgt[lo:hi], out=part)
            np.multiply(part, self.im[lo:hi], out=im[lo:hi])
            part *= self.re[lo:hi]
        return re, im

    def apply_combined(self, vhat, weights, out=None):
        """(Re, Im) of weights @ F for real weights."""
        f_re, f_im = self.apply(vhat)
        if out is None:
            return weights @ f_re, weights @ f_im
        np.matmul(weights, f_re, out=out[0])
        np.matmul(weights, f_im, out=out[1])
        return out


# -- dense <-> coefficient transforms ---------------------------------------

# T4[p, 2r+c] = P_p[c, r] / 2  (coefficient extraction per qubit)
_T4 = np.stack([p.T.reshape(4) / 2 for p in _PAULIS])
# T4INV[2r+c, p] = P_p[r, c]   (synthesis per qubit)
_T4INV = np.stack([p.reshape(4) for p in _PAULIS]).T


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
    """Inverse of :func:`pauli_coeffs`."""
    q = nqubits
    a = _apply_qubitwise(np.asarray(coeffs, dtype=complex), _T4INV, q)
    a = a.reshape((2, 2) * q)
    # de-interleave (r0, c0, r1, c1, ...) -> (r..., c...)
    perm = [2 * k for k in range(q)] + [2 * k + 1 for k in range(q)]
    return a.transpose(perm).reshape(2**q, 2**q)


def sparse_coeffs_to_matrix(patterns, values, ctx: PauliContext) -> np.ndarray:
    """sum_s values[s] P_s for a sparse pattern list, via signed permutations."""
    n = ctx.dim
    out = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    for s, v in zip(patterns, values):
        perm, phase = ctx.perm_phase(int(s))
        out[perm, cols] += v * phase
    return out
