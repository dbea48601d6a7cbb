"""Dense primal-dual interior-point solver for small semidefinite programs.

The engine solves the standard conic pair

    (P)  min  sum_b <C_b, X_b> + f.u     s.t.  A(X) + G u = b,  X_b >= 0
    (D)  max  b.y                        s.t.  Z_b = C_b - At(y)_b >= 0,
                                               Gt y = f

with Hermitian blocks, using Nesterov-Todd (NT) scaling and a Mehrotra
predictor-corrector.  The Schur complement H_ij = sum_b <A_i, W A_j W> is
assembled per block through a column provider, so witness-sized problems
(64-side blocks, a few thousand scalar variables) use the Pauli-product
structure of their operators instead of dense congruences.  Pauli columns
are single products P_s (x) 1 and dense rows Q_l over a pattern support;
their Gram is assembled per class pair (after SDPA's F1/F2/F3 choice,
Fujisawa, Kojima & Nakata 1997): unit x unit by ``pauli_pair_traces``,
unit x dense from the coefficients of W Q_l W, and dense x dense from the
(Re, Im) coefficients Phi of Q_l W, gathered from shift tables, as Re Phi
Re Phi^T - Im Phi Im Phi^T.  Where every dense row is I or X on a sector
qubit, every unit I, and C commutes with X there, so does every iterate:
W = W+ (+) W- in that X eigenbasis, and the Gram is the sum of two
half-side Grams (Gatermann & Parrilo 2004).  A block may stand for
identical copies of itself (``Block.copies``), the form every block takes
when no operator of the problem acts on some factor.

The NT scaling of a block comes from X = L L^H, Z = R R^H and the SVD
R^H L = U Lam V^H:  G = L V Lam^-1/2 gives G^-1 X G^-H = G^H Z G = Lam,
diagonal, and W = G G^H.  Directions stay scaled, dX_s = G^-1 dX G^-H and
dZ_s = G^H dZ G, so the linearized complementarity Lam T + T Lam = 2 R is
solved elementwise and a step length is an eigenvalue of Lam^-1/2 D
Lam^-1/2.  An iteration runs the phases ``_residuals``,
``_scaling_and_schur`` (H in pieces: a variable one block alone holds,
with no free column, meets only that block's), ``_factored`` (those
variables eliminated by the Cholesky factor of their block's part, at the
first passing shift of a ladder), then ``_directions`` with one
``_newton_solve`` and ``_step_lengths``, for the predictor and for the
corrector; each Gram and Newton system is freed before the next Gram.
Non-finite input or H, an exhausted ladder or a singular Gt H^-1 G end
it ``numerical_failure``, a failed X or Z Cholesky ``stalled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .paulialg import (PauliContext, ShiftCache, pauli_coeffs,
                       pauli_coeffs_batch, pauli_pair_traces, qubit_blocks,
                       sparse_coeffs_to_matrix, split_qubit)

# -- column providers ----------------------------------------------------------

class DenseColumns:
    """Constraint operators stored as dense Hermitian matrices."""

    def __init__(self, side, indices, mats):
        self.side = int(side)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.mats = np.asarray(mats, dtype=complex)
        if self.mats.shape != (len(self.indices), side, side):
            raise ValueError("column shape mismatch")

    def gram(self, w):
        m = self.mats
        waw = w @ m @ w
        flat = m.reshape(len(self.indices), -1)
        return np.real(flat.conj() @ waw.reshape(len(self.indices), -1).T)

    def dots(self, mat):
        return np.real(
            self.mats.reshape(len(self.indices), -1).conj() @ mat.reshape(-1)
        )

    def combine(self, yloc):
        return np.tensordot(yloc, self.mats, axes=(0, 0))


def _on_active(patterns, ctx):
    """(A, local): the sorted qubits A on which some pattern is not the
    identity, and the patterns' indices as Pauli products on A alone."""
    digits = ctx.digits[patterns]
    qubits = np.flatnonzero((digits != 0).any(axis=0))
    place = 4 ** np.arange(len(qubits) - 1, -1, -1)
    return qubits, digits[:, qubits].astype(np.int64) @ place


def _idle_blocks(ws, nqubits, active):
    """A stack of W as blocks W_ij over the idle qubits (those not in
    ``active``): (k, 2^i, 2^i, 2^a, 2^a), W_ij[b, c] = <b, i| W |c, j>."""
    idle = np.setdiff1d(np.arange(nqubits), active)
    perm = np.concatenate([idle, nqubits + idle, active, nqubits + active])
    ni, na = 2 ** len(idle), 2 ** len(active)
    return ws.reshape((len(ws),) + (2,) * (2 * nqubits)).transpose(
        0, *(perm + 1)).reshape(len(ws), ni, ni, na, na)


class PauliRows:
    """Dense operators Q_l = sum_s rows[l, s] P_s over a support; blocks on
    the same rows share one, and with it the rows on each sector frame."""

    def __init__(self, nqubits, rows, support):
        self.ctx = PauliContext(nqubits)
        self.rows = np.asarray(rows, dtype=float)
        self.support = np.asarray(support, dtype=np.int64)
        self._frames = {}

    def on_frame(self, sector):
        """(rows, cache, ops), once per sector: the rows per sector on the
        frame support (patterns that meet there summed), its ``ShiftCache``,
        and the Q_l side by side per sector, (s, side, k side).  The frame
        is all qubits but ``sector``, if one is given: there the sectors
        X = +1, -1 weigh I by (+1, +1) and X by (+1, -1); Y or Z raises
        ValueError.  With none it is all qubits, in one sector."""
        if sector not in self._frames:
            pats, signs = self.support, np.ones((1, len(self.support)))
            if sector is not None:
                digit, pats = split_qubit(pats, self.ctx.nqubits, sector)
                if (digit > 1).any():
                    raise ValueError("a pattern has Y or Z on the sector "
                                     f"qubit {sector}")
                signs = np.stack([np.ones(len(pats)), 1.0 - 2 * digit])
            support, at = np.unique(pats, return_inverse=True)
            rows = signs[:, None] * self.rows @ np.eye(len(support))[at]
            ctx = PauliContext(self.ctx.nqubits - (sector is not None))
            q = sparse_coeffs_to_matrix(support, rows, ctx)
            self._frames[sector] = (rows, ShiftCache(ctx, support), q.transpose(
                0, 2, 1, 3).reshape(len(rows), ctx.dim, -1))
        return self._frames[sector]


class PauliColumns:
    """Constraint operators given by real Pauli-pattern coefficient rows.

    ``unit_patterns`` lists operators that are single Pauli products P_s;
    ``dense``, a ``PauliRows``, the dense operators Q_l and the qubits, each
    column ``sign`` Q_l.  Unit columns come first in the local index order.
    With a ``sector`` qubit, on which C commutes with X, every dense row is
    I or X and every unit pattern I (else ValueError), the Gram
    Tr[A_i W A_j W] is the sum of the frame Grams (``PauliRows.on_frame``)
    at W's sector blocks; each is assembled per column class.  P_s (x) 1
    has P_s on the units' active frame qubits A_u, and W_ij are the blocks
    of W over the frame qubits outside A_u:

      unit x unit    sum_ij Tr[P_s W_ij P_t W_ji] on A_u, a gather and two
                     Walsh-Hadamard GEMMs per X-mask class of s;
      unit x dense   Tr[P_s N_l] from the coefficients of N_l = W Q_l W;
      dense x dense  side Re(Phi Phi^T) with Phi the coefficients of Q_l W,
                     gathered from the frame support's ``ShiftCache``.
    """

    def __init__(self, unit_indices, unit_patterns, dense_indices, dense,
                 sector=None, sign=1.0):
        self.ctx = dense.ctx
        self.side, self.nqubits = self.ctx.dim, self.ctx.nqubits
        self.unit_patterns = np.asarray(unit_patterns, dtype=np.int64)
        self.dense, self.sector, self.sign = dense, sector, float(sign)
        self.indices = np.concatenate([
            np.asarray(unit_indices, dtype=np.int64),
            np.asarray(dense_indices, dtype=np.int64),
        ])
        self.frame = PauliContext(self.nqubits - (sector is not None))
        if len(dense.rows):   # the first block on the rows builds them
            self._rows, self._cache, self._ops = dense.on_frame(sector)
        # the units on the frame, A_u and their indices on A_u
        self._units = self.unit_patterns
        if sector is not None:
            digit, self._units = split_qubit(self._units, self.nqubits, sector)
            if digit.any():
                raise ValueError("a unit pattern has X, Y or Z on the sector "
                                 f"qubit {sector}")
        self.unit_qubits, self._unit_local = _on_active(self._units,
                                                        self.frame)

    def gram(self, w):
        n_unit, ws = len(self.unit_patterns), w[None]
        if self.sector is not None:   # <+-|W|+-> of W's part commuting with X
            v = qubit_blocks(w, self.nqubits, self.sector)
            a, b = (v[0, 0] + v[1, 1]) / 2, (v[0, 1] + v[1, 0]) / 2
            ws = np.stack([a + b, a - b])
        g = np.empty((len(self.indices),) * 2)
        if n_unit:
            g[:n_unit, :n_unit] = self._unit_gram(ws)
        if len(self.dense.rows):
            g[n_unit:, n_unit:] = self.sign**2 * self._dense_gram(ws)
            if n_unit:
                ud = self.sign * self._cross_gram(ws)
                g[:n_unit, n_unit:] = ud
                g[n_unit:, :n_unit] = ud.T
        return g

    def _unit_gram(self, ws):
        # Tr[(P_s (x) 1) W (P_t (x) 1) W] = sum_ij Tr[P_s W_ij P_t W_ji],
        # summed over the sectors: one stack of their idle blocks
        wb = _idle_blocks(ws, self.frame.nqubits, self.unit_qubits)
        n = wb.shape[-1]
        return np.real(pauli_pair_traces(
            wb.reshape(-1, n, n), wb.swapaxes(-3, -4).reshape(-1, n, n),
            self._unit_local, len(self.unit_qubits)))

    def _cross_gram(self, ws):
        s, d, k = len(ws), self.frame.dim, len(self.dense.rows)
        # N[s, r, l, c] = (W Q_l W)[r, c] on each sector, two GEMMs
        nl = ((ws @ self._ops).reshape(s, d * k, d) @ ws).reshape(s, d, k, d)
        # Tr[(P_s (x) 1) N_l] is side times the P_s-coefficient of N_l
        # summed over the sectors: one transform
        m = nl.sum(axis=0).transpose(1, 0, 2)
        return d * np.real(pauli_coeffs_batch(m, self.frame.nqubits)[
            :, self._units]).T

    def _dense_gram(self, ws):
        # W is Hermitian, so its Pauli coefficients are real; Phi holds the
        # (Re, Im) coefficients of Q_l W and lives only for this call
        g = 0.0
        for w, rows in zip(ws, self._rows):
            vhat = np.real(pauli_coeffs(w, self.frame.nqubits))
            re, im = self._cache.apply_combined(vhat, rows)
            g = g + re @ re.T - im @ im.T
        return self.frame.dim * g

    def dots(self, mat):
        mhat = np.real(pauli_coeffs(mat, self.nqubits))
        return self.side * np.concatenate([
            mhat[self.unit_patterns],
            self.sign * (self.dense.rows @ mhat[self.dense.support]),
        ])

    def combine(self, yloc):
        n_unit = len(self.unit_patterns)
        pats = np.concatenate([self.unit_patterns, self.dense.support])
        vals = np.concatenate([yloc[:n_unit],
                               self.sign * (yloc[n_unit:] @ self.dense.rows)])
        return sparse_coeffs_to_matrix(pats, vals, self.ctx)


@dataclass
class Block:
    """One PSD slack block: Z(y) = C - sum_i y_i A_i; its side is C's.

    The block stands for ``copies`` identical copies, 1_copies (x) Z(y):
    every trace over it (the operator dots, the Gram, Tr(XZ), Tr(CX) and
    the side in the centering target) is weighed by ``copies``, so the
    iterates are those of the problem with the copies written out.
    """

    name: str
    c: np.ndarray
    columns: object  # DenseColumns or PauliColumns
    copies: int = 1

    def __post_init__(self):
        if self.c.shape != (self.columns.side,) * 2:
            raise ValueError(f"block {self.name!r}: C has shape {self.c.shape}, "
                             f"its columns side {self.columns.side}")
        if self.copies < 1:
            raise ValueError(f"block {self.name!r}: {self.copies} copies")

    @property
    def side(self):
        return self.c.shape[0]


@dataclass
class SdpSolution:
    status: str
    y: np.ndarray
    x_blocks: dict
    z_blocks: dict
    free: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    residuals: dict = field(default_factory=dict)

    @property
    def optimal(self):
        return self.status == "optimal"


class _Residuals(NamedTuple):
    """Residuals and objective values of one iterate."""

    r_p: np.ndarray      # b - A(X) - G u
    rd: dict             # C - At(y) - Z, per block
    r_g: np.ndarray      # f - Gt y
    gap: float           # sum_b Tr(X_b Z_b)
    pobj: float
    dobj: float
    pinf: float
    dinf: float
    ginf: float
    relgap: float


class _Direction(NamedTuple):
    dy: np.ndarray
    du: np.ndarray
    dx_s: dict           # G^-1 dX G^-H, per block
    dz_s: dict           # G^H dZ G, per block
    dz: dict


def _residuals(blocks, b, free_g, free_f, scale, x, z, y, u):
    ax = np.zeros(len(b))
    for bl in blocks:
        ax[bl.columns.indices] += bl.copies * bl.columns.dots(x[bl.name])
    r_p = b - ax - free_g @ u
    rd = {bl.name: bl.c - bl.columns.combine(y[bl.columns.indices])
          - z[bl.name] for bl in blocks}
    r_g = free_f - free_g.T @ y
    gap = float(sum(bl.copies * np.real(np.trace(x[bl.name] @ z[bl.name]))
                    for bl in blocks))
    pobj = float(sum(bl.copies * np.real(np.trace(bl.c @ x[bl.name]))
                     for bl in blocks))
    pobj += float(free_f @ u)
    dobj = float(b @ y)
    pinf = np.linalg.norm(r_p) / (1.0 + np.linalg.norm(b))
    dinf = max((np.abs(r).max() for r in rd.values()), default=0.0) / scale
    ginf = np.linalg.norm(r_g) / (1.0 + np.linalg.norm(free_f))
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return _Residuals(r_p, rd, r_g, gap, pobj, dobj, pinf, dinf, ginf, relgap)


def _nt_scaling(x, z):
    """(G, lam) with G = L V lam^-1/2 from X = L L^H, Z = R R^H and the SVD
    R^H L = U lam V^H; None when X or Z fails its Cholesky factorization."""
    try:
        lx = np.linalg.cholesky(x)
        lz = np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return None
    _, lam, vh = np.linalg.svd(lz.conj().T @ lx)
    return lx @ vh.conj().T / np.sqrt(lam), lam


def _scaling_and_schur(blocks, x, z, rd, free_g):
    """H in pieces, ((rows, places, H_pp, H_ps) per block, shared, H_ss), and
    per block (G, lam, W Rd W), W = G G^H; (None, None) when an X or Z fails
    Cholesky.  An index is private, a row, when one block alone holds it and
    its ``free_g`` row is zero; the places are the others' among the shared."""
    held = np.bincount(np.concatenate([bl.columns.indices for bl in blocks]),
                       minlength=len(free_g))
    shared = np.flatnonzero((held != 1) | free_g.any(axis=1))
    h_p, h_ss, scal = [], np.zeros((len(shared),) * 2), {}
    for bl in blocks:
        nt = _nt_scaling(x[bl.name], z[bl.name])
        if nt is None:
            return None, None
        g, lam = nt
        w = g @ g.conj().T
        w = (w + w.conj().T) / 2
        scal[bl.name] = (g, lam, w @ rd[bl.name] @ w)
        gram, idx = bl.copies * bl.columns.gram(w), bl.columns.indices
        on = np.isin(idx, shared)
        p, s = np.flatnonzero(~on), np.flatnonzero(on)
        at = np.searchsorted(shared, idx[s])
        h_p.append((idx[p], at, gram[np.ix_(p, p)], gram[np.ix_(p, s)]))
        h_ss[np.ix_(at, at)] += gram[np.ix_(s, s)]
        del gram   # not held while the next block's Gram is assembled
    return (h_p, shared, h_ss), scal


def _tri_solve(l, b):
    """L^-1 b for a lower-triangular L.  numpy has no triangular solve, so
    each diagonal block of 64 rows is an LU solve and the rest one GEMM."""
    x = np.array(b, dtype=float)
    for i in range(0, len(l), 64):
        x[i:i + 64] = np.linalg.solve(l[i:i + 64, i:i + 64], x[i:i + 64])
        x[i + 64:] -= l[i + 64:, i:i + 64] @ x[i:i + 64]
    return x


class _Factor(NamedTuple):
    """H + reg 1 eliminated onto the shared variables (see ``_eliminated``)."""

    reg: float
    private: list        # per block (rows, places, L, M)
    shared: np.ndarray
    schur: np.ndarray    # S = H_ss + reg 1 - sum M^T M
    border: tuple        # G_s (G's shared rows), S^-1 G_s, (G_s^T S^-1 G_s)^-1


def _eliminated(h, free_g, reg):
    """The _Factor at the shift reg: per block L L^T = H_pp + reg 1 and
    M = L^-1 H_ps.  LinAlgError when a block or S fails Cholesky (exactly
    when H + reg 1 does) or G_s^T S^-1 G_s is singular (no shift mends it)."""
    h_p, shared, h_ss = h
    schur = h_ss + reg * np.eye(len(h_ss))
    private = []
    for rows, at, hpp, hps in h_p:
        l = np.linalg.cholesky(hpp + reg * np.eye(len(hpp)))
        m = _tri_solve(l, hps)
        schur[np.ix_(at, at)] -= m.T @ m
        private.append((rows, at, l, m))
    np.linalg.cholesky(schur)
    g = free_g[shared]
    sg = np.linalg.solve(schur, g)
    return _Factor(reg, private, shared, schur,
                   (g, sg, np.linalg.inv(g.T @ sg)))


def _factored(h, free_g):
    """_eliminated at the first shift (1e-13, 1e-11, ... times 1 + max|H|)
    that passes; None when no shift up to 1e-2 does or H is not finite."""
    pieces = [h[2], *(a for piece in h[0] for a in piece[2:])]
    if not all(np.isfinite(a).all() for a in pieces):
        return None
    h_max = max(np.abs(a).max(initial=0.0) for a in pieces)
    reg = 1e-13 * (1.0 + h_max)
    while reg <= 1e-2 * (1.0 + h_max):
        try:
            return _eliminated(h, free_g, reg)
        except np.linalg.LinAlgError:
            reg *= 100.0
    return None


def _newton_solve(fac, rhs, r_g):
    """(dy, du) from (H + reg 1) dy + G du = rhs, Gt dy = r_g.  A block's
    rows read L^T dy_p + M dy_s = L^-1 rhs_p =: v, so S dy_s + G_s du =
    rhs_s - sum M^T v, G_s^T dy_s = r_g, and dy_p = L^-T (v - M dy_s)."""
    r_s = rhs[fac.shared]
    vs = [_tri_solve(l, rhs[rows]) for rows, _, l, _ in fac.private]
    for (_, at, _, m), v in zip(fac.private, vs):
        r_s[at] -= m.T @ v
    g, sg, gsg_inv = fac.border
    t1 = np.linalg.solve(fac.schur, r_s)
    du = gsg_inv @ (g.T @ t1 - r_g)
    dy = np.empty(len(rhs))
    dy[fac.shared] = dy_s = t1 - sg @ du
    for (rows, at, l, m), v in zip(fac.private, vs):
        # L^T with its rows and columns reversed is lower triangular
        dy[rows] = _tri_solve(l.T[::-1, ::-1], (v - m @ dy_s[at])[::-1])[::-1]
    return dy, du


def _directions(blocks, scal, res, fac, sigma_mu, pred=None):
    """The direction for the target sigma_mu; ``pred``, the predictor, adds
    the corrector's term.  T = dX_s + dZ_s solves Lam T + T Lam = 2 R,
    R = sigma_mu I - Lam^2 - sym(dX_s^pred dZ_s^pred)."""
    rhs = res.r_p.copy()
    t_mats = {}
    for bl in blocks:
        g, lam, wrdw = scal[bl.name]
        rmat = np.diag(sigma_mu - lam**2)
        if pred is not None:
            cross = pred.dx_s[bl.name] @ pred.dz_s[bl.name]
            rmat = rmat - (cross + cross.conj().T) / 2
        t_mats[bl.name] = 2.0 * rmat / (lam[:, None] + lam[None, :])
        # dX = G T G^H - W dZ W with dZ = Rd - At(dy)
        half = g @ t_mats[bl.name] @ g.conj().T - wrdw
        rhs[bl.columns.indices] -= bl.copies * bl.columns.dots(half)
    dy, du = _newton_solve(fac, rhs, res.r_g)
    dx_s, dz_s, dz = {}, {}, {}
    for bl in blocks:
        g, n = scal[bl.name][0], bl.name
        dz[n] = res.rd[n] - bl.columns.combine(dy[bl.columns.indices])
        dz_s[n] = g.conj().T @ dz[n] @ g
        dx_s[n] = t_mats[n] - dz_s[n]
    return _Direction(dy, du, dx_s, dz_s, dz)


def _max_step(scaled, lam):
    """Largest alpha <= 1 with diag(lam) + alpha scaled psd (lam > 0); 0
    when lam^-1/2 scaled lam^-1/2 overflows, so that the solve stalls."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = 1.0 / np.sqrt(lam)
        m = scaled * r[:, None] * r[None, :]
    if not np.isfinite(m).all():
        return 0.0
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    return 1.0 if lo >= 0 else min(1.0, -1.0 / lo)


def _step_lengths(d, scal):
    """Largest primal and dual steps <= 1 that keep X and Z psd."""
    ap = min(_max_step(d.dx_s[n], lam) for n, (_, lam, _) in scal.items())
    ad = min(_max_step(d.dz_s[n], lam) for n, (_, lam, _) in scal.items())
    return ap, ad


def solve_conic(blocks, b, free_g=None, free_f=None, tol=1e-7,
                gap_tol=1e-9, maxiter=60, callback=None):
    """Run the predictor-corrector iteration on the block problem.

    ``b`` is the dual objective vector (length m); each block's columns
    carry global constraint indices into it.  ``free_g``/``free_f`` add
    primal free variables, i.e. dual equality constraints  free_g.T y =
    free_f.  ``callback(it, gap, pinf, dinf)``, when given, is called once
    per iteration before the stopping test; at ``maxiter`` the objectives,
    gap and residuals are evaluated once more on the returned iterate,
    with no further callback.  A NaN or infinite entry in ``b``, a
    block's ``c`` or the free-variable data returns
    ``numerical_failure`` at once, with no iterates; ``maxiter < 1`` or
    no blocks raises ValueError.
    """
    if maxiter < 1:
        raise ValueError("maxiter must be at least 1")
    if not blocks:
        raise ValueError("solve_conic needs at least one block")
    b = np.asarray(b, dtype=float)
    m = len(b)
    if free_g is None:
        free_g, free_f = np.zeros((m, 0)), np.zeros(0)
    free_g = np.asarray(free_g, dtype=float).reshape(m, -1)
    free_f = np.asarray(free_f, dtype=float).reshape(-1)
    if not all(np.isfinite(a).all()
               for a in [b, free_g, free_f] + [bl.c for bl in blocks]):
        nan = float("nan")
        return SdpSolution("numerical_failure", np.zeros(m), {}, {},
                           np.zeros(len(free_f)), nan, nan, nan, 0)

    scale = 1.0 + max([abs(b).max() if m else 0.0]
                      + [np.abs(bl.c).max() for bl in blocks])
    x = {bl.name: scale * np.eye(bl.side, dtype=complex) for bl in blocks}
    z = {bl.name: scale * np.eye(bl.side, dtype=complex) for bl in blocks}
    y = np.zeros(m)
    u = np.zeros(len(free_f))
    copies = {bl.name: bl.copies for bl in blocks}
    total_side = sum(bl.copies * bl.side for bl in blocks)

    status = "max_iterations"
    for it in range(1, maxiter + 1):
        res = _residuals(blocks, b, free_g, free_f, scale, x, z, y, u)
        if callback is not None:
            callback(it, res.gap, res.pinf, res.dinf)
        # relgap bottoms out at the feasibility floor; the complementarity
        # gap certifies optimality once the residuals are small
        gap_ok = (res.relgap < gap_tol or res.gap
                  <= gap_tol * (1.0 + abs(res.pobj) + abs(res.dobj)))
        if gap_ok and max(res.pinf, res.dinf, res.ginf) < tol:
            status = "optimal"
            break

        h, scal = _scaling_and_schur(blocks, x, z, res.rd, free_g)
        if h is None:
            status = "stalled"
            break
        fac = _factored(h, free_g)
        if fac is None:
            status = "numerical_failure"
            break

        pred = _directions(blocks, scal, res, fac, 0.0)
        ap, ad = _step_lengths(pred, scal)
        gap_aff = float(sum(
            copies[n] * np.real(np.trace((np.diag(lam) + ap * pred.dx_s[n])
                                         @ (np.diag(lam) + ad * pred.dz_s[n])))
            for n, (_, lam, _) in scal.items()))
        sigma = min(1.0, max(0.0, gap_aff / res.gap)) ** 3
        d = _directions(blocks, scal, res, fac, sigma * (res.gap / total_side),
                        pred)
        ap, ad = _step_lengths(d, scal)
        ap, ad = min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)
        if min(ap, ad) < 1e-10:
            status = "stalled"
            break
        y = y + ad * d.dy
        u = u + ad * d.du
        for n, (g, _, _) in scal.items():
            x[n] = x[n] + ap * (g @ d.dx_s[n] @ g.conj().T)
            x[n] = (x[n] + x[n].conj().T) / 2
            z[n] = z[n] + ad * d.dz[n]
            z[n] = (z[n] + z[n].conj().T) / 2
        # this Newton system is spent: free it before the next Gram
        del h, fac, pred, d
    else:   # out of iterations: describe the iterate returned, not the last
        res = _residuals(blocks, b, free_g, free_f, scale, x, z, y, u)

    return SdpSolution(
        status, y, x, z, u, res.pobj, res.dobj, res.gap, it,
        {"pinf": res.pinf, "dinf": res.dinf, "relgap": res.relgap},
    )
