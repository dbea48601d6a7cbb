"""Dense primal-dual interior-point solver for small semidefinite programs.

The engine solves the standard conic pair

    (P)  min  sum_b <C_b, X_b> + f.u     s.t.  A(X) + G u = b,  X_b >= 0
    (D)  max  b.y                        s.t.  Z_b = C_b - At(y)_b >= 0,
                                               Gt y = f

with Hermitian blocks, using Nesterov-Todd scaling and a Mehrotra
predictor-corrector.  The Schur complement H_ij = sum_b <A_i, W A_j W> is
assembled per block through a column provider, so witness-sized problems
(128-side blocks, a few thousand scalar variables) can exploit the
Pauli-product structure of their constraint operators instead of forming
dense congruences column by column.  For Pauli columns the coefficients
Phi of A_i W are gathered from shift tables cached per pattern set, and
since W is Hermitian the Gram is real:  Re(Phi Phi^T) = Re Phi Re Phi^T -
Im Phi Im Phi^T, two real symmetric products.

Each iteration factors H once by Cholesky (the positive-definiteness test
behind the regularization ladder) and solves the Newton system once in the
predictor, stacked with the free-variable columns G, and once in the
corrector, reusing H^-1 G.  Non-finite input or a non-finite H ends the
solve with status ``numerical_failure``.

Complementarity is linearized in the scaled space: with What = W^{1/2},
Lambda = What Z What and T = DX + DZ (scaled directions), the Newton
equation is the Lyapunov problem  Lambda T + T Lambda = 2 R  solved in
Lambda's eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paulialg import (
    PauliContext,
    ShiftCache,
    pauli_coeffs,
    sparse_coeffs_to_matrix,
)

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


class PauliColumns:
    """Constraint operators given by real Pauli-pattern coefficient rows.

    ``unit_patterns`` lists operators that are single Pauli products;
    ``dense_rows`` is a real (k, len(dense_support)) coefficient matrix
    over ``dense_support`` patterns.  Unit columns come first in the local
    index order.
    """

    def __init__(self, nqubits, unit_indices, unit_patterns,
                 dense_indices, dense_rows, dense_support, unit_coeffs=None):
        self.ctx = PauliContext(nqubits)
        self.side = 2**nqubits
        self.nqubits = nqubits
        self.unit_patterns = np.asarray(unit_patterns, dtype=np.int64)
        if unit_coeffs is None:
            unit_coeffs = np.ones(len(self.unit_patterns))
        self.unit_coeffs = np.asarray(unit_coeffs, dtype=float)
        self.dense_rows = np.asarray(dense_rows, dtype=float)
        self.dense_support = np.asarray(dense_support, dtype=np.int64)
        self.indices = np.concatenate([
            np.asarray(unit_indices, dtype=np.int64),
            np.asarray(dense_indices, dtype=np.int64),
        ])
        # the unit coefficients scale rows and columns of the Gram
        self._gram_scale = np.concatenate([self.unit_coeffs,
                                           np.ones(len(self.dense_rows))])
        self._unit_cache = (
            ShiftCache(self.ctx, self.unit_patterns)
            if len(self.unit_patterns) else None
        )
        self._dense_cache = (
            ShiftCache(self.ctx, self.dense_support)
            if len(self.dense_rows) else None
        )
        self._phi_buf = None

    def _phi(self, vhat):
        """Real and imaginary parts of the Pauli coefficients of A_i V for
        every local column (real ``vhat``), unit coefficients left out."""
        n_unit = len(self.unit_patterns)
        if self._phi_buf is None:
            shape = (len(self.indices), len(vhat))
            self._phi_buf = (np.empty(shape), np.empty(shape))
        re, im = self._phi_buf
        if n_unit:
            self._unit_cache.apply(vhat, out=(re[:n_unit], im[:n_unit]))
        if len(self.dense_rows):
            self._dense_cache.apply_combined(
                vhat, self.dense_rows, out=(re[n_unit:], im[n_unit:])
            )
        return re, im

    def gram(self, w):
        # W is Hermitian, so its Pauli coefficients are real
        vhat = np.real(pauli_coeffs(w, self.nqubits))
        re, im = self._phi(vhat)
        g = re @ re.T
        g -= im @ im.T
        g *= self.side * np.outer(self._gram_scale, self._gram_scale)
        return g

    def dots(self, mat):
        mhat = np.real(pauli_coeffs(mat, self.nqubits))
        unit = self.side * self.unit_coeffs * mhat[self.unit_patterns]
        dense = self.side * (self.dense_rows @ mhat[self.dense_support])
        return np.concatenate([unit, dense])

    def combine(self, yloc):
        n_unit = len(self.unit_patterns)
        coeff: dict = {}
        unit_vals = self.unit_coeffs * yloc[:n_unit]
        for pat, val in zip(self.unit_patterns, unit_vals):
            coeff[int(pat)] = coeff.get(int(pat), 0.0) + float(val)
        if len(self.dense_rows):
            dense_vals = yloc[n_unit:] @ self.dense_rows
            for pat, val in zip(self.dense_support, dense_vals):
                coeff[int(pat)] = coeff.get(int(pat), 0.0) + float(val)
        pats = list(coeff)
        vals = [coeff[p] for p in pats]
        return sparse_coeffs_to_matrix(pats, vals, self.ctx)


@dataclass
class Block:
    """One PSD slack block: Z(y) = C - sum_i y_i A_i."""

    name: str
    side: int
    c: np.ndarray
    columns: object  # DenseColumns or PauliColumns


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


def _sqrtm_psd(mat):
    lam, q = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    root = (q * np.sqrt(lam)) @ q.conj().T
    return (root + root.conj().T) / 2


def _nt_scaling(x, z):
    """Return (W, What, Winvhat, Lambda) with W Z W = X."""
    lam_z, qz = np.linalg.eigh(z)
    lam_z = np.clip(lam_z, 1e-300, None)
    z_half = (qz * np.sqrt(lam_z)) @ qz.conj().T
    z_mhalf = (qz / np.sqrt(lam_z)) @ qz.conj().T
    inner = z_half @ x @ z_half
    inner_half = _sqrtm_psd((inner + inner.conj().T) / 2)
    w = z_mhalf @ inner_half @ z_mhalf
    w = (w + w.conj().T) / 2
    lam_w, qw = np.linalg.eigh(w)
    lam_w = np.clip(lam_w, 1e-300, None)
    w_half = (qw * np.sqrt(lam_w)) @ qw.conj().T
    w_mhalf = (qw / np.sqrt(lam_w)) @ qw.conj().T
    lam_mat = w_half @ z @ w_half
    return w, w_half, w_mhalf, (lam_mat + lam_mat.conj().T) / 2


def _max_step(x, dx):
    """Largest alpha <= 1 with x + alpha dx psd (x strictly pd)."""
    lam, q = np.linalg.eigh(x)
    lam = np.clip(lam, 1e-300, None)
    root = (q / np.sqrt(lam)) @ q.conj().T
    m = root @ dx @ root.conj().T
    lo = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if lo >= 0:
        return 1.0
    return min(1.0, -1.0 / lo)


def solve_conic(blocks, b, free_g=None, free_f=None, tol=1e-7,
                gap_tol=1e-9, maxiter=60, callback=None):
    """Run the predictor-corrector iteration on the block problem.

    ``b`` is the dual objective vector (length m); each block's columns
    carry global constraint indices into it.  ``free_g``/``free_f`` add
    primal free variables, i.e. dual equality constraints  free_g.T y =
    free_f.  ``callback(it, gap, pinf, dinf)``, when given, is called once
    per iteration before the stopping test.  A NaN or infinite entry in
    ``b``, a block's ``c`` or the free-variable data returns
    ``numerical_failure`` at once, with no iterates.
    """
    b = np.asarray(b, dtype=float)
    m = len(b)
    nf = 0 if free_g is None else free_g.shape[1]
    if nf:
        free_g = np.asarray(free_g, dtype=float).reshape(m, nf)
        free_f = np.asarray(free_f, dtype=float).reshape(nf)
    data = [b] + [bl.c for bl in blocks] + ([free_g, free_f] if nf else [])
    if not all(np.isfinite(a).all() for a in data):
        nan = float("nan")
        return SdpSolution("numerical_failure", np.zeros(m), {}, {},
                           np.zeros(nf), nan, nan, nan, 0)

    scale = 1.0 + max(
        [abs(b).max() if m else 0.0]
        + [np.abs(bl.c).max() for bl in blocks]
    )
    x = {bl.name: scale * np.eye(bl.side, dtype=complex) for bl in blocks}
    z = {bl.name: scale * np.eye(bl.side, dtype=complex) for bl in blocks}
    y = np.zeros(m)
    u = np.zeros(nf)
    total_side = sum(bl.side for bl in blocks)

    status = "max_iterations"
    it = 0
    for it in range(1, maxiter + 1):
        # residuals
        ax = np.zeros(m)
        for bl in blocks:
            ax[bl.columns.indices] += bl.columns.dots(x[bl.name])
        r_p = b - ax - (free_g @ u if nf else 0.0)
        rd = {}
        for bl in blocks:
            aty = bl.columns.combine(y[bl.columns.indices])
            rd[bl.name] = bl.c - aty - z[bl.name]
        r_g = (free_f - free_g.T @ y) if nf else np.zeros(0)

        gap = float(sum(np.real(np.trace(x[n] @ z[n])) for n in x))
        mu = gap / total_side
        pobj = float(sum(np.real(np.trace(bl.c @ x[bl.name]))
                         for bl in blocks))
        if nf:
            pobj += float(free_f @ u)
        dobj = float(b @ y)

        pinf = np.linalg.norm(r_p) / (1.0 + np.linalg.norm(b))
        dinf = max(
            (np.abs(rd[bl.name]).max() for bl in blocks),
            default=0.0,
        ) / scale
        ginf = (np.linalg.norm(r_g) / (1.0 + np.linalg.norm(free_f))
                if nf else 0.0)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if callback is not None:
            callback(it, gap, pinf, dinf)
        # relgap bottoms out at the feasibility floor; the complementarity
        # gap certifies optimality once the residuals are small
        gap_ok = (relgap < gap_tol
                  or gap <= gap_tol * (1.0 + abs(pobj) + abs(dobj)))
        if gap_ok and pinf < tol and dinf < tol and ginf < tol:
            status = "optimal"
            break

        # NT scalings and Schur complement
        h = np.zeros((m, m))
        scal = {}
        for bl in blocks:
            w, w_half, w_mhalf, lam = _nt_scaling(x[bl.name], z[bl.name])
            lam_e, lam_q = np.linalg.eigh(lam)
            scal[bl.name] = (w, w_half, w_mhalf, lam_e, lam_q)
            idx = bl.columns.indices
            h[np.ix_(idx, idx)] += bl.columns.gram(w)
        failure = SdpSolution("numerical_failure", y, x, z, u, pobj, dobj,
                              gap, it, {"pinf": pinf, "dinf": dinf})
        if not np.isfinite(h).all():
            return failure
        # Cholesky as the positive-definiteness test: raise the diagonal
        # shift until it succeeds, then solve with the shifted H
        h_max = np.abs(h).max()
        reg = 1e-13 * (1.0 + h_max)
        while True:
            h_reg = h + reg * np.eye(m)
            try:
                np.linalg.cholesky(h_reg)
                break
            except np.linalg.LinAlgError:
                reg *= 100.0
                if reg > 1e-2 * (1.0 + h_max):
                    return failure
        hg = None   # H^-1 G, from the predictor's stacked solve

        def kkt_solve(rhs1, rhs2):
            nonlocal hg
            if nf and hg is None:
                sol = np.linalg.solve(h_reg, np.column_stack([rhs1, free_g]))
                t1, hg = sol[:, 0], sol[:, 1:]
            else:
                t1 = np.linalg.solve(h_reg, rhs1)
            if not nf:
                return t1, np.zeros(0)
            small = free_g.T @ hg
            du = np.linalg.solve(small, free_g.T @ t1 - rhs2)
            dy = t1 - hg @ du
            return dy, du

        def directions(sigma_mu, correctors):
            rhs = r_p.copy()
            half_terms = {}
            for bl in blocks:
                w, w_half, w_mhalf, lam_e, lam_q = scal[bl.name]
                lam_full = (lam_q * lam_e) @ lam_q.conj().T
                rmat = sigma_mu * np.eye(bl.side) - lam_full @ lam_full
                if correctors is not None:
                    dxa, dza = correctors[bl.name]
                    dx_s = w_mhalf @ dxa @ w_mhalf
                    dz_s = w_half @ dza @ w_half
                    cross = dx_s @ dz_s
                    rmat = rmat - (cross + cross.conj().T) / 2
                # Lyapunov: lam T + T lam = 2 rmat, in lam's eigenbasis
                rt = lam_q.conj().T @ rmat @ lam_q
                denom = lam_e[:, None] + lam_e[None, :]
                t_mat = lam_q @ (2.0 * rt / denom) @ lam_q.conj().T
                half = w_half @ t_mat @ w_half - w @ rd[bl.name] @ w
                half_terms[bl.name] = half
                rhs[bl.columns.indices] -= bl.columns.dots(half)
            dy, du = kkt_solve(rhs, r_g if nf else np.zeros(0))
            dxs, dzs = {}, {}
            for bl in blocks:
                w = scal[bl.name][0]
                dz = rd[bl.name] - bl.columns.combine(dy[bl.columns.indices])
                # dX = What T What - W dZ W; half_terms = What T What - W Rd W
                dx = half_terms[bl.name] + w @ (rd[bl.name] - dz) @ w
                dzs[bl.name] = dz
                dxs[bl.name] = dx
            return dy, du, dxs, dzs

        # predictor
        dy_a, du_a, dx_a, dz_a = directions(0.0, None)
        ap = min(_max_step(x[n], dx_a[n]) for n in x)
        ad = min(_max_step(z[n], dz_a[n]) for n in z)
        gap_aff = float(sum(
            np.real(np.trace((x[n] + ap * dx_a[n]) @ (z[n] + ad * dz_a[n])))
            for n in x
        ))
        sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

        # corrector
        correctors = {n: (dx_a[n], dz_a[n]) for n in x}
        dy, du, dxs, dzs = directions(sigma * mu, correctors)
        ap = min(1.0, 0.98 * min(_max_step(x[n], dxs[n]) for n in x))
        ad = min(1.0, 0.98 * min(_max_step(z[n], dzs[n]) for n in z))
        if min(ap, ad) < 1e-10:
            status = "stalled"
            break
        y = y + ad * dy
        u = u + ad * du if nf else u
        for n in x:
            x[n] = x[n] + ap * dxs[n]
            x[n] = (x[n] + x[n].conj().T) / 2
            z[n] = z[n] + ad * dzs[n]
            z[n] = (z[n] + z[n].conj().T) / 2

    return SdpSolution(
        status, y, x, z, u, pobj, dobj, gap, it,
        {"pinf": pinf, "dinf": dinf, "relgap": relgap},
    )
