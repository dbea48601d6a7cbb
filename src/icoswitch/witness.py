"""Causal-witness optimization over the experimentally accessible span.

A witness S satisfies Tr[S W_sep] >= 0 for every causally separable
process.  Membership in that dual cone is certified by two PSD
decompositions, one per order: T_i >= 0 with S - T_i orthogonal to the
order-compatible subspace.  The optimization restricts S to the span of
the catalog's outcome operators, so the optimum comes with a coefficient
table alpha over (b, d, x, y, z) that weights measured probabilities.

Normalization conventions (the literature differs; the default is pinned
by reproducing the known optimum -0.4248 on the ideal switch and is
reported in every solution):

  white-noise              Tr[S W_white] = 1, W_white = 1/16 (default; a
                           random-robustness-type normalization against
                           the maximally mixed valid process)
  generalized-robustness   Tr[S Omega] <= 1 for every valid process Omega
  identity-cap             S <= 1/8 as an operator inequality

Span components supported by no causally ordered process (patterns
forbidden in both orders) never affect probabilities of valid processes
and are projected out of the optimization basis.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import procmat as pm
from .settings import SHAPE
from .paulialg import (PauliContext, pauli_coeffs, qubit_blocks,
                       sparse_coeffs_to_matrix, split_qubit)
from .qmath import LabeledOperator
from .sdp import Block, PauliColumns, PauliRows, SdpSolution, solve_conic

CONVENTIONS = ("white-noise", "generalized-robustness", "identity-cap")
DEFAULT_CONVENTION = "white-noise"

SPAN_TOL = 1e-10       # relative singular-value cut of the span basis
CONE_TOL = 1e-8        # dual-cone check: feasibility and gap tolerance
WITNESS_MAXITER = 45   # witness solve; its tolerances are the solver's

_CTX = PauliContext(pm.NQUBITS)

# The catalog never reads the target's output F_t, so every operator of the
# witness and dual-cone problems is 1_{F_t} (x) A' with A' on the other six
# qubits: each block is solved on those six, as one block of two copies,
# and in the X_{F_c} sectors (F_c is read in the +- basis) where C allows.
_F_T = pm.CANONICAL.index("F_t")
_REDUCED = pm.NQUBITS - 1
_F_T_COPIES = pm.DIMS[_F_T]
_F_C = [label for label in pm.CANONICAL if label != "F_t"].index("F_c")


class SpanRankWarning(UserWarning):
    pass


@dataclass
class SpanBasis:
    """Orthonormalized span of the catalog outcome operators."""

    xs: np.ndarray             # Alice unitaries x - 1 of the rows
    support: np.ndarray        # pattern indices carrying the span
    raw: np.ndarray            # (n_ops, len(support)) raw coefficients,
                               # rows in probability-table order
    onb: np.ndarray            # (rank, len(support)) orthonormal rows
    alpha_map: np.ndarray      # (n_ops, rank): alpha = alpha_map @ s

    @property
    def rank(self):
        return self.onb.shape[0]


def build_span(x_subset=None) -> SpanBasis:
    """Span of outcome operators, cleaned of commonly forbidden patterns.

    ``x_subset`` restricts Alice's unitaries (nested-span studies).  The
    largest |coefficient| on a pattern is the product of the factor tables'
    column maxima (the settings form a full grid); the support is where it
    exceeds SPAN_TOL, less the patterns forbidden in both orders.
    """
    xs = np.arange(SHAPE[1]) if x_subset is None else np.sort(x_subset) - 1
    prep, alice, bob, det = (t.real for t in pm.factor_coeffs())
    alice, bob = alice[xs], bob.reshape(-1, 16)
    ma, mb, mf, mp = (np.abs(t).max(axis=0) for t in (alice, bob, det, prep))
    peak = ma[:, None, None, None] * mb[:, None, None] * mf[:, None] * mp
    forb_both = pm.forbidden_mask("A->B") & pm.forbidden_mask("B->A")
    support = np.flatnonzero((peak.ravel() > SPAN_TOL) & ~forb_both)
    a, c, f, p = np.unravel_index(support, (16, 16, 16, 4))
    # rows in table order (z, x, (y, r, b), d)
    mat = (alice[None, :, None, None, a] * bob[None, None, :, None, c]
           * det[None, None, None, :, f] * prep[:, None, None, None, p]
           ).reshape(-1, len(support))
    u, sing, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int((sing > SPAN_TOL * sing[0]).sum())
    onb = vt[:rank]
    alpha_map = u[:, :rank] / sing[:rank]
    return SpanBasis(xs, support, mat, onb, alpha_map)


@dataclass
class DualConeReport:
    """Outcome of a dual-cone membership check for one operator."""

    member: bool | None            # None = indeterminate (solver failure)
    margins: dict                  # order -> optimal slack eigenvalue bound
    decomposition: dict            # order -> (T, residual) when available
    statuses: dict


def _order_patterns(order):
    return np.flatnonzero(pm.forbidden_mask(order))


def _drop_target(patterns):
    """The six-qubit indices of patterns that are the identity on F_t."""
    digit, rest = split_qubit(patterns, pm.NQUBITS, _F_T)
    if digit.any():
        raise ValueError("a pattern acts on F_t")
    return rest


def _target_block(mat):
    """S' with S = 1_{F_t} (x) S'; ValueError when S is not of that form."""
    s = qubit_blocks(mat, pm.NQUBITS, _F_T)
    if s[0, 1].any() or s[1, 0].any() or not np.array_equal(s[0, 0], s[1, 1]):
        raise ValueError("witness candidate must be the identity on F_t")
    return s[0, 0]


def _target_free_block(name, c, unit_indices, unit_patterns, dense_indices,
                       dense, sign=1.0):
    """128-side C with 7-qubit unit patterns and six-qubit ``dense`` rows
    (columns ``sign`` Q_l), solved on the six qubits other than F_t as one
    block of two copies, in the X_{F_c} sectors when C' commutes with X_{F_c}
    exactly.  ValueError unless C and every pattern are 1 on F_t."""
    c = _target_block(c)
    v = qubit_blocks(c, _REDUCED, _F_C)   # [[A, B], [B, A]] commutes with X
    sector = _F_C if np.array_equal(v[0], v[1, ::-1]) else None
    cols = PauliColumns(unit_indices, _drop_target(unit_patterns),
                        dense_indices, dense, sector, sign)
    return Block(name, c, cols, copies=_F_T_COPIES)


def dual_cone_check(s_op: LabeledOperator, margin=1e-9) -> DualConeReport:
    """Decide Tr[S W] >= 0 on both ordered cones via phase-1 feasibility.

    For each order, maximizes t subject to S - R - t*1 >= 0 with R ranging
    over the order's orthogonal complement; membership requires t* >= 0
    within ``margin`` for both orders.  S must be 1_{F_t} (x) S', as is
    every span operator and 1, else ValueError; the solve runs on S', in
    the X_{F_c} sectors where S' allows.
    """
    if not s_op.is_hermitian():
        raise ValueError("witness candidate must be Hermitian")
    margins, decomp, statuses = {}, {}, {}
    t_row = PauliRows(_REDUCED, np.ones((1, 1)), [0])   # t on the identity
    for order in pm.ORDERS:
        pats = _order_patterns(order)
        m = len(pats) + 1
        block = _target_free_block("T", s_op.entries, np.arange(len(pats)),
                                   pats, [len(pats)], t_row)
        b = np.zeros(m)
        b[-1] = 1.0  # maximize t
        sol = solve_conic([block], b, tol=CONE_TOL, gap_tol=CONE_TOL,
                          maxiter=60)
        statuses[order] = sol.status
        if not sol.optimal:
            continue
        margins[order] = sol.dual_objective
        resid = sparse_coeffs_to_matrix(pats, sol.y[:-1], _CTX)
        decomp[order] = (np.asarray(s_op.entries) - resid, resid)
    # one order's certified t* < -margin decides non-membership, whatever
    # the other order's solve did
    if any(t < -margin for t in margins.values()):
        member = False
    elif len(margins) < len(pm.ORDERS):
        member = None
    else:
        member = True
    return DualConeReport(member, margins, decomp, statuses)


@dataclass
class WitnessSolution:
    """Optimal witness restricted to the accessible span.  ``alpha`` is in
    the witness layout of ``probs_to_witness_table``, zero on the Alice
    unitaries outside the span.  ``solver`` is the engine's solution: y in
    the layout of ``_span_blocks``, and X and Z on six qubits, each block
    standing for 1_{F_t} (x) Z."""

    value: float
    alpha: np.ndarray
    s_op: LabeledOperator = field(repr=False)
    convention: str
    gap: float
    iterations: int
    status: str
    span_rank: int
    solver: SdpSolution = field(repr=False)
    diagnostics: dict = field(default_factory=dict)


def _span_blocks(span: SpanBasis, convention: str):
    """Engine blocks and index layout for the witness LMI; each block is on
    the six qubits other than F_t, with two copies."""
    r = span.rank
    pats_ab = _order_patterns("A->B")
    pats_ba = _order_patterns("B->A")
    layout = {"s": np.arange(r)}
    off = r
    layout["v_ab"] = np.arange(off, off + len(pats_ab))
    off += len(pats_ab)
    layout["v_ba"] = np.arange(off, off + len(pats_ba))
    off += len(pats_ba)

    blocks = []
    zero = np.zeros((pm.SIDE, pm.SIDE), dtype=complex)
    # one set of -Q_k rows, shift tables and operators for every block
    neg_span = PauliRows(_REDUCED, -span.onb, _drop_target(span.support))
    for name, pats, vidx in (("T_ab", pats_ab, layout["v_ab"]),
                             ("T_ba", pats_ba, layout["v_ba"])):
        # Z = 0 - sum s_k (-Q_k) - sum v_j P_j = S - R  (the certificate
        # T = S - R with R on the order's forbidden patterns)
        blocks.append(_target_free_block(
            name, zero, vidx, pats, layout["s"], neg_span))

    free_g = free_f = None
    if convention in ("generalized-robustness", "identity-cap"):
        # Z = 1/TRACE_NORM - S - R >= 0, with R over the patterns no valid process
        # carries (generalized robustness) or R = 0 (identity cap)
        pats_v = np.zeros(0, dtype=np.int64)
        if convention == "generalized-robustness":
            pats_v = np.flatnonzero(pm.forbidden_mask("valid"))
        layout["v_valid"] = np.arange(off, off + len(pats_v))
        off += len(pats_v)
        blocks.append(_target_free_block(
            "T_norm", np.eye(pm.SIDE, dtype=complex) / pm.TRACE_NORM,
            layout["v_valid"], pats_v, layout["s"], neg_span, sign=-1.0))
    elif convention == "white-noise":
        # Tr[S W_white] = 1 with W_white = TRACE_NORM / SIDE = 1/16: only
        # the identity pattern of S contributes, Tr[Q_k/16] = 8 coeff_id(Q_k)
        id_pos = np.flatnonzero(span.support == 0)
        h = np.zeros((off, 1))
        if len(id_pos):
            h[:span.rank, 0] = pm.TRACE_NORM * span.onb[:, id_pos[0]]
        free_g, free_f = h, np.array([1.0])
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return blocks, layout, off, free_g, free_f


def optimize_witness(w: pm.ProcessMatrix, span: SpanBasis,
                     convention: str = DEFAULT_CONVENTION) -> WitnessSolution:
    """Minimize Tr[S W] over span-restricted causal witnesses.

    Returns the witness operator, the coefficient table alpha with
    value = sum alpha * p identically, and solver diagnostics.  A rank
    deficient span (alpha not unique; the least-norm table is returned)
    raises a SpanRankWarning carrying the rank.
    """
    if span.rank < len(span.raw):
        warnings.warn(
            f"outcome-operator span is rank-deficient: rank {span.rank} "
            f"of {len(span.raw)} operators; coefficient table is the "
            f"least-norm representative",
            SpanRankWarning, stacklevel=2,
        )
    blocks, layout, m, free_g, free_f = _span_blocks(span, convention)
    what = np.real(pauli_coeffs(np.asarray(w.entries), pm.NQUBITS))
    b = np.zeros(m)
    b[layout["s"]] = -pm.SIDE * (span.onb @ what[span.support])
    sol = solve_conic(blocks, b, free_g=free_g, free_f=free_f,
                      maxiter=WITNESS_MAXITER)

    s_coords = sol.y[layout["s"]]
    coeffs = span.onb.T @ s_coords
    s_mat = sparse_coeffs_to_matrix(span.support, coeffs, _CTX)
    s_op = LabeledOperator(pm.CANONICAL, pm.DIMS, s_mat)
    table = np.zeros(SHAPE + (2, 2))
    table[:, span.xs] = (span.alpha_map @ s_coords).reshape(
        table[:, span.xs].shape)
    alpha = probs_to_witness_table(table)
    value = -sol.dual_objective

    trace_value = float(np.real(np.trace(s_mat @ np.asarray(w.entries))))
    diagnostics = {"trace_consistency": abs(value - trace_value)}
    return WitnessSolution(
        value=value, alpha=alpha, s_op=s_op, convention=convention,
        gap=sol.gap, iterations=sol.iterations, status=sol.status,
        span_rank=span.rank, solver=sol, diagnostics=diagnostics,
    )


def evaluate_witness(alpha: np.ndarray, probs: np.ndarray) -> float:
    """sum alpha_{b,d,x,y,z} p(b,d|x,y,z); exactly linear in the table."""
    if alpha.shape != probs.shape:
        raise ValueError(f"alpha has shape {alpha.shape}, "
                         f"probabilities {probs.shape}")
    return float((alpha * probs).sum())


def probs_to_witness_table(table: np.ndarray) -> np.ndarray:
    """A table p[z-1, x-1, y-1, r-1, b, d] in the witness layout
    [b, d, x-1, y6-1, z-1], y6 = 3 (y - 1) + r combining (meas, reprep)."""
    nz, nx, ny, nr, nb, nd = table.shape
    return table.transpose(4, 5, 1, 2, 3, 0).reshape(nb, nd, nx, ny * nr, nz)


# -- serialization -----------------------------------------------------------------

def solution_to_json(sol: WitnessSolution) -> str:
    payload = {
        "value": sol.value,
        "convention": sol.convention,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "status": sol.status,
        "span_rank": sol.span_rank,
        "alpha": {
            f"{b},{d},{x + 1},{y + 1},{z + 1}": float(a)
            for (b, d, x, y, z), a in np.ndenumerate(sol.alpha)
        },
        "diagnostics": {
            "trace_consistency": sol.diagnostics.get("trace_consistency"),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
