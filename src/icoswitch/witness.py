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
from itertools import product

import numpy as np

from . import procmat as pm
from .paulialg import PauliContext, pauli_coeffs, sparse_coeffs_to_matrix
from .qmath import LabeledOperator
from .sdp import Block, PauliColumns, solve_conic

CONVENTIONS = ("white-noise", "generalized-robustness", "identity-cap")
DEFAULT_CONVENTION = "white-noise"

SPAN_TOL = 1e-10       # relative singular-value cut of the span basis
CONE_TOL = 1e-8        # dual-cone check: feasibility and gap tolerance
WITNESS_MAXITER = 45   # witness solve; its tolerances are the solver's

_CTX = PauliContext(pm.NQUBITS)


class SpanRankWarning(UserWarning):
    pass


def setting_key(z, x, y, r, b, d):
    """Witness-table key (b, d, x, y, z) with y combining (meas, reprep)."""
    return (b, d, x, (y - 1) * 3 + r, z)


@dataclass
class SpanBasis:
    """Orthonormalized span of the catalog outcome operators."""

    keys: list                 # (b, d, x, y6, z) per raw operator
    support: np.ndarray        # pattern indices carrying the span
    raw: np.ndarray            # (n_ops, len(support)) raw coefficients
    onb: np.ndarray            # (rank, len(support)) orthonormal rows
    singulars: np.ndarray
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
    xs = list(range(1, 11)) if x_subset is None else sorted(x_subset)
    prep, alice, bob, det = (t.real for t in pm.factor_coeffs())
    alice, bob = alice[np.asarray(xs) - 1], bob.reshape(-1, 16)
    ma, mb, mf, mp = (np.abs(t).max(axis=0) for t in (alice, bob, det, prep))
    peak = ma[:, None, None, None] * mb[:, None, None] * mf[:, None] * mp
    forb_both = pm.forbidden_mask("A->B") & pm.forbidden_mask("B->A")
    support = np.flatnonzero((peak.ravel() > SPAN_TOL) & ~forb_both)
    a, c, f, p = np.unravel_index(support, (16, 16, 16, 4))
    # rows in key order (z, x, (y, r, b), d)
    mat = (alice[None, :, None, None, a] * bob[None, None, :, None, c]
           * det[None, None, None, :, f] * prep[:, None, None, None, p]
           ).reshape(-1, len(support))
    keys = [setting_key(*k) for k in
            product((1, 2, 3), xs, (1, 2), (1, 2, 3), (0, 1), (0, 1))]
    u, sing, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int((sing > SPAN_TOL * sing[0]).sum())
    onb = vt[:rank]
    alpha_map = u[:, :rank] / sing[:rank]
    return SpanBasis(keys, support, mat, onb, sing[:rank], alpha_map)


@dataclass
class DualConeReport:
    """Outcome of a dual-cone membership check for one operator."""

    member: bool | None            # None = indeterminate (solver failure)
    margins: dict                  # order -> optimal slack eigenvalue bound
    decomposition: dict            # order -> (T, residual) when available
    statuses: dict


def _order_patterns(order):
    return np.flatnonzero(pm.forbidden_mask(order))


def dual_cone_check(s_op: LabeledOperator, margin=1e-9) -> DualConeReport:
    """Decide Tr[S W] >= 0 on both ordered cones via phase-1 feasibility.

    For each order, maximizes t subject to S - R - t*1 >= 0 with R ranging
    over the order's orthogonal complement; membership requires t* >= 0
    within ``margin`` for both orders.
    """
    if not s_op.is_hermitian():
        raise ValueError("witness candidate must be Hermitian")
    margins, decomp, statuses = {}, {}, {}
    for order in pm.ORDERS:
        pats = _order_patterns(order)
        m = len(pats) + 1
        eye_row = np.ones((1, 1))
        cols = PauliColumns(
            pm.NQUBITS,
            unit_indices=np.arange(len(pats)),
            unit_patterns=pats,
            dense_indices=[len(pats)],
            dense_rows=eye_row,
            dense_support=np.array([0]),  # identity pattern
        )
        block = Block("T", pm.SIDE, np.asarray(s_op.entries), cols)
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
    """Optimal witness restricted to the accessible span."""

    value: float
    alpha: dict
    s_op: LabeledOperator = field(repr=False)
    convention: str
    gap: float
    iterations: int
    status: str
    span_rank: int
    diagnostics: dict = field(default_factory=dict)


def _span_blocks(span: SpanBasis, convention: str):
    """Engine blocks and index layout for the witness LMI."""
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
    for name, pats, vidx in (("T_ab", pats_ab, layout["v_ab"]),
                             ("T_ba", pats_ba, layout["v_ba"])):
        # Z = 0 - sum s_k (-Q_k) - sum v_j P_j = S - R  (the certificate
        # T = S - R with R on the order's forbidden patterns)
        cols = PauliColumns(
            pm.NQUBITS,
            unit_indices=vidx, unit_patterns=pats,
            dense_indices=layout["s"], dense_rows=-span.onb,
            dense_support=span.support,
        )
        blocks.append(Block(name, pm.SIDE, zero, cols))

    free_g = free_f = None
    if convention in ("generalized-robustness", "identity-cap"):
        # Z = 1/8 - S - R >= 0, with R over the patterns no valid process
        # carries (generalized robustness) or R = 0 (identity cap)
        pats_v = np.zeros(0, dtype=np.int64)
        if convention == "generalized-robustness":
            pats_v = np.flatnonzero(pm.forbidden_mask("valid"))
        layout["v_valid"] = np.arange(off, off + len(pats_v))
        off += len(pats_v)
        cols = PauliColumns(
            pm.NQUBITS,
            unit_indices=layout["v_valid"], unit_patterns=pats_v,
            dense_indices=layout["s"], dense_rows=span.onb,
            dense_support=span.support,
        )
        blocks.append(Block(
            "T_norm", pm.SIDE, np.eye(pm.SIDE, dtype=complex) / 8.0, cols
        ))
    elif convention == "white-noise":
        # Tr[S W_white] = 1 with W_white = 1/16: only the identity pattern
        # of S contributes, Tr[Q_k/16] = 8 * coeff_id(Q_k)
        id_pos = np.flatnonzero(span.support == 0)
        h = np.zeros((off, 1))
        if len(id_pos):
            h[:span.rank, 0] = 8.0 * span.onb[:, id_pos[0]]
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
    if span.rank < len(span.keys):
        warnings.warn(
            f"outcome-operator span is rank-deficient: rank {span.rank} "
            f"of {len(span.keys)} operators; coefficient table is the "
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
    alpha_vec = span.alpha_map @ s_coords
    alpha = {k: float(a) for k, a in zip(span.keys, alpha_vec)}
    value = -sol.dual_objective

    trace_value = float(np.real(np.trace(s_mat @ np.asarray(w.entries))))
    diagnostics = {
        "trace_consistency": abs(value - trace_value),
        "residuals": sol.residuals,
        "primal_objective": sol.primal_objective,
        "dual_objective": sol.dual_objective,
    }
    return WitnessSolution(
        value=value, alpha=alpha, s_op=s_op, convention=convention,
        gap=sol.gap, iterations=sol.iterations, status=sol.status,
        span_rank=span.rank, diagnostics=diagnostics,
    )


def evaluate_witness(alpha: dict, probs: dict) -> float:
    """sum alpha_{b,d,x,y,z} p(b,d|x,y,z); exactly linear in the table."""
    a_keys, p_keys = set(alpha), set(probs)
    if a_keys != p_keys:
        missing = sorted(a_keys - p_keys)
        extra = sorted(p_keys - a_keys)
        raise KeyError(
            f"index mismatch: missing {missing[:4]}{'...' if len(missing) > 4 else ''}, "
            f"unexpected {extra[:4]}{'...' if len(extra) > 4 else ''}"
        )
    return float(sum(alpha[k] * probs[k] for k in sorted(alpha)))


def probs_to_witness_table(table: dict) -> dict:
    """Re-key a (z, x, y, r, b, d) probability table to (b, d, x, y6, z)."""
    return {
        setting_key(z, x, y, r, b, d): p
        for (z, x, y, r, b, d), p in table.items()
    }


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
            ",".join(str(i) for i in key): val
            for key, val in sorted(sol.alpha.items())
        },
        "diagnostics": {
            "trace_consistency": sol.diagnostics.get("trace_consistency"),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
