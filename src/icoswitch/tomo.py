"""Two-photon tomography: count simulation, reconstruction, fringe scans.

Counts are one integer array ``n[a, b, oa, ob]`` of shape ``SHAPE``: ``a``
and ``b`` index the Pauli bases ``BASES`` of the system and probe photons,
``oa`` and ``ob`` the outcomes (0 is the +1 eigenvalue). Reconstruction
offers linear inversion of the Pauli expectations (exact on noiseless
data, possibly not PSD) and the maximum-likelihood fixed point R rho R
with trace renormalization (PSD with unit trace by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulialg import PAULIS
from .qmath import LabeledOperator

BASES = "XYZ"   # every pair of them: informationally complete
SHAPE = (3, 3, 2, 2)
MLE_TOL = 1e-12     # relative log-likelihood gain that ends the MLE
MLE_MAXITER = 20000

_SIGNS = np.array([1.0, -1.0])   # eigenvalue of outcome 0 and 1
# one-photon projectors (1 +- P)/2, indexed [a, o, i, j]
_PROJ1 = (PAULIS[0] + _SIGNS[:, None, None] * PAULIS[1:, None]) / 2
# two-photon projectors kron(Pi[a, oa], Pi[b, ob]), indexed SHAPE + (4, 4)
_PROJ = np.einsum("aoij,bpkl->abopikjl", _PROJ1, _PROJ1).reshape(SHAPE + (4, 4))


@dataclass(frozen=True)
class TomoResult:
    rho: LabeledOperator
    fidelity: float
    purity: float
    method: str
    psd: bool
    iterations: int = 0
    converged: bool = True   # False: MLE stopped at MLE_MAXITER


def born_probabilities(rho) -> np.ndarray:
    """p[a, b, oa, ob] = Tr[Pi[a, b, oa, ob] rho] of a two-photon state."""
    p = np.einsum("...kl,lk->...", _PROJ, np.asarray(rho, dtype=complex))
    return np.clip(p.real, 0.0, 1.0)


def simulate_counts(rho, pairs_total=30000, seed=0) -> np.ndarray:
    """Poisson counts n[a, b, oa, ob], pairs_total / 9 expected per pair."""
    if pairs_total <= 0:
        raise ValueError("pairs_total must be positive")
    rng = np.random.default_rng(seed)
    return rng.poisson(pairs_total / 9 * born_probabilities(rho))


def _linear_inversion(n) -> np.ndarray:
    """rho = sum_ab c[a, b] P_a (x) P_b / 4 with P_0 = 1. A basis pair without
    counts adds nothing; a marginal averages the pairs that measured it."""
    totals = n.sum(axis=(2, 3))
    measured = totals > 0
    freq = n / np.where(measured, totals, 1)[..., None, None]
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1:, 1:] = np.einsum("abij,i,j->ab", freq, _SIGNS, _SIGNS)
    c[1:, 0] = (np.einsum("abij,i->ab", freq, _SIGNS).sum(axis=1)
                / np.maximum(measured.sum(axis=1), 1))
    c[0, 1:] = (np.einsum("abij,j->ab", freq, _SIGNS).sum(axis=0)
                / np.maximum(measured.sum(axis=0), 1))
    return np.einsum("ab,aij,bkl->ikjl", c, PAULIS, PAULIS).reshape(4, 4) / 4


def _mle(n):
    """R rho R fixed point for the Poisson likelihood: (rho, iterations,
    whether the log-likelihood gain fell to MLE_TOL |ll| or below).  The
    bound is relative, so scaling every count by one factor leaves the
    stopping iteration unchanged."""
    rho = np.eye(4, dtype=complex) / 4.0
    ll_prev = -np.inf
    it, converged = 0, False
    for it in range(1, MLE_MAXITER + 1):
        p = np.maximum(born_probabilities(rho), 1e-12)
        r_op = np.tensordot(n / p, _PROJ, axes=4)
        ll = float((n * np.log(p)).sum())
        new = r_op @ rho @ r_op
        new = (new + new.conj().T) / 2
        rho = new / np.real(np.trace(new))
        converged = bool(abs(ll - ll_prev) <= MLE_TOL * abs(ll))
        if converged:
            break
        ll_prev = ll
    return rho, it, converged


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Uhlmann fidelity (trace norm of sqrt(rho) sqrt(target), squared).

    The singular values of sqrt(rho) sqrt(target) are symmetric under
    swapping the arguments, so the value is too.
    """
    sv = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(target), compute_uv=False)
    return float(min(sv.sum() ** 2, 1.0 + 1e-9))


def reconstruct(counts, method="mle", target=None) -> TomoResult:
    """Density-matrix estimate from counts n[a, b, oa, ob].

    method 'linear' inverts Pauli expectations directly (flagged when the
    estimate has negative eigenvalues); 'mle' iterates the multiplicative
    fixed point until the log-likelihood gain relative to the
    log-likelihood drops to MLE_TOL, and
    reports ``converged=False`` when MLE_MAXITER iterations end it first.
    """
    n = np.asarray(counts)
    if n.shape != SHAPE:
        raise ValueError(f"counts must have shape {SHAPE} (every basis pair "
                         f"and outcome), got {n.shape}")
    if (n < 0).any():
        raise ValueError("counts must be non-negative")
    if not n.any():
        raise ValueError("no counts to reconstruct from")
    if method == "linear":
        rho = _linear_inversion(n)
        it, converged = 0, True
    elif method == "mle":
        rho, it, converged = _mle(n)
    else:
        raise ValueError(f"unknown reconstruction method {method!r}")
    psd = bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] > -1e-10)
    fid = float("nan") if target is None else fidelity(rho, np.asarray(target))
    purity = float(np.real(np.trace(rho @ rho)))
    # q0 = system photon, q1 = probe photon (label order is preserved)
    op = LabeledOperator(["q0", "q1"], [2, 2], rho)
    return TomoResult(op, fid, purity, method, psd, it, converged)


# -- csv export -----------------------------------------------------------------

CSV_HEADER = "setting_a,setting_b,outcome_a,outcome_b,counts"


def counts_csv(counts) -> str:
    lines = [CSV_HEADER]
    for (a, b, oa, ob), k in np.ndenumerate(counts):
        lines.append(f"{BASES[a]},{BASES[b]},{oa},{ob},{k}")
    return "\n".join(lines) + "\n"


# -- fringe scans ------------------------------------------------------------------

def fringe_scan(rates, phase_grid) -> tuple:
    """(visibility, degenerate_flag, rates) of coincidence ``rates`` on
    ``phase_grid``, the visibility being (max-min)/(max+min); a flat
    signal reports zero visibility with the flag set."""
    phase_grid = np.asarray(phase_grid, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != phase_grid.shape:
        raise ValueError(f"{rates.size} rates for {phase_grid.size} phases")
    if np.ptp(phase_grid) < 2 * np.pi - 1e-9:
        raise ValueError("phase grid must cover at least one full period")
    hi, lo = float(rates.max()), float(rates.min())
    if hi + lo < 1e-14 or hi - lo < 1e-12 * max(hi, 1e-30):
        return 0.0, True, rates
    return (hi - lo) / (hi + lo), False, rates
