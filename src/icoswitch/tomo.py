"""Two-photon tomography: count simulation, reconstruction, fringe scans.

Counts are generated per Pauli-pair measurement setting with Poisson
statistics (deterministic per seed).  Reconstruction offers direct linear
inversion of Pauli expectations (exact on noiseless data, possibly not
PSD) and a maximum-likelihood estimate via the multiplicative-gradient
fixed point R rho R with trace renormalization, which stays PSD with unit
trace by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qmath import LabeledOperator

PAULIS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
BASIS_SET = tuple(product("XYZ", repeat=2))  # informationally complete
MLE_TOL = 1e-10
MLE_MAXITER = 20000


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one basis pair and outcome pair."""

    setting: tuple   # e.g. ("Z", "Z")
    outcome: tuple   # (0, 1) means first qubit +, second qubit -
    counts: int

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError("counts must be non-negative")
        if (self.setting[0] not in PAULIS or self.setting[1] not in PAULIS):
            raise ValueError(f"setting {self.setting} outside the basis set")


@dataclass(frozen=True)
class TomoResult:
    rho: LabeledOperator
    fidelity: float
    purity: float
    method: str
    psd: bool
    log_likelihood: float = float("nan")
    iterations: int = 0


def _eigbasis(pauli: str):
    vals, vecs = np.linalg.eigh(PAULIS[pauli])
    # order eigenvectors (+1, -1) so outcome 0 means the +1 result
    order = np.argsort(-vals)
    return vecs[:, order]


_PROJ = {
    name: [np.outer(v, v.conj()) for v in _eigbasis(name).T]
    for name in PAULIS
}


def _outcome_projectors(setting):
    a, b = setting
    return {
        (i, j): np.kron(_PROJ[a][i], _PROJ[b][j])
        for i in (0, 1) for j in (0, 1)
    }


def born_probabilities(rho: np.ndarray, setting) -> dict:
    projs = _outcome_projectors(setting)
    return {
        o: float(np.clip(np.real(np.trace(p @ rho)), 0.0, 1.0))
        for o, p in projs.items()
    }


def simulate_counts(rho, basis_set=BASIS_SET, pairs_total=30000,
                    seed=0) -> list:
    """Poisson coincidence counts for every setting and outcome.

    The expected total per setting is pairs_total / len(basis_set);
    a fixed seed makes the record stream reproducible.
    """
    if not basis_set:
        raise ValueError("basis set must not be empty")
    if pairs_total <= 0:
        raise ValueError("pairs_total must be positive")
    rho = np.asarray(rho, dtype=complex)
    rng = np.random.default_rng(seed)
    per_setting = pairs_total / len(basis_set)
    records = []
    for setting in basis_set:
        probs = born_probabilities(rho, setting)
        for outcome in sorted(probs):
            lam = per_setting * probs[outcome]
            records.append(CountRecord(
                setting=tuple(setting), outcome=outcome,
                counts=int(rng.poisson(lam)),
            ))
    return records


def _validate_complete(records):
    seen = {tuple(r.setting) for r in records}
    missing = [s for s in BASIS_SET if s not in seen]
    if missing:
        raise ValueError(f"setting set not informationally complete; "
                         f"missing {missing}")


def _expectations(records):
    """Pauli-pair correlators <P_a P_b> and single-qubit marginals."""
    totals = {}
    signed = {}
    singles_a = {}
    singles_b = {}
    for r in records:
        s = tuple(r.setting)
        totals[s] = totals.get(s, 0) + r.counts
        sa = 1 if r.outcome[0] == 0 else -1
        sb = 1 if r.outcome[1] == 0 else -1
        signed[s] = signed.get(s, 0) + sa * sb * r.counts
        singles_a[s] = singles_a.get(s, 0) + sa * r.counts
        singles_b[s] = singles_b.get(s, 0) + sb * r.counts
    corr = {}
    marg_a = {p: [] for p in "XYZ"}
    marg_b = {p: [] for p in "XYZ"}
    for s, tot in totals.items():
        if tot == 0:
            corr[s] = 0.0
            continue
        corr[s] = signed[s] / tot
        marg_a[s[0]].append(singles_a[s] / tot)
        marg_b[s[1]].append(singles_b[s] / tot)
    ea = {p: float(np.mean(v)) if v else 0.0 for p, v in marg_a.items()}
    eb = {p: float(np.mean(v)) if v else 0.0 for p, v in marg_b.items()}
    return corr, ea, eb


def _linear_inversion(records) -> np.ndarray:
    corr, ea, eb = _expectations(records)
    rho = np.eye(4, dtype=complex) / 4.0
    for p in "XYZ":
        rho += ea[p] * np.kron(PAULIS[p], np.eye(2)) / 4.0
        rho += eb[p] * np.kron(np.eye(2), PAULIS[p]) / 4.0
    for (a, b), val in corr.items():
        rho += val * np.kron(PAULIS[a], PAULIS[b]) / 4.0
    return rho


def _mle(records):
    """R rho R fixed point for the Poisson likelihood."""
    data = [(tuple(r.setting), r.outcome, r.counts) for r in records]
    projs = {s: _outcome_projectors(s) for s in {d[0] for d in data}}
    rho = np.eye(4, dtype=complex) / 4.0
    ll_prev = -np.inf
    it = 0
    for it in range(1, MLE_MAXITER + 1):
        r_op = np.zeros((4, 4), dtype=complex)
        ll = 0.0
        for s, o, n in data:
            if n == 0:
                continue
            p = float(np.real(np.trace(projs[s][o] @ rho)))
            p = max(p, 1e-12)
            r_op += (n / p) * projs[s][o]
            ll += n * np.log(p)
        new = r_op @ rho @ r_op
        new = (new + new.conj().T) / 2
        new /= np.real(np.trace(new))
        rho = new
        if abs(ll - ll_prev) < MLE_TOL:
            break
        ll_prev = ll
    return rho, ll_prev, it


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


def reconstruct(records, method="mle", target=None) -> TomoResult:
    """Density-matrix estimate from count records.

    method 'linear' inverts Pauli expectations directly (flagged when the
    estimate has negative eigenvalues); 'mle' iterates the multiplicative
    fixed point until the log-likelihood gain drops below 1e-10.
    """
    _validate_complete(records)
    if method == "linear":
        rho = _linear_inversion(records)
        ll, it = float("nan"), 0
    elif method == "mle":
        rho, ll, it = _mle(records)
    else:
        raise ValueError(f"unknown reconstruction method {method!r}")
    psd = bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] > -1e-10)
    fid = float("nan") if target is None else fidelity(rho, np.asarray(target))
    purity = float(np.real(np.trace(rho @ rho)))
    # q0 = system photon, q1 = probe photon (label order is preserved)
    op = LabeledOperator(["q0", "q1"], [2, 2], rho)
    return TomoResult(op, fid, purity, method, psd, ll, it)


# -- csv export -----------------------------------------------------------------

CSV_HEADER = "setting_a,setting_b,outcome_a,outcome_b,counts"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.setting[0]},{r.setting[1]},"
                     f"{r.outcome[0]},{r.outcome[1]},{r.counts}")
    return "\n".join(lines) + "\n"


# -- fringe scans ------------------------------------------------------------------

def fringe_scan(rate, phase_grid) -> tuple:
    """Visibility (max-min)/(max+min) of a coincidence scan.

    ``rate`` maps a phase to a coincidence rate.  Returns (visibility,
    degenerate_flag, rates) with the rates on ``phase_grid``; a flat
    signal reports zero visibility with the flag set.
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    if np.ptp(phase_grid) < 2 * np.pi - 1e-9:
        raise ValueError("phase grid must cover at least one full period")
    rates = np.array([rate(ph) for ph in phase_grid])
    hi, lo = float(rates.max()), float(rates.min())
    if hi + lo < 1e-14 or hi - lo < 1e-12 * max(hi, 1e-30):
        return 0.0, True, rates
    return (hi - lo) / (hi + lo), False, rates
