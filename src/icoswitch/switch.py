"""Qubit-level model of the measurement inside the switch.

Labels: c = control (path) qubit, s = system (polarization) qubit,
a = probe ancilla qubit.  The control branch |0>_c applies Alice's unitary
before the measurement interaction; |1>_c applies it after.  Bob's
interaction couples the system to the ancilla through a CNOT sandwiched
between a measurement-basis rotation M (before) and a repreparation
rotation R (after), mapping phi (x) |0>_a to R[s, a] (M phi)[a].  Which-path
information carried by the environment weights the control's cross terms
by ``qmath.coherence(D)``.  Operators and states may be stacks whose
leading axes broadcast: ``setting_probabilities`` gives the catalog's
table in one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import LabeledOperator, LabeledVector, coherence, partial_trace
from .settings import PLUS_MINUS, ExperimentSetting, alice_unitary, jones, prep_state

UNITARY_TOL = 1e-10


def _as_qubit(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    err = np.abs(np.linalg.norm(state, axis=-1) - 1.0).max()
    if err > 1e-9:
        raise ValueError(f"qubit state norm off 1 by {err:.3e}")
    return state


def _check_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2)).max() > UNITARY_TOL:
        raise ValueError("basis must be unitary to 1e-10")
    return u


def _amplitudes(u_alice, meas, reprep, system, control) -> np.ndarray:
    """amps[..., c, s, a] of control (x) system (x) |0>_a after the switch:
    R[s, a] (M U psi)[a] on branch |0>_c, (U R)[s, a] (M psi)[a] on |1>_c."""
    ua, meas, reprep = (_check_unitary(u) for u in (u_alice, meas, reprep))
    psi = _as_qubit(system)[..., None]
    ctrl = _as_qubit(control)
    first = reprep * (meas @ (ua @ psi)).swapaxes(-1, -2)
    second = (ua @ reprep) * (meas @ psi).swapaxes(-1, -2)
    amps = ctrl[..., :, None, None] * np.stack(
        np.broadcast_arrays(first, second), axis=-3)
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    return amps


def switch_evolve(u_alice, bob_basis, system, control=PLUS_MINUS[0],
                  bob_reprep=None) -> LabeledVector:
    """Joint {c, s, a} state after the coherently ordered interactions.

    Branch |0>_c applies Alice's unitary first, then Bob's probe coupling
    (reprep (x) 1) CNOT (meas (x) 1); branch |1>_c applies them in the
    opposite order.  ``bob_reprep`` defaults to the adjoint of
    ``bob_basis`` (measure and reprepare in the same basis).
    """
    reprep = np.conj(np.transpose(bob_basis)) if bob_reprep is None else bob_reprep
    return LabeledVector(["c", "s", "a"], [2, 2, 2],
                         _amplitudes(u_alice, bob_basis, reprep, system, control))


@dataclass(frozen=True)
class DualityReport:
    """Fringe visibility, saturating distinguishability, purity bound."""

    visibility: float
    distinguishability: float
    coherence_bound: float


def duality(state: LabeledOperator) -> DualityReport:
    """Visibility of the control coherence and its duality partners.

    V = 2 |<0| Tr_rest(rho) |1>|; D is reported as the pure-state
    saturating value sqrt(1 - V^2); the coherence bound is the largest
    visibility compatible with the control purity.
    """
    rho_c = partial_trace(state, {"c"}).entries
    v = float(2.0 * abs(rho_c[0, 1]))
    v = min(v, 1.0)
    d = float(np.sqrt(max(0.0, 1.0 - v * v)))
    purity = float(np.real(np.trace(rho_c @ rho_c)))
    bound = float(np.sqrt(max(0.0, 2.0 * purity - 1.0)))
    return DualityReport(v, d, bound)


# -- the measurement campaign in the qubit model -----------------------------

def setting_probabilities(setting: ExperimentSetting, d_value: float) -> np.ndarray:
    """p[..., b, d] at distinguishability d_value, with the axes of the
    setting's index arrays first (none for scalar indices).

    b is the ancilla readout in the computational basis and d the control
    readout in the +/- basis ``PLUS_MINUS`` (0 maps to '+').
    """
    amps = _amplitudes(alice_unitary(setting.x),
                       jones("hwp", np.deg2rad(setting.meas_hwp)),
                       jones("hwp", np.deg2rad(setting.reprep_hwp)),
                       prep_state(setting.z), PLUS_MINUS[0])
    f = coherence(d_value)
    # Tr[(|b><b|_a (x) |d><d|_c (x) 1_s) rho] for rho = |amps><amps| with
    # its control cross terms weighted by f
    weights = np.array([[1.0, f], [f, 1.0]])
    return np.einsum("dc,ce,de,...csb,...esb->...bd", PLUS_MINUS, weights,
                     PLUS_MINUS, amps, amps.conj()).real
