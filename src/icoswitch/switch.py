"""Qubit-level model of the measurement inside the switch.

Labels: c = control (path) qubit, s = system (polarization) qubit,
a = probe ancilla qubit.  The control branch |0>_c applies Alice's unitary
before the measurement interaction; |1>_c applies it after.  Bob's
interaction couples the system to the ancilla through a CNOT sandwiched
between a measurement-basis rotation (before) and a repreparation rotation
(after).  Which-path information carried by the environment dephases the
control with knob D (``qmath.dephase``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import LabeledOperator, LabeledVector, dephase, partial_trace, tensor
from .settings import PLUS_MINUS, ExperimentSetting, alice_unitary, jones, prep_state

UNITARY_TOL = 1e-10

KET0 = np.array([1.0, 0.0], dtype=complex)


def _as_qubit(state) -> np.ndarray:
    if isinstance(state, LabeledVector):
        state = state.amplitudes
    state = np.asarray(state, dtype=complex).reshape(2)
    n = np.linalg.norm(state)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"qubit state norm {n:.3e} != 1")
    return state


def _check_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex).reshape(2, 2)
    if np.abs(u @ u.conj().T - np.eye(2)).max() > UNITARY_TOL:
        raise ValueError("basis must be unitary to 1e-10")
    return u


def _cnot_sa() -> LabeledOperator:
    # system controls, ancilla flips
    p0 = LabeledOperator(["s"], [2], np.diag([1.0, 0.0]))
    p1 = LabeledOperator(["s"], [2], np.diag([0.0, 1.0]))
    eye = LabeledOperator(["a"], [2], np.eye(2))
    x = LabeledOperator(["a"], [2], np.array([[0, 1], [1, 0]]))
    return tensor([p0, eye]) + tensor([p1, x])


def _vn_operator(meas, reprep) -> LabeledOperator:
    """(reprep (x) 1) CNOT (meas (x) 1) on labels {s, a}."""
    eye = LabeledOperator(["a"], [2], np.eye(2))
    m = tensor([LabeledOperator(["s"], [2], meas), eye])
    r = tensor([LabeledOperator(["s"], [2], reprep), eye])
    return r @ _cnot_sa() @ m


def switch_evolve(u_alice, bob_basis, system, control=PLUS_MINUS[0],
                  bob_reprep=None) -> LabeledVector:
    """Joint {c, s, a} state after the coherently ordered interactions.

    Branch |0>_c applies Alice's unitary first, then Bob's probe coupling;
    branch |1>_c applies them in the opposite order.  ``bob_reprep``
    defaults to the adjoint of ``bob_basis`` (measure and reprepare in the
    same basis).
    """
    ua = _check_unitary(u_alice)
    meas = _check_unitary(bob_basis)
    reprep = meas.conj().T if bob_reprep is None else _check_unitary(bob_reprep)
    psi = _as_qubit(system)
    ctrl = _as_qubit(control)

    eye_a = LabeledOperator(["a"], [2], np.eye(2))
    alice = tensor([LabeledOperator(["s"], [2], ua), eye_a])
    vn = _vn_operator(meas, reprep)
    joint = tensor([
        LabeledVector(["s"], [2], psi),
        LabeledVector(["a"], [2], KET0),
    ])
    branch = {0: (vn @ alice) @ joint, 1: (alice @ vn) @ joint}

    amps = {}
    for k in (0, 1):
        ket_c = LabeledVector(["c"], [2], np.eye(2)[k])
        amps[k] = tensor([ket_c, branch[k]])
    total = ctrl[0] * amps[0].amplitudes + ctrl[1] * amps[1].amplitudes
    return LabeledVector(amps[0].labels, amps[0].dims, total)


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
    """p[b, d] for one waveplate setting at distinguishability d_value.

    b is the ancilla readout in the computational basis and d the control
    readout in the +/- basis ``PLUS_MINUS`` (0 maps to '+').
    """
    meas = jones("hwp", np.deg2rad(setting.meas_hwp))
    reprep = jones("hwp", np.deg2rad(setting.reprep_hwp))
    state = switch_evolve(
        alice_unitary(setting.x), meas, prep_state(setting.z),
        bob_reprep=reprep,
    )
    rho = dephase(state.outer(), "c", d_value)
    probs = np.empty((2, 2))
    for b, d in np.ndindex(probs.shape):
        proj_b = np.zeros((2, 2)); proj_b[b, b] = 1.0
        ket = PLUS_MINUS[d]
        eff = tensor([
            LabeledOperator(["c"], [2], np.outer(ket, ket.conj())),
            LabeledOperator(["s"], [2], np.eye(2)),
            LabeledOperator(["a"], [2], proj_b),
        ])
        probs[b, d] = np.real(eff.expectation(rho))
    return probs
