"""Waveplate-angle catalog of the measurement campaign.

Three input states x ten polarization unitaries for the party inside the
switch x two measurement bases x three repreparation settings for the
measuring party = 180 settings, each with four outcomes (measurement
result b, switch output port d).  ``jones`` gives the waveplate matrices
that turn the catalog angles into qubit operators; the optics simulator
uses the same matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (QWP, HWP) degrees; beam passes the QWP first
INPUT_STATES = [(0.0, 0.0), (0.0, 22.5), (45.0, 0.0)]

BOB_MEAS_HWP = [0.0, 22.5]          # Z and X measurement bases
BOB_REPREP_HWP = [0.0, 22.5, 45.0]

# (QWP, HWP, QWP) degrees, in beam order
ALICE_TRIPLES = [
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 45.0),
    (0.0, 45.0, 0.0),
    (45.0, 0.0, 0.0),
    (45.0, 0.0, 90.0),
    (45.0, 45.0, 90.0),
    (90.0, 0.0, 0.0),
    (90.0, 0.0, 45.0),
    (90.0, 45.0, 0.0),
    (90.0, 45.0, 45.0),
]

# the catalog's (z, x, y, r) axes; a probability table is an array of
# shape SHAPE + (2, 2) indexed [z-1, x-1, y-1, r-1, b, d]
SHAPE = (len(INPUT_STATES), len(ALICE_TRIPLES), len(BOB_MEAS_HWP),
         len(BOB_REPREP_HWP))


@dataclass(frozen=True)
class ExperimentSetting:
    """One of the 180 configurations, with concrete waveplate angles."""

    z: int  # input state, 1..3
    x: int  # Alice unitary, 1..10
    y: int  # Bob measurement HWP, 1..2
    r: int  # Bob repreparation HWP, 1..3

    def __post_init__(self):
        if not all(1 <= i <= n for i, n in
                   zip((self.z, self.x, self.y, self.r), SHAPE)):
            raise ValueError(f"setting indices out of range: {self}")

    @property
    def prep_qwp(self):
        return INPUT_STATES[self.z - 1][0]

    @property
    def prep_hwp(self):
        return INPUT_STATES[self.z - 1][1]

    @property
    def alice_angles(self):
        return ALICE_TRIPLES[self.x - 1]

    @property
    def meas_hwp(self):
        return BOB_MEAS_HWP[self.y - 1]

    @property
    def reprep_hwp(self):
        return BOB_REPREP_HWP[self.r - 1]


def enumerate_settings():
    """All 180 settings in (z, x, y, r) lexicographic order, the row order
    of a probability table."""
    return [ExperimentSetting(*(i + 1 for i in idx))
            for idx in np.ndindex(SHAPE)]


# -- qubit-level operators realized by the catalog angles --------------------

def jones(kind: str, theta: float) -> np.ndarray:
    """Single-photon polarization matrix of a waveplate at angle theta (rad)."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    if kind == "hwp":
        return np.array([[c, s], [s, -c]], dtype=complex)
    if kind == "qwp":
        r = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        return r @ np.diag([1.0, -1.0j]) @ r.T
    raise ValueError(f"unknown waveplate kind: {kind!r}")


def prep_state(z: int) -> np.ndarray:
    """Polarization ket prepared by input row z (QWP then HWP, from |H>)."""
    qwp, hwp = INPUT_STATES[z - 1]
    u = jones("hwp", np.deg2rad(hwp)) @ jones("qwp", np.deg2rad(qwp))
    return u @ np.array([1.0, 0.0], dtype=complex)


def alice_unitary(x: int) -> np.ndarray:
    """Jones matrix of Alice triple x (QWP, HWP, QWP in beam order)."""
    q1, h, q2 = (np.deg2rad(a) for a in ALICE_TRIPLES[x - 1])
    return jones("qwp", q2) @ jones("hwp", h) @ jones("qwp", q1)


def bob_kraus(y: int, r: int, b: int) -> np.ndarray:
    """Measure-and-reprepare Kraus operator for outcome b in {0, 1}.

    The measurement HWP rotates the system before a polarizing beamsplitter
    (outcome read from the ancilla), and the repreparation HWP rotates the
    post-selected polarization afterwards: K_b = H(r) |b><b| H(y).
    """
    hy = jones("hwp", np.deg2rad(BOB_MEAS_HWP[y - 1]))
    hr = jones("hwp", np.deg2rad(BOB_REPREP_HWP[r - 1]))
    proj = np.zeros((2, 2), dtype=complex)
    proj[b, b] = 1.0
    return hr @ proj @ hy
