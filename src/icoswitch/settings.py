"""Waveplate-angle catalog of the measurement campaign.

Three input states x ten polarization unitaries for the party inside the
switch x two measurement bases x three repreparation settings for the
measuring party = 180 settings, each with four outcomes (measurement
result b, switch output port d, read in the +/- basis ``PLUS_MINUS``).
``jones`` gives the waveplate matrices that turn the catalog angles into
qubit operators; the optics simulator uses the same matrices.  Every
catalog lookup goes through ``ExperimentSetting``, which raises
``CatalogError`` for an index outside the catalog and takes index arrays.
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

# the switch output's readout basis: row d is the ket of outcome d,
# |+> for d = 0 and |-> for d = 1
PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
PLUS_MINUS.flags.writeable = False

# the catalog's (z, x, y, r) axes; a probability table is an array of
# shape SHAPE + (2, 2) indexed [z-1, x-1, y-1, r-1, b, d]
SHAPE = (len(INPUT_STATES), len(ALICE_TRIPLES), len(BOB_MEAS_HWP),
         len(BOB_REPREP_HWP))


class CatalogError(ValueError):
    """Setting or outcome index outside the waveplate catalog."""


@dataclass(frozen=True)
class ExperimentSetting:
    """One of the 180 configurations, with concrete waveplate angles; index
    arrays (``np.indices(SHAPE, sparse=True)`` + 1) give arrays of angles."""

    z: int  # input state, 1..3
    x: int  # Alice unitary, 1..10
    y: int  # Bob measurement HWP, 1..2
    r: int  # Bob repreparation HWP, 1..3

    def __post_init__(self):
        for i, n in zip(map(np.asarray, (self.z, self.x, self.y, self.r)), SHAPE):
            if i.dtype.kind not in "iu" or not np.all((1 <= i) & (i <= n)):
                raise CatalogError(f"setting index not an integer in 1..{n}: {self}")

    @property
    def prep_qwp(self):
        return np.asarray(INPUT_STATES)[self.z - 1, 0]

    @property
    def prep_hwp(self):
        return np.asarray(INPUT_STATES)[self.z - 1, 1]

    @property
    def alice_angles(self):
        return tuple(np.moveaxis(np.asarray(ALICE_TRIPLES)[self.x - 1], -1, 0))

    @property
    def meas_hwp(self):
        return np.asarray(BOB_MEAS_HWP)[self.y - 1]

    @property
    def reprep_hwp(self):
        return np.asarray(BOB_REPREP_HWP)[self.r - 1]


# -- qubit-level operators realized by the catalog angles --------------------

def jones(kind: str, theta) -> np.ndarray:
    """Single-photon polarization matrix of a waveplate at angle theta
    (rad); an array of angles gives a stack of them, its axes first."""
    if kind == "hwp":
        c, s = np.cos(2 * theta), np.sin(2 * theta)
        rows = [[c, s], [s, -c]]
    elif kind == "qwp":  # R(theta) diag(1, -i) R(-theta)
        c, s = np.cos(theta), np.sin(theta)
        rows = [[c * c - 1j * s * s, (1 + 1j) * c * s],
                [(1 + 1j) * c * s, s * s - 1j * c * c]]
    else:
        raise ValueError(f"unknown waveplate kind: {kind!r}")
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))


def prep_state(z) -> np.ndarray:
    """Polarization ket prepared by input row z (QWP then HWP, from |H>)."""
    s = ExperimentSetting(z, 1, 1, 1)
    u = jones("hwp", np.deg2rad(s.prep_hwp)) @ jones("qwp", np.deg2rad(s.prep_qwp))
    return u @ np.array([1.0, 0.0], dtype=complex)


def alice_unitary(x) -> np.ndarray:
    """Jones matrix of Alice triple x (QWP, HWP, QWP in beam order)."""
    q1, h, q2 = np.deg2rad(ExperimentSetting(1, x, 1, 1).alice_angles)
    return jones("qwp", q2) @ jones("hwp", h) @ jones("qwp", q1)


def bob_kraus(y, r, b: int) -> np.ndarray:
    """Measure-and-reprepare Kraus operator for outcome b in {0, 1}.

    The measurement HWP rotates the system before a polarizing beamsplitter
    (outcome read from the ancilla), and the repreparation HWP rotates the
    post-selected polarization afterwards: K_b = H(r) |b><b| H(y).
    """
    s = ExperimentSetting(1, 1, y, r)
    if np.asarray(b).dtype.kind not in "iu" or b not in (0, 1):
        raise CatalogError(f"outcome b must be 0 or 1, got {b}")
    hy = jones("hwp", np.deg2rad(s.meas_hwp))
    hr = jones("hwp", np.deg2rad(s.reprep_hwp))
    proj = np.zeros((2, 2), dtype=complex)
    proj[b, b] = 1.0
    return hr @ proj @ hy
