"""Waveplate-angle catalog of the measurement campaign.

Three input states x ten polarization unitaries for the party inside the
switch x two measurement bases x three repreparation settings for the
measuring party = 180 settings, each with four outcomes (measurement
result b, switch output port d, read in the +/- basis ``PLUS_MINUS``).
``jones`` gives the waveplate matrices that turn the catalog angles into
qubit operators; the optics simulator uses the same matrices.  Every
catalog lookup goes through ``ExperimentSetting``, which raises
``CatalogError`` for an index outside the catalog and takes index arrays
(``CATALOG``'s, read-only, for all 180); its ``operators`` feed both matrix
models.
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
    """Setting index outside the waveplate catalog."""


@dataclass(frozen=True)
class ExperimentSetting:
    """One of the 180 configurations, with concrete waveplate angles; index
    arrays that broadcast give arrays of them."""

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

    def operators(self):
        """(psi, U, M, R) stacked over the index arrays' axes: the prepared
        ket (QWP then HWP, from |H>), Alice's Jones matrix (QWP, HWP, QWP in
        beam order), and Bob's HWPs before and after a polarizing
        beamsplitter read out on the ancilla, so K_b = R |b><b| M."""
        psi = (jones("hwp", np.deg2rad(self.prep_hwp))
               @ jones("qwp", np.deg2rad(self.prep_qwp))
               @ np.array([1.0, 0.0], dtype=complex))
        q1, h, q2 = np.deg2rad(self.alice_angles)
        u = jones("qwp", q2) @ jones("hwp", h) @ jones("qwp", q1)
        return (psi, u, jones("hwp", np.deg2rad(self.meas_hwp)),
                jones("hwp", np.deg2rad(self.reprep_hwp)))


# -- waveplate matrices that turn the catalog angles into operators ---------

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


# all 180 settings: index arrays that broadcast over SHAPE, read in C order
# as the rows of a probability table (read-only views)
CATALOG = ExperimentSetting(*(np.broadcast_to(i + 1, i.shape)
                              for i in np.indices(SHAPE, sparse=True)))
