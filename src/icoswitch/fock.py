"""Second-quantized simulation of the two-photon optical table.

A mode is a (spatial path, polarization, temporal bin) triple, and a
state's modes run over its paths x (H, V) x bins.  An n-photon state is one
amplitude array psi over those modes, one axis per photon, symmetric under
permuting the axes.  It is built from, and read back as, the
creation-operator monomial coefficients

    |state> = sum_config  amp[config] * prod_{m in config} adag_m |vac>,

psi being amp * prod_m n_m! / sqrt(n!) at each ordering of a config, so
that sum |psi|^2 is the squared norm.  An element acts on one photon by its
mode matrix (``OpticalElement.transfer``) and on the state by that matrix
on each photon's axis; Hong-Ou-Mandel bunching falls out of the symmetric
array.  ``evolve`` multiplies a whole element list into one matrix before
it applies it (the transfer-matrix method).  Angle arrays, one angle per
setting or scan phase, make each matrix, state and readout a stack.

Conventions, fixed once and validated against the qubit-level oracle:
balanced beamsplitters have real transmission and +i reflection; PBSs
transmit H and reflect V with unit phase; HWP(t) = [[cos2t, sin2t],
[sin2t, -cos2t]]; QWP(t) = R(t) diag(1, -i) R(-t).  Temporally mismatched
eraser arms share a bin with amplitude sqrt(overlap) and occupy private
bins with amplitude sqrt(1 - overlap), so the arm overlap equals the
overlap parameter.

This module runs a bound circuit; it does not describe one.  The switch
table lives in a circuit file (``data/switch.circuit`` for the reference
table), and ``circuits`` parses it, binds the settings' angles and scan
phases and builds the ``SwitchProgram`` run here, detector paths included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable, NamedTuple

import numpy as np

from .settings import jones

NULL_POSTSELECTION = 1e-14


class NullPostselectionError(RuntimeError):
    """Post-selected component has (numerically) zero weight."""


class Mode(NamedTuple):
    path: str
    pol: str  # 'H' or 'V'
    tbin: int


_SQ2 = 1.0 / np.sqrt(2.0)
# two-path elements on (path, pol): a pbs keeps H on its path and crosses V
_TWO_PATH = {
    "bs50": np.kron(_SQ2 * np.array([[1, 1j], [1j, 1]]), np.eye(2)),
    "swap": np.kron([[0, 1], [1, 0]], np.eye(2)),
    "pbs": np.diag([1, 0, 1, 0]) + np.kron([[0, 1], [1, 0]], np.diag([0, 1])),
}


def _modes(paths, bins) -> tuple:
    return tuple(Mode(p, pol, b) for p in paths for pol in "HV" for b in bins)


@dataclass(frozen=True)
class OpticalElement:
    """One linear-optical element acting on declared paths.

    kind      one of bs50, pbs, hwp, qwp, phase, delay, swap
    paths     acted path names (two for bs50/pbs/swap, one otherwise)
    param     angle in radians, or an array of them (hwp, qwp, phase), or
              mode overlap in [0, 1] (delay); unused otherwise
    bin       private temporal bin (an integer >= 1) populated by a delay
    """

    kind: str
    paths: tuple
    param: float = 0.0
    bin: int = 1

    def __post_init__(self):
        two = {"bs50", "pbs", "swap"}
        if self.kind in two and (len(self.paths) != 2
                                 or self.paths[0] == self.paths[1]):
            raise ValueError(f"{self.kind} needs two distinct paths, "
                             f"got {self.paths}")
        if self.kind in {"hwp", "qwp", "phase", "delay"} and len(self.paths) != 1:
            raise ValueError(f"{self.kind} acts on one path, got {self.paths}")
        if self.kind == "delay" and not 0.0 <= self.param <= 1.0:
            raise ValueError(f"delay overlap must be in [0, 1], got {self.param}")
        if self.kind == "delay" and not (self.bin >= 1
                                         and float(self.bin).is_integer()):
            raise ValueError(f"delay bin must be an integer >= 1, got {self.bin}")
        if self.kind not in {"bs50", "pbs", "hwp", "qwp", "phase", "delay", "swap"}:
            raise ValueError(f"unknown element kind: {self.kind!r}")
        object.__setattr__(self, "bin", int(self.bin))

    def transfer(self, paths: tuple, bins: tuple) -> np.ndarray:
        """Single-photon mode matrix over paths x (H, V) x bins: column m
        is the image of adag_m.  Off its own paths the element is the
        identity.  An array ``param`` gives a stack, its axes first."""
        turn = np.eye(len(bins))
        if self.kind in ("hwp", "qwp"):
            path_pol = jones(self.kind, self.param)
        elif self.kind == "phase":
            path_pol = np.multiply.outer(np.exp(1j * self.param), np.eye(2))
        elif self.kind == "delay":  # bin 0 and the private bin trade amplitude
            co, si = np.sqrt(self.param), np.sqrt(1.0 - self.param)
            z, b = bins.index(0), bins.index(self.bin)
            turn[[z, b, b, z], [z, b, z, b]] = co, co, si, -si
            path_pol = np.eye(2)
        else:
            path_pol = _TWO_PATH[self.kind]
        block = 2 * len(bins)
        rows = np.array([paths.index(p) * block + i for p in self.paths
                         for i in range(block)])
        t = np.tile(np.eye(len(paths) * block, dtype=complex),
                    path_pol.shape[:-2] + (1, 1))
        # the Kronecker product path_pol (x) turn on the element's rows
        kron = path_pol[..., :, None, :, None] * turn[:, None, :]
        t[..., rows[:, None], rows] = kron.reshape(t.shape[:-2] + (rows.size, -1))
        return t


def _multiplicity(config) -> int:
    """prod_m n_m!: <config|config> of the creation monomial."""
    return prod(factorial(config.count(m)) for m in set(config))


class FockState:
    """Fixed-photon-number state: the symmetric array ``amplitudes`` over
    ``modes``, one axis per photon after any setting axes.  ``paths``
    declares the circuit's path universe; it defaults to the paths occupied
    by the given configurations.  Elements may only touch declared paths
    (vacuum ports included).  The bins are 0 and the occupied ones.
    """

    __slots__ = ("amplitudes", "paths", "bins", "photons")

    def __init__(self, terms: dict, paths=None):
        photons = {len(config) for config in terms}
        if not photons:
            raise ValueError("empty state")
        if len(photons) > 1:
            raise ValueError("mixed photon numbers in one state")
        seen = {m.path for config in terms for m in config}
        self.paths = tuple(sorted(seen if paths is None else set(paths) | seen))
        self.bins = tuple(sorted({0, *(m.tbin for c in terms for m in c)}))
        index = {m: i for i, m in enumerate(self.modes)}
        (self.photons,) = photons
        sorted_amps = np.zeros((len(index),) * self.photons, dtype=complex)
        for config, amp in terms.items():
            sorted_amps[tuple(sorted(index[m] for m in config))] += amp
        # summing the axis orders puts prod_m n_m! amp at each ordering
        orders = itertools.permutations(range(self.photons))
        self.amplitudes = (sum(sorted_amps.transpose(o) for o in orders)
                           / np.sqrt(factorial(self.photons)))

    @property
    def modes(self) -> tuple:
        return _modes(self.paths, self.bins)

    @property
    def terms(self) -> dict:
        """Monomial coefficient of each configuration (modes sorted) whose
        amplitude is nonzero, of a state without setting axes."""
        modes, root = self.modes, np.sqrt(factorial(self.photons))
        out = {}
        nonzero = np.argwhere(self.amplitudes)
        for idx in nonzero[np.all(nonzero[:, :-1] <= nonzero[:, 1:], axis=1)]:
            config = tuple(modes[i] for i in idx)
            out[config] = (complex(self.amplitudes[tuple(idx)]) * root
                           / _multiplicity(config))
        return out

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probabilities(self) -> dict:
        """Detection probability of each configuration (not renormalized)."""
        return {c: abs(a) ** 2 * _multiplicity(c)
                for c, a in self.terms.items()}

    def renormalized(self) -> "FockState":
        n = np.sqrt(self.norm_sq())
        if n < NULL_POSTSELECTION:
            raise NullPostselectionError("cannot renormalize a null state")
        return FockState({c: a / n for c, a in self.terms.items()},
                         paths=self.paths)


def evolve(state: FockState, *elements: OpticalElement) -> FockState:
    """Apply the elements in order, as one linear-optical map: their mode
    matrices, over the state's bins and each delay's private bin, are
    multiplied into one U per setting, which then acts on each photon's axis.
    """
    undeclared = [p for el in elements for p in el.paths
                  if p not in state.paths]
    if undeclared:
        raise ValueError(f"element path {undeclared[0]!r} not declared in the state")
    bins = tuple(sorted({*state.bins,
                         *(el.bin for el in elements if el.kind == "delay")}))
    index = {m: i for i, m in enumerate(_modes(state.paths, bins))}
    u = np.eye(len(index))[:, [index[m] for m in state.modes]]
    for el in elements:
        u = el.transfer(state.paths, bins) @ u
    psi, n = state.amplitudes, state.photons
    for _ in range(n):  # U on the first photon axis, which then moves last
        lead, (m, *rest) = psi.shape[:psi.ndim - n], psi.shape[psi.ndim - n:]
        psi = u @ psi.reshape(*lead, m, -1)
        psi = np.moveaxis(psi.reshape(*psi.shape[:-1], *rest), -n, -1)
    out = object.__new__(FockState)
    out.amplitudes, out.paths, out.bins, out.photons = psi, state.paths, bins, n
    return out


def postselect(state: FockState, pattern: Callable) -> tuple:
    """Keep configurations accepted by ``pattern``.

    Returns (renormalized state, probability), with the probability being
    the squared norm of the matching component.  Raises
    NullPostselectionError below the null threshold so that callers never
    renormalize numerical noise.
    """
    prob = float(sum(p for c, p in state.probabilities().items() if pattern(c)))
    if prob < NULL_POSTSELECTION:
        raise NullPostselectionError(f"post-selection weight {prob:.3e}")
    kept = {c: a for c, a in state.terms.items() if pattern(c)}
    return FockState(kept, paths=state.paths).renormalized(), prob


def one_photon_per_group(*groups):
    """Pattern: exactly one photon in each of the given path groups."""
    groups = [set(g) for g in groups]

    def pattern(config):
        counts = [0] * len(groups)
        for m in config:
            for i, g in enumerate(groups):
                if m.path in g:
                    counts[i] += 1
        return all(c == 1 for c in counts)

    return pattern


# -- the switch program -------------------------------------------------------

@dataclass(frozen=True)
class SwitchProgram:
    """End-to-end two-photon program of a bound switch circuit.

    ``elements`` is the bound element list in beam order, the scan phase
    included.  ``system_paths`` and ``ancilla_paths`` are the two
    detectors' paths in port order; outcome extraction folds the ancilla
    output port into the port outcome (the port correlation left by the
    eraser).  The readouts keep the state's setting axes in front.
    """

    initial: FockState
    elements: tuple
    system_paths: tuple
    ancilla_paths: tuple

    def state(self) -> FockState:
        return evolve(self.initial, *self.elements)

    def joint_distribution(self) -> np.ndarray:
        """Raw p[..., sys_port, sys_pol, anc_port, anc_pol] of one photon at
        each detector (pol 0 is H), before folding."""
        st = self.state()
        p, b = len(st.paths), len(st.bins)
        amps = st.amplitudes.reshape(*st.amplitudes.shape[:-2], p, 2, b, p, 2, b)
        weight = (np.abs(amps) ** 2).sum(axis=(-4, -1))
        sys = [st.paths.index(q) for q in self.system_paths]
        anc = [st.paths.index(q) for q in self.ancilla_paths]
        # the photons' two orderings carry equal weight
        return 2 * weight[..., sys, :, :, :][..., anc, :]

    def outcome_probabilities(self) -> np.ndarray:
        """Normalized p[..., b, d]: b = ancilla polarization, d = folded port;
        all zero when no coincidence occurs."""
        joint = self.joint_distribution().sum(axis=-3)
        out = np.zeros(joint.shape[:-3] + (2, 2))
        for sp, ap in np.ndindex(joint.shape[-3:-1]):
            out[..., :, sp ^ ap] += joint[..., sp, ap, :]
        total = out.sum(axis=(-2, -1), keepdims=True)
        return np.divide(out, total, out=np.zeros_like(out), where=total != 0)

    def coincidence_probability(self) -> np.ndarray:
        """Raw coincidence probability of port 0 of both detectors, both
        photons H (fringe scans)."""
        return self.joint_distribution()[..., 0, 0, 0, 0]
