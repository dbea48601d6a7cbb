"""Second-quantized simulation of the two-photon optical table.

A mode is a (spatial path, polarization, temporal bin) triple.  States are
stored as creation-operator monomial coefficients,

    |state> = sum_config  amp[config] * prod_{m in config} adag_m |vac>,

so the squared norm of a configuration carries a factorial for multiply
occupied modes.  Optical elements act by substituting each creation
operator with its single-photon image, which extends homomorphically to
any photon number (permanent-style expansion); Hong-Ou-Mandel bunching
falls out of the bookkeeping.

Conventions, fixed once and validated against the qubit-level oracle:
balanced beamsplitters have real transmission and +i reflection; PBSs
transmit H and reflect V with unit phase; HWP(t) = [[cos2t, sin2t],
[sin2t, -cos2t]]; QWP(t) = R(t) diag(1, -i) R(-t).  Temporally mismatched
eraser arms share a bin with amplitude sqrt(overlap) and occupy private
bins with amplitude sqrt(1 - overlap), so the arm overlap equals the
overlap parameter.

This module runs a bound circuit; it does not describe one.  The switch
table lives in a circuit file (``data/switch.circuit`` for the reference
table), and ``circuits`` parses it, binds one setting's angles and builds
the ``SwitchProgram`` run here, detector paths included.
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


@dataclass(frozen=True)
class OpticalElement:
    """One linear-optical element acting on declared paths.

    kind      one of bs50, pbs, hwp, qwp, phase, delay, swap
    paths     acted path names (two for bs50/pbs/swap, one otherwise)
    param     angle in radians (hwp, qwp, phase) or mode overlap in [0, 1]
              (delay); unused otherwise
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

    def image(self, m: Mode):
        """Single-photon image of adag_m as [(mode, amplitude), ...]."""
        k = self.kind
        if k == "bs50":
            a, b = self.paths
            if m.path == a:
                return [(m, _SQ2), (Mode(b, m.pol, m.tbin), 1j * _SQ2)]
            if m.path == b:
                return [(Mode(a, m.pol, m.tbin), 1j * _SQ2), (m, _SQ2)]
        elif k == "pbs":
            a, b = self.paths
            if m.path == a and m.pol == "V":
                return [(Mode(b, "V", m.tbin), 1.0)]
            if m.path == b and m.pol == "V":
                return [(Mode(a, "V", m.tbin), 1.0)]
        elif k in ("hwp", "qwp"):
            (p,) = self.paths
            if m.path == p:
                u = jones(k, self.param)
                col = 0 if m.pol == "H" else 1
                return [
                    (Mode(p, "H", m.tbin), u[0, col]),
                    (Mode(p, "V", m.tbin), u[1, col]),
                ]
        elif k == "phase":
            (p,) = self.paths
            if m.path == p:
                return [(m, np.exp(1j * self.param))]
        elif k == "delay":
            (p,) = self.paths
            if m.path == p:
                co = np.sqrt(self.param)
                si = np.sqrt(1.0 - self.param)
                if m.tbin == 0:
                    return [(m, co), (Mode(p, m.pol, self.bin), si)]
                if m.tbin == self.bin:
                    return [(Mode(p, m.pol, 0), -si), (m, co)]
        elif k == "swap":
            a, b = self.paths
            if m.path == a:
                return [(Mode(b, m.pol, m.tbin), 1.0)]
            if m.path == b:
                return [(Mode(a, m.pol, m.tbin), 1.0)]
        return [(m, 1.0)]


def _config_weight(config) -> int:
    """Product of occupation factorials: <config|config> for monomials."""
    w = 1
    for _, group in itertools.groupby(config):
        w *= factorial(sum(1 for _ in group))
    return w


class FockState:
    """Fixed-photon-number state as creation-monomial coefficients.

    ``paths`` declares the circuit's path universe; it defaults to the
    paths occupied by the given configurations.  Elements may only touch
    declared paths (vacuum ports included).
    """

    __slots__ = ("terms", "photons", "paths")

    def __init__(self, terms: dict, paths=None, drop_below: float = 0.0):
        clean = {}
        photons = None
        seen = set()
        for config, amp in terms.items():
            config = tuple(sorted(config))
            if photons is None:
                photons = len(config)
            elif len(config) != photons:
                raise ValueError("mixed photon numbers in one state")
            seen.update(m.path for m in config)
            if abs(amp) > drop_below:
                clean[config] = clean.get(config, 0.0) + complex(amp)
        if photons is None:
            raise ValueError("empty state")
        self.terms = clean
        self.photons = photons
        self.paths = frozenset(seen if paths is None else set(paths) | seen)

    def norm_sq(self) -> float:
        return float(sum(
            abs(a) ** 2 * _config_weight(c) for c, a in self.terms.items()
        ))

    def probabilities(self) -> dict:
        """Detection probability of each configuration (not renormalized)."""
        return {
            c: abs(a) ** 2 * _config_weight(c) for c, a in self.terms.items()
        }

    def renormalized(self) -> "FockState":
        n = np.sqrt(self.norm_sq())
        if n < NULL_POSTSELECTION:
            raise NullPostselectionError("cannot renormalize a null state")
        return FockState({c: a / n for c, a in self.terms.items()},
                         paths=self.paths)


def evolve(state: FockState, element: OpticalElement) -> FockState:
    """Apply the homomorphic extension of the element's single-photon map."""
    for p in element.paths:
        if p not in state.paths:
            raise ValueError(f"element path {p!r} not declared in the state")
    new: dict = {}
    for config, amp in state.terms.items():
        images = [element.image(m) for m in config]
        for combo in itertools.product(*images):
            modes = tuple(sorted(m for m, _ in combo))
            a = amp * prod(c for _, c in combo)
            new[modes] = new.get(modes, 0.0) + a
    return FockState(new, paths=state.paths, drop_below=1e-300)


def run_elements(state: FockState, elements) -> FockState:
    for el in elements:
        state = evolve(state, el)
    return state


def postselect(state: FockState, pattern: Callable) -> tuple:
    """Keep configurations accepted by ``pattern``.

    Returns (renormalized state, probability), with the probability being
    the squared norm of the matching component.  Raises
    NullPostselectionError below the null threshold so that callers never
    renormalize numerical noise.
    """
    kept = {c: a for c, a in state.terms.items() if pattern(c)}
    prob = float(sum(abs(a) ** 2 * _config_weight(c) for c, a in kept.items()))
    if prob < NULL_POSTSELECTION:
        raise NullPostselectionError(f"post-selection weight {prob:.3e}")
    kept_state = FockState(kept, paths=state.paths).renormalized()
    return kept_state, prob


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

    The interferometer scan phase is injected on ``scan_path`` just before
    the recombining beamsplitter (after ``before_scan``, which already ends
    with the fixed alignment phase).  ``system_paths`` and
    ``ancilla_paths`` are the two detectors' paths in port order; outcome
    extraction folds the ancilla output port into the port outcome (the
    port correlation left by the eraser).
    """

    initial: FockState
    before_scan: tuple
    after_scan: tuple
    scan_path: str
    system_paths: tuple
    ancilla_paths: tuple

    def state(self, phase: float = 0.0) -> FockState:
        st = run_elements(self.initial, self.before_scan)
        if phase:
            st = evolve(st, OpticalElement("phase", (self.scan_path,), phase))
        return run_elements(st, self.after_scan)

    def joint_distribution(self, phase: float = 0.0) -> dict:
        """Raw p[(sys_port, sys_pol, anc_port, anc_pol)] before folding."""
        st = self.state(phase)
        out: dict = {}
        for config, p in st.probabilities().items():
            sys_modes = [m for m in config if m.path in self.system_paths]
            anc_modes = [m for m in config if m.path in self.ancilla_paths]
            if len(sys_modes) != 1 or len(anc_modes) != 1:
                continue  # post-selection: one photon per side
            (sm,), (am,) = sys_modes, anc_modes
            key = (self.system_paths.index(sm.path), sm.pol,
                   self.ancilla_paths.index(am.path), am.pol)
            out[key] = out.get(key, 0.0) + p
        return out

    def outcome_probabilities(self, phase: float = 0.0) -> np.ndarray:
        """Normalized p[b, d]: b = ancilla polarization, d = folded port."""
        joint = self.joint_distribution(phase)
        total = sum(joint.values())
        out = np.zeros((2, 2))
        for (sp, _, ap, apol), p in joint.items():
            out[0 if apol == "H" else 1, sp ^ ap] += p / total
        return out

    def coincidence_probability(self, phase: float) -> float:
        """Raw coincidence probability of port 0 of both detectors, both
        photons H (fringe scans)."""
        return self.joint_distribution(phase).get((0, "H", 0, "H"), 0.0)
