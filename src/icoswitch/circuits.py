"""Line-oriented optical-circuit descriptions.

Format: one declaration per line, ``key=value`` parameters, ``#``
comments, angles in degrees.  Elements execute in file order (the
physical sequence through the unfolded table).

    path c0 c1 p0 p1
    source pair paths=c0:p0,c1:p1
    hwp path=c0 angle=$prep_hwp
    pbs paths=c0,p0
    delay path=p1 overlap=$overlap bin=2
    phase path=c1 angle=$scan
    bs50 paths=c0,c1
    detector name=system paths=c0,c1
    detector name=ancilla paths=p0,p1

Each line head takes the keys in ``LINE_KEYS``, each at most once.  An
element parameter is a finite number, used as written, or a ``$slot``
from ``SLOTS``, bound per run to a catalog waveplate angle, the run's
eraser mode overlap or the fringe scan's phase.

The file declares one source and the ``system`` and ``ancilla``
detectors once each, and at least one ``phase`` with ``angle=$scan``; a
detector lists its paths in port order, ports 0 and 1 at most.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fock import FockState, Mode, OpticalElement, SwitchProgram

# line head -> {key: default}; a key without a default is required
LINE_KEYS = {
    "source": {"paths": None, "pol": "H"},
    "detector": {"name": None, "paths": None},
    "bs50": {"paths": None}, "pbs": {"paths": None}, "swap": {"paths": None},
    "hwp": {"path": None, "angle": 0.0}, "qwp": {"path": None, "angle": 0.0},
    "phase": {"path": None, "angle": 0.0},
    "delay": {"path": None, "overlap": 1.0, "bin": 1},
}
# slot -> the (element kind, parameter) it binds
SLOTS = {
    "prep_qwp": ("qwp", "angle"), "prep_hwp": ("hwp", "angle"),
    "alice_qwp1": ("qwp", "angle"), "alice_hwp": ("hwp", "angle"),
    "alice_qwp2": ("qwp", "angle"),
    "meas_hwp": ("hwp", "angle"), "reprep_hwp": ("hwp", "angle"),
    "overlap": ("delay", "overlap"), "scan": ("phase", "angle"),
}
DETECTORS = ("system", "ancilla")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"line {self.line}, col {self.col}: {self.message}"


class CircuitParseError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class ElementDecl:
    kind: str
    paths: tuple
    params: dict  # parameter -> number, or "$slot" bound per run


@dataclass(frozen=True)
class CircuitSpec:
    paths: tuple
    pairs: tuple     # ((system path, ancilla path), ...) entangled branches
    pol: str
    elements: tuple
    system: tuple    # detector paths in port order
    ancilla: tuple


def _value(head, key, value, paths):
    """The value of ``key=value`` on a ``head`` line; else ValueError."""
    if key in ("path", "paths"):
        for p in re.split("[,:]" if head == "source" else ",", value):
            if p not in paths:
                raise ValueError(f"undeclared path {p!r}")
        if head != "source":
            names = tuple(value.split(","))
            twice = [p for i, p in enumerate(names) if p in names[:i]]
            if head == "detector" and twice:
                raise ValueError(f"detector names path {twice[0]!r} twice")
            return names
        pairs = tuple(tuple(pair.split(":")) for pair in value.split(","))
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"source pair {':'.join(pair)!r} needs sys:anc")
        return pairs
    if key in ("pol", "name"):
        allowed = ("H", "V") if key == "pol" else DETECTORS
        if value not in allowed:
            raise ValueError(f"{key} must be {' or '.join(allowed)}, got {value!r}")
        return value
    if not value.startswith("$"):
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"parameter {key}={value!r} not numeric") from None
        if not np.isfinite(number):
            raise ValueError(f"parameter {key}={value!r} not finite")
        return number
    binds = SLOTS.get(value[1:])
    if binds is None:
        raise ValueError(f"unknown slot {value!r} (slots: {', '.join(SLOTS)})")
    if binds != (head, key):
        raise ValueError(f"slot {value} binds a {' '.join(binds)}, "
                         f"not a {head} {key}")
    return value


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate; raises CircuitParseError with positions.

    Each line is checked against its head's keys.  The whole-file rules
    (one source, both detectors, the scan phase) are checked once every
    line is valid, so that one faulty line gives one diagnostic.
    """
    errors: list = []
    paths: list = []
    elements: list = []
    decls: dict = {}  # "source", "system", "ancilla" -> (line, values)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.start() + 1, m.group())
                  for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens:
            continue
        (col, head), *rest = tokens
        head = head.lower()
        line_errors = len(errors)

        def error(message, at=col):
            errors.append(Diagnostic(line_no, at, message))

        if head == "path":
            for _, p in rest:
                if p in paths:
                    error(f"path {p!r} redeclared")
                paths.append(p)
            continue
        keys = LINE_KEYS.get(head)
        if keys is None:
            error(f"unknown element kind {head!r}")
            continue
        if head == "source":
            word = rest.pop(0)[1] if rest and "=" not in rest[0][1] else ""
            if word != "pair":
                error(f"source takes the keyword pair, got {word!r}")
        values, given = {}, set()
        for tcol, tok in rest:
            key, eq, value = tok.partition("=")
            try:
                if not eq:
                    raise ValueError(f"expected key=value, got {tok!r}")
                if key not in keys:
                    raise ValueError(f"{head} has no parameter {key!r} "
                                     f"(takes: {', '.join(keys)})")
                if key in given:
                    raise ValueError(f"{head} takes {key} once")
                given.add(key)
                values[key] = _value(head, key, value, paths)
            except ValueError as exc:
                error(str(exc), tcol)
        for key, default in keys.items():
            if default is None and key not in given:
                error(f"{head} needs {key}=...")
            values.setdefault(key, default)
        if len(errors) > line_errors:
            continue

        if head in ("source", "detector"):
            name = values.get("name", head)
            if name in decls:
                error(f"more than one {head}"
                      + (f" name={name}" if head == "detector" else ""))
            decls[name] = (line_no, values)
            continue
        epaths = values.pop("path" if "path" in keys else "paths")
        try:  # the element's own rules, slots at their key's default
            _to_element(head, epaths, {k: keys[k] if isinstance(v, str) else v
                                       for k, v in values.items()})
        except ValueError as exc:
            error(str(exc))
            continue
        elements.append(ElementDecl(head, epaths, values))

    if errors:
        raise CircuitParseError(errors)
    return _whole_file(tuple(paths), decls, tuple(elements))


def _whole_file(paths, decls, elements) -> CircuitSpec:
    """The spec of valid lines, once the file declares one source, two
    detectors on distinct paths, at most two each, and a $scan phase."""
    missing = [Diagnostic(0, 0, "exactly one source required, found none"
                          if name == "source" else
                          f"detector name={name} required, found none")
               for name in ("source", *DETECTORS) if name not in decls]
    if not any(v == "$scan" for d in elements for v in d.params.values()):
        missing.append(Diagnostic(0, 0, "phase angle=$scan required, found none"))
    if missing:
        raise CircuitParseError(missing)
    for name in DETECTORS:
        line, detector = decls[name]
        if len(detector["paths"]) > 2:
            raise CircuitParseError([Diagnostic(
                line, 1, f"detector name={name} has ports 0 and 1, "
                f"not {len(detector['paths'])} paths")])
    system, ancilla = (decls[name][1]["paths"] for name in DETECTORS)
    shared = [p for p in ancilla if p in system]
    if shared:
        first, later = sorted(DETECTORS, key=lambda n: decls[n][0])
        raise CircuitParseError([Diagnostic(
            decls[later][0], 1,
            f"detector name={later} shares path {shared[0]!r} "
            f"with detector name={first}")])
    source = decls["source"][1]
    return CircuitSpec(paths, source["paths"], source["pol"], elements,
                       system, ancilla)


# -- realization -------------------------------------------------------------------

def _to_element(kind, paths, params) -> OpticalElement:
    if kind == "delay":
        return OpticalElement(kind, paths, float(params["overlap"]),
                              bin=params["bin"])
    return OpticalElement(kind, paths, np.deg2rad(params.get("angle", 0.0)))


def source_state(spec: CircuitSpec) -> FockState:
    amp = 1.0 / np.sqrt(len(spec.pairs))
    terms = {(Mode(a, spec.pol, 0), Mode(b, spec.pol, 0)): amp
             for a, b in spec.pairs}
    return FockState(terms, paths=spec.paths)


def program_from_spec(spec: CircuitSpec, setting, overlap: float,
                      scan=0.0) -> SwitchProgram:
    """SwitchProgram with each ``$slot`` replaced by its value for the
    setting (waveplate angles) and the run (mode overlap, scan phase in
    degrees).  Index arrays in the setting, or an array of phases, give
    one program over all of them, their broadcast axes first."""
    qwp1, hwp, qwp2 = setting.alice_angles
    values = {"prep_qwp": setting.prep_qwp, "prep_hwp": setting.prep_hwp,
              "alice_qwp1": qwp1, "alice_hwp": hwp, "alice_qwp2": qwp2,
              "meas_hwp": setting.meas_hwp, "reprep_hwp": setting.reprep_hwp,
              "overlap": overlap, "scan": scan}
    elements = tuple(_to_element(d.kind, d.paths,
                                 {k: values[v[1:]] if isinstance(v, str) else v
                                  for k, v in d.params.items()})
                     for d in spec.elements)
    return SwitchProgram(source_state(spec), elements, spec.system, spec.ancilla)


def reference_circuit_text() -> str:
    """The switch table shipped with the package."""
    return (resources.files("icoswitch") / "data" / "switch.circuit").read_text()
