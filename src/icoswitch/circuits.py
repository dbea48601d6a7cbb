"""Line-oriented optical-circuit descriptions.

Format: one declaration per line, ``key=value`` parameters, ``#``
comments, angles in degrees.  Elements execute in file order (the
physical sequence through the unfolded table).

    path c0 c1 p0 p1
    source pair paths=c0:p0,c1:p1
    hwp path=c0 angle=$prep_hwp
    pbs paths=c0,p0
    delay path=p1 overlap=$overlap bin=2
    phase path=c1 angle=180
    bs50 paths=c0,c1
    detector name=system paths=c0,c1
    detector name=ancilla paths=p0,p1

Each element kind takes the parameters in ``ELEMENT_PARAMS``.  A value
is a finite number, used as written, or a ``$slot`` from ``SLOTS``, bound
per run to a catalog waveplate angle or the run's eraser mode overlap.

The ``system`` and ``ancilla`` detectors are required; each lists its
paths in port order (port 0 first).  The last ``bs50`` on exactly the
system paths closes the interferometer; the scan phase acts before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fock import FockState, Mode, OpticalElement, SwitchProgram

# element kind -> the parameters it takes
ELEMENT_PARAMS = {
    "bs50": (), "pbs": (), "swap": (),
    "hwp": ("angle",), "qwp": ("angle",), "phase": ("angle",),
    "delay": ("overlap", "bin"),
}
# slot -> the (element kind, parameter) it binds
SLOTS = {
    "prep_qwp": ("qwp", "angle"), "prep_hwp": ("hwp", "angle"),
    "alice_qwp1": ("qwp", "angle"), "alice_hwp": ("hwp", "angle"),
    "alice_qwp2": ("qwp", "angle"),
    "meas_hwp": ("hwp", "angle"), "reprep_hwp": ("hwp", "angle"),
    "overlap": ("delay", "overlap"),
}
REQUIRED_DETECTORS = ("system", "ancilla")
_SQ2 = 1.0 / np.sqrt(2.0)


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
class SourceDecl:
    pairs: tuple   # ((system path, ancilla path), ...) entangled branches
    pol: str = "H"


@dataclass(frozen=True)
class DetectorDecl:
    name: str
    paths: tuple
    line: int


@dataclass(frozen=True)
class ElementDecl:
    kind: str
    paths: tuple
    params: dict  # parameter -> number, or "$slot" bound per run
    line: int


@dataclass(frozen=True)
class CircuitSpec:
    paths: tuple
    source: SourceDecl
    elements: tuple
    detectors: tuple

    def detector(self, name):
        for d in self.detectors:
            if d.name == name:
                return d
        raise KeyError(f"no detector named {name!r}")


def _parse_kv(token, line_no, col, errors):
    if "=" not in token:
        errors.append(Diagnostic(line_no, col, f"expected key=value, got {token!r}"))
        return None, None
    key, _, value = token.partition("=")
    return key, value


def _param_value(kind, key, value):
    """A number or a ``$slot`` that binds this parameter; else ValueError."""
    if key not in ELEMENT_PARAMS[kind]:
        takes = ", ".join(ELEMENT_PARAMS[kind]) or "none"
        raise ValueError(f"{kind} has no parameter {key!r} (takes: {takes})")
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
    if binds != (kind, key):
        raise ValueError(f"slot {value} binds a {' '.join(binds)}, "
                         f"not a {kind} {key}")
    return value


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate; raises CircuitParseError with positions."""
    errors: list = []
    paths: list = []
    source = None
    elements: list = []
    detectors: list = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        tokens = line.split()
        head = tokens[0].lower()

        if head == "path":
            for p in tokens[1:]:
                if p in paths:
                    errors.append(Diagnostic(line_no, col, f"path {p!r} redeclared"))
                paths.append(p)
            continue

        if head == "source":
            if source is not None:
                errors.append(Diagnostic(line_no, col, "more than one source"))
            kv = dict(
                _parse_kv(t, line_no, col, errors) for t in tokens[2:]
            )
            pairs = []
            for pair in kv.get("paths", "").split(","):
                if ":" not in pair:
                    errors.append(Diagnostic(
                        line_no, col, f"source pair {pair!r} needs sys:anc"))
                    continue
                a, _, b = pair.partition(":")
                pairs.append((a, b))
            source = SourceDecl(tuple(pairs), kv.get("pol", "H"))
            for a, b in pairs:
                for p in (a, b):
                    if p not in paths:
                        errors.append(Diagnostic(
                            line_no, col, f"undeclared path {p!r}"))
            continue

        if head == "detector":
            kv = dict(_parse_kv(t, line_no, col, errors) for t in tokens[1:])
            dpaths = tuple(kv.get("paths", "").split(","))
            for p in dpaths:
                if p not in paths:
                    errors.append(Diagnostic(line_no, col, f"undeclared path {p!r}"))
            detectors.append(DetectorDecl(kv.get("name", f"d{len(detectors)}"),
                                          dpaths, line_no))
            continue

        if head not in ELEMENT_PARAMS:
            errors.append(Diagnostic(line_no, col,
                                     f"unknown element kind {head!r}"))
            continue

        epaths, params = None, {}
        for tok in tokens[1:]:
            tcol = line.find(tok) + 1
            key, value = _parse_kv(tok, line_no, tcol, errors)
            if key in ("path", "paths"):
                epaths = tuple(value.split(","))
            elif key is not None:
                try:
                    params[key] = _param_value(head, key, value)
                except ValueError as exc:
                    errors.append(Diagnostic(line_no, tcol, str(exc)))
        if epaths is None:
            errors.append(Diagnostic(line_no, col, f"{head} needs path(s)"))
            continue
        for p in epaths:
            if p not in paths:
                errors.append(Diagnostic(line_no, col, f"undeclared path {p!r}"))
        try:  # the element's own rules, at its numeric parameters
            _to_element(head, epaths, {k: v for k, v in params.items()
                                       if not isinstance(v, str)})
        except ValueError as exc:
            errors.append(Diagnostic(line_no, col, str(exc)))
            continue
        elements.append(ElementDecl(head, epaths, params, line_no))

    if source is None:
        errors.append(Diagnostic(0, 0, "exactly one source required, found none"))
    names = {d.name for d in detectors}
    for name in REQUIRED_DETECTORS:
        if name not in names:
            errors.append(Diagnostic(
                0, 0, f"detector name={name} required, found none"))
    if errors:
        raise CircuitParseError(errors)
    return CircuitSpec(tuple(paths), source, tuple(elements), tuple(detectors))


# -- realization -------------------------------------------------------------------

def _to_element(kind, paths, params) -> OpticalElement:
    if kind == "delay":
        return OpticalElement(kind, paths, float(params.get("overlap", 1.0)),
                              bin=int(params.get("bin", 1)))
    return OpticalElement(kind, paths, float(np.deg2rad(params.get("angle", 0.0))))


def source_state(spec: CircuitSpec) -> FockState:
    amp = _SQ2 if len(spec.source.pairs) == 2 else 1.0
    terms = {
        (Mode(a, spec.source.pol, 0), Mode(b, spec.source.pol, 0)): amp
        for a, b in spec.source.pairs
    }
    return FockState(terms, paths=spec.paths)


def bind_setting(spec: CircuitSpec, setting, overlap: float) -> list:
    """Concrete elements, each ``$slot`` replaced by its value for the
    setting (waveplate angles) and the run (mode overlap)."""
    qwp1, hwp, qwp2 = setting.alice_angles
    values = {"prep_qwp": setting.prep_qwp, "prep_hwp": setting.prep_hwp,
              "alice_qwp1": qwp1, "alice_hwp": hwp, "alice_qwp2": qwp2,
              "meas_hwp": setting.meas_hwp, "reprep_hwp": setting.reprep_hwp,
              "overlap": overlap}
    return [_to_element(d.kind, d.paths,
                        {k: values[v[1:]] if isinstance(v, str) else v
                         for k, v in d.params.items()})
            for d in spec.elements]


def program_from_spec(spec: CircuitSpec, setting, overlap: float) -> SwitchProgram:
    """SwitchProgram for one setting; scan phase goes before the final
    beamsplitter on the system detector paths."""
    elements = bind_setting(spec, setting, overlap)
    system = spec.detector("system")
    closing = [i for i, d in enumerate(spec.elements)
               if d.kind == "bs50" and set(d.paths) == set(system.paths)]
    if not closing:
        raise CircuitParseError([Diagnostic(
            system.line, 1,
            f"detector name=system needs a bs50 on exactly its paths "
            f"{','.join(system.paths)}, found none")])
    final_bs = closing[-1]
    return SwitchProgram(
        initial=source_state(spec),
        before_scan=tuple(elements[:final_bs]),
        after_scan=tuple(elements[final_bs:]),
        scan_path=system.paths[-1],
        system_paths=system.paths,
        ancilla_paths=spec.detector("ancilla").paths,
    )


def reference_circuit_text() -> str:
    """The switch table shipped with the package."""
    return (resources.files("icoswitch") / "data" / "switch.circuit").read_text()
