"""Line-oriented optical-circuit descriptions.

Format: one declaration per line, ``key=value`` parameters, ``#``
comments, angles in degrees.  Elements execute in file order (the
physical sequence through the unfolded table).

    path c0 c1 p0 p1
    source pair paths=c0:p0,c1:p1
    hwp path=c0 angle=22.5 stage=prep
    pbs paths=c0,p0 stage=bob
    delay path=p1 overlap=1 bin=2 stage=eraser
    phase path=c1 angle=180 stage=switch-out
    bs50 paths=c0,c1 stage=switch-out
    detector name=system paths=c0,c1
    detector name=ancilla paths=p0,p1

The ``system`` and ``ancilla`` detectors are required; each lists its
paths in port order (port 0 first).  The last ``bs50`` on exactly the
system paths closes the interferometer; the scan phase acts before it.

Stage tags group elements for per-setting angle binding: ``prep`` carries
[qwp, hwp] per switch arm, ``alice`` [qwp, hwp, qwp] per arm, ``bob`` one
measurement hwp before and one repreparation hwp after each pbs, and
``eraser`` delay elements take the run's mode overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .fock import (
    FockState,
    Mode,
    OpticalElement,
    SwitchProgram,
)

ELEMENT_KINDS = {"bs50", "pbs", "hwp", "qwp", "phase", "delay", "swap"}
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
    params: dict
    stage: str
    line: int


@dataclass(frozen=True)
class CircuitSpec:
    paths: tuple
    source: SourceDecl
    elements: tuple
    detectors: tuple
    stages: dict  # stage name -> tuple of element indices

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


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate; raises CircuitParseError with positions."""
    errors: list = []
    paths: list = []
    source = None
    elements: list = []
    detectors: list = []
    stages: dict = {}
    current_stage = ""
    declared_stages: set = set()

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

        if head == "stage":
            if len(tokens) != 2:
                errors.append(Diagnostic(line_no, col, "stage needs one name"))
                continue
            name = tokens[1]
            if name in declared_stages:
                errors.append(Diagnostic(line_no, col, f"duplicate stage {name!r}"))
            declared_stages.add(name)
            current_stage = name
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

        if head not in ELEMENT_KINDS:
            errors.append(Diagnostic(line_no, col,
                                     f"unknown element kind {head!r}"))
            continue

        kv = {}
        for tok in tokens[1:]:
            key, value = _parse_kv(tok, line_no, line.find(tok) + 1, errors)
            if key is not None:
                kv[key] = value
        if "paths" in kv:
            epaths = tuple(kv.pop("paths").split(","))
        elif "path" in kv:
            epaths = (kv.pop("path"),)
        else:
            errors.append(Diagnostic(line_no, col, f"{head} needs path(s)"))
            continue
        for p in epaths:
            if p not in paths:
                errors.append(Diagnostic(line_no, col, f"undeclared path {p!r}"))
        try:  # the element's own arity rule, at default parameters
            OpticalElement(head, epaths)
        except ValueError as exc:
            errors.append(Diagnostic(line_no, col, str(exc)))
            continue
        params = {}
        stage = kv.pop("stage", current_stage)
        for key, value in kv.items():
            try:
                params[key] = float(value)
            except ValueError:
                errors.append(Diagnostic(line_no, col,
                                         f"parameter {key}={value!r} not numeric"))
        elements.append(ElementDecl(head, epaths, params, stage, line_no))
        stages.setdefault(stage, []).append(len(elements) - 1)

    if source is None:
        errors.append(Diagnostic(0, 0, "exactly one source required, found none"))
    names = {d.name for d in detectors}
    for name in REQUIRED_DETECTORS:
        if name not in names:
            errors.append(Diagnostic(
                0, 0, f"detector name={name} required, found none"))
    if errors:
        raise CircuitParseError(errors)
    stages = {k: tuple(v) for k, v in stages.items() if k}
    return CircuitSpec(tuple(paths), source, tuple(elements),
                       tuple(detectors), stages)


# -- realization -------------------------------------------------------------------

def _to_element(decl: ElementDecl) -> OpticalElement:
    if decl.kind in ("hwp", "qwp", "phase"):
        return OpticalElement(decl.kind, decl.paths,
                              float(np.deg2rad(decl.params.get("angle", 0.0))))
    if decl.kind == "delay":
        return OpticalElement("delay", decl.paths,
                              float(decl.params.get("overlap", 1.0)),
                              bin=int(decl.params.get("bin", 1)))
    return OpticalElement(decl.kind, decl.paths)


def source_state(spec: CircuitSpec) -> FockState:
    amp = _SQ2 if len(spec.source.pairs) == 2 else 1.0
    terms = {
        (Mode(a, spec.source.pol, 0), Mode(b, spec.source.pol, 0)): amp
        for a, b in spec.source.pairs
    }
    return FockState(terms, paths=spec.paths)


def bind_setting(spec: CircuitSpec, setting, overlap: float) -> list:
    """Concrete elements with the setting's angles substituted by stage.

    prep arms get (qwp, hwp) from the input-state row; alice arms the
    waveplate triple; in the bob stage the hwp before each pbs takes the
    measurement angle and the hwp after it the repreparation angle; delay
    elements take the run's eraser overlap.
    """
    system_paths = {a for a, _ in spec.source.pairs}
    angle_of = {}

    def per_path(stage_name):
        groups: dict = {}
        for idx in spec.stages.get(stage_name, ()):
            decl = spec.elements[idx]
            if len(decl.paths) == 1:
                groups.setdefault(decl.paths[0], []).append(idx)
        return groups

    for path, idxs in per_path("prep").items():
        if path not in system_paths:
            continue  # probe initialization plates keep their file angles
        plates = [i for i in idxs if spec.elements[i].kind in ("qwp", "hwp")]
        expect = ("qwp", "hwp")
        kinds = tuple(spec.elements[i].kind for i in plates)
        if kinds != expect:
            raise CircuitParseError([Diagnostic(
                spec.elements[idxs[0]].line, 1,
                f"prep stage on {path!r} must hold plates {expect}, found {kinds}")])
        angle_of[plates[0]] = setting.prep_qwp
        angle_of[plates[1]] = setting.prep_hwp

    for path, idxs in per_path("alice").items():
        kinds = tuple(spec.elements[i].kind for i in idxs)
        if kinds != ("qwp", "hwp", "qwp"):
            raise CircuitParseError([Diagnostic(
                spec.elements[idxs[0]].line, 1,
                f"alice stage on {path!r} must hold (qwp, hwp, qwp), found {kinds}")])
        for i, angle in zip(idxs, setting.alice_angles):
            angle_of[i] = angle

    bob_idxs = spec.stages.get("bob", ())
    pbs_positions = [i for i in bob_idxs if spec.elements[i].kind == "pbs"]
    for pbs_i in pbs_positions:
        sys_path = next(p for p in spec.elements[pbs_i].paths
                        if p in system_paths)
        before = [i for i in bob_idxs
                  if i < pbs_i and spec.elements[i].kind == "hwp"
                  and spec.elements[i].paths == (sys_path,)]
        after = [i for i in bob_idxs
                 if i > pbs_i and spec.elements[i].kind == "hwp"
                 and spec.elements[i].paths == (sys_path,)]
        if not before or not after:
            raise CircuitParseError([Diagnostic(
                spec.elements[pbs_i].line, 1,
                f"bob stage on {sys_path!r} needs an hwp before and after the pbs")])
        angle_of[before[-1]] = setting.meas_hwp
        angle_of[after[0]] = setting.reprep_hwp

    out = []
    for idx, decl in enumerate(spec.elements):
        if idx in angle_of:
            decl = ElementDecl(decl.kind, decl.paths,
                               {**decl.params, "angle": angle_of[idx]},
                               decl.stage, decl.line)
        elif decl.kind == "delay":
            decl = ElementDecl(decl.kind, decl.paths,
                               {**decl.params, "overlap": overlap},
                               decl.stage, decl.line)
        out.append(_to_element(decl))
    return out


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
