import numpy as np
import pytest

from icoswitch.circuits import (
    CircuitParseError,
    parse_circuit,
    program_from_spec,
    reference_circuit_text,
)
from icoswitch.settings import ExperimentSetting


MINIMAL = """
path a b
source pair paths=a:b
pbs paths=a,b
hwp path=a angle=22.5
detector name=system paths=a
detector name=ancilla paths=b
"""


def test_parse_minimal_grammar():
    spec = parse_circuit(MINIMAL)
    assert spec.paths == ("a", "b")
    assert spec.elements[0].kind == "pbs"
    assert spec.elements[0].paths == ("a", "b")
    assert spec.elements[1].kind == "hwp"
    assert spec.elements[1].params["angle"] == 22.5
    assert spec.source.pairs == (("a", "b"),)


def test_parse_reference_file():
    spec = parse_circuit(reference_circuit_text())
    assert set(spec.stages) == {"prep", "alice", "bob", "eraser", "switch-out"}
    assert len(spec.elements) == 23
    assert {d.name for d in spec.detectors} == {"system", "ancilla"}


def test_unknown_kind_positioned_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a\nsource pair paths=a:a\nwobble path=a\n")
    diags = err.value.diagnostics
    assert any(d.line == 3 and "wobble" in d.message for d in diags)


def test_undeclared_path_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a\nsource pair paths=a:a\nhwp path=q angle=0\n")
    assert any("'q'" in d.message for d in err.value.diagnostics)


def test_duplicate_stage_diagnostic():
    text = "path a\nsource pair paths=a:a\nstage prep\nstage prep\n"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert any("duplicate stage" in d.message for d in err.value.diagnostics)


def test_missing_source_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a b\npbs paths=a,b\n")
    assert any("source" in d.message for d in err.value.diagnostics)


def test_non_numeric_angle_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a\nsource pair paths=a:a\nhwp path=a angle=fast\n")
    assert any("not numeric" in d.message for d in err.value.diagnostics)


def test_comments_and_blank_lines_ignored():
    spec = parse_circuit(MINIMAL.replace("pbs", "# note\npbs"))
    assert spec.elements[0].kind == "pbs"


@pytest.mark.parametrize("seed", range(4))
def test_renamed_detector_paths_give_reference_program(seed):
    # the detector paths come from the file, whatever they are called
    rng = np.random.default_rng(seed)
    text = reference_circuit_text()
    spec = parse_circuit(text)
    renamed = parse_circuit(text.replace("c0", "s0").replace("c1", "s1"))
    assert renamed.detector("system").paths == ("s0", "s1")
    s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                          int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    overlap = float(rng.uniform())
    phase = float(rng.uniform(0, 2 * np.pi))
    ref = program_from_spec(spec, s, overlap).outcome_probabilities(phase)
    got = program_from_spec(renamed, s, overlap).outcome_probabilities(phase)
    assert max(abs(got[k] - ref[k]) for k in ref) < 1e-12


def test_alice_stage_validation():
    text = reference_circuit_text().replace(
        "qwp path=c0 angle=0 stage=alice", "hwp path=c0 angle=0 stage=alice", 1
    )
    spec = parse_circuit(text)
    with pytest.raises(CircuitParseError, match="alice"):
        program_from_spec(spec, ExperimentSetting(1, 1, 1, 1), 1.0)
