import re

import numpy as np
import pytest

from icoswitch.circuits import (
    SLOTS,
    CircuitParseError,
    ElementDecl,
    parse_circuit,
    program_from_spec,
    reference_circuit_text,
)
from icoswitch.settings import ExperimentSetting


MINIMAL = """
path a b c d
source pair paths=a:c,b:d
pbs paths=a,c
hwp path=a angle=22.5
phase path=b angle=$scan
bs50 paths=a,b
detector name=system paths=a,b
detector name=ancilla paths=c,d
"""


def test_parse_minimal_grammar():
    spec = parse_circuit(MINIMAL)
    assert spec.paths == ("a", "b", "c", "d")
    assert spec.elements[0].kind == "pbs"
    assert spec.elements[0].paths == ("a", "c")
    assert spec.elements[1].kind == "hwp"
    assert spec.elements[1].params["angle"] == 22.5
    assert spec.pairs == (("a", "c"), ("b", "d"))
    assert spec.elements[2] == ElementDecl("phase", ("b",), {"angle": "$scan"})
    assert (spec.system, spec.ancilla) == (("a", "b"), ("c", "d"))


def test_parse_reference_file():
    spec = parse_circuit(reference_circuit_text())
    bound = {v[1:] for d in spec.elements for v in d.params.values()
             if isinstance(v, str)}
    assert bound == set(SLOTS)
    assert len(spec.elements) == 24
    assert (spec.system, spec.ancilla) == (("c0", "c1"), ("p0", "p1"))
    assert spec.elements[-3:] == (
        ElementDecl("phase", ("c1",), {"angle": 180.0}),
        ElementDecl("phase", ("c1",), {"angle": "$scan"}),
        ElementDecl("bs50", ("c0", "c1"), {}))


def test_unknown_kind_positioned_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a\nsource pair paths=a:a\nwobble path=a\n")
    diags = err.value.diagnostics
    assert any(d.line == 3 and "wobble" in d.message for d in diags)


def test_undeclared_path_diagnostic():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("path a\nsource pair paths=a:a\nhwp path=q angle=0\n")
    assert any("'q'" in d.message for d in err.value.diagnostics)


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
    assert renamed.system == ("s0", "s1")
    s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                          int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    overlap = float(rng.uniform())
    scan = float(rng.uniform(0, 360))
    ref = program_from_spec(spec, s, overlap, scan).outcome_probabilities()
    got = program_from_spec(renamed, s, overlap, scan).outcome_probabilities()
    assert np.abs(got - ref).max() < 1e-12


def test_slot_binds_only_its_waveplate_kind():
    text = reference_circuit_text().replace(
        "qwp path=c0 angle=$alice_qwp1", "hwp path=c0 angle=$alice_qwp1", 1
    )
    line = 1 + text.splitlines().index("hwp path=c0 angle=$alice_qwp1")
    with pytest.raises(CircuitParseError, match="alice_qwp1") as err:
        parse_circuit(text)
    assert [d.line for d in err.value.diagnostics] == [line]


def test_unknown_parameter_diagnostic():
    # a misspelled key must not leave the plate at its default angle
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(MINIMAL.replace("angle=22.5", "angel=22.5"))
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (5, 12)
    assert "'angel'" in diag.message


def test_slot_binds_only_its_parameter():
    element = "delay path=a overlap=$overlap bin=$overlap"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(MINIMAL.replace("hwp path=a angle=22.5", element))
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (5, 31)
    assert "not a delay bin" in diag.message


def test_stage_tags_fail_once_per_element():
    # a file in the tagged format names each tagged element
    lines = reference_circuit_text().splitlines()
    tagged = [i for i, ln in enumerate(lines)
              if ln and not ln.startswith(("#", "path", "source", "detector"))]
    for i in tagged:
        lines[i] += " stage=prep"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("\n".join(lines))
    diags = err.value.diagnostics
    assert [d.line for d in diags] == [i + 1 for i in tagged]
    assert all("'stage'" in d.message for d in diags)


def test_numeric_overlap_is_used_as_written():
    text = reference_circuit_text()
    spec = parse_circuit(text)
    fixed = parse_circuit(text.replace("overlap=$overlap", "overlap=0.2"))
    s = ExperimentSetting(2, 5, 1, 3)
    assert (program_from_spec(fixed, s, 1.0).elements
            == program_from_spec(spec, s, 0.2).elements)
    assert (program_from_spec(fixed, s, 1.0).elements
            != program_from_spec(spec, s, 1.0).elements)


def test_numeric_overlap_out_of_range_diagnostic():
    text = reference_circuit_text().replace("overlap=$overlap", "overlap=1.5", 1)
    with pytest.raises(CircuitParseError, match="overlap must be in"):
        parse_circuit(text)


def test_one_token_edits_parse_or_fail_with_diagnostics():
    # every edit either gives a program that runs or a CircuitParseError
    text = reference_circuit_text()
    spans, start = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            spans += [(start + m.start(), start + m.end())
                      for m in re.finditer(r"[^\s=,:]+", line)]
        start += len(line)
    vocabulary = sorted({text[a:b] for a, b in spans}) + [
        "", "0", "-1", "1.5", "inf", "X", "V", "#", "=", ",", ":", "pairs",
        "foo=1", "angle=0", "paths=c0,c1"]
    rng = np.random.default_rng(0)
    parsed = 0
    for _ in range(600):
        a, b = spans[rng.integers(len(spans))]
        edited = text[:a] + vocabulary[rng.integers(len(vocabulary))] + text[b:]
        setting = ExperimentSetting(*(int(rng.integers(1, n)) for n in (4, 11, 3, 4)))
        try:
            spec = parse_circuit(edited)
        except CircuitParseError:
            continue
        probs = program_from_spec(spec, setting, 0.8).outcome_probabilities()
        assert abs(probs.sum() - 1.0) < 1e-9
        parsed += 1
    assert parsed > 20
