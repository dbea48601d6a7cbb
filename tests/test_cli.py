import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icoswitch import cli, tomo, witness
from icoswitch.circuits import reference_circuit_text
from icoswitch.plots import fringe_svg, sweep_svg

DATA = Path(__file__).parent / "data"


def test_simulate_writes_normalized_table(tmp_path):
    rc = cli.main(["simulate", "--model", "qubit",
                   "--distinguishability", "0.29",
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    text = (tmp_path / "run" / "probabilities.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,r,z,b,d,p"
    assert len(lines) == 1 + 720
    sums = {}
    for ln in lines[1:]:
        x, y, r, z, b, d, p = ln.split(",")
        sums[(x, y, r, z)] = sums.get((x, y, r, z), 0.0) + float(p)
    assert len(sums) == 180
    assert max(abs(v - 1.0) for v in sums.values()) < 1e-9


def test_simulate_deterministic_byte_identical(tmp_path):
    for name in ("a", "b"):
        rc = cli.main(["simulate", "--model", "procmat",
                       "--distinguishability", "0.5",
                       "--out", str(tmp_path / name)])
        assert rc == 0
    for fname in ("probabilities.csv", "metadata.json"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes())


def test_tomo_outputs_and_determinism(tmp_path):
    args = ["tomo", "--input-state", "3", "--pairs", "12000",
            "--seed", "11", "--out"]
    rc = cli.main(args + [str(tmp_path / "t1")])
    assert rc == 0
    rc = cli.main(args + [str(tmp_path / "t2")])
    assert rc == 0
    for fname in ("counts.csv", "tomo.json", "fringe.svg"):
        assert ((tmp_path / "t1" / fname).read_bytes()
                == (tmp_path / "t2" / fname).read_bytes())
    payload = json.loads((tmp_path / "t1" / "tomo.json").read_text())
    assert payload["mle"]["fidelity"] > 0.97
    assert payload["mle"]["psd"] is True
    assert abs(payload["visibility"] - 1.0) < 1e-6


def test_tomo_reports_mle_convergence(tmp_path, monkeypatch):
    args = ["tomo", "--input-state", "3", "--pairs", "30000", "--seed", "7",
            "--out"]
    assert cli.main(args + [str(tmp_path / "full")]) == 0
    monkeypatch.setattr(tomo, "MLE_MAXITER", 1)
    assert cli.main(args + [str(tmp_path / "capped")]) == 0
    for run, converged, iterations in (("full", True, None),
                                       ("capped", False, 1)):
        mle = json.loads((tmp_path / run / "tomo.json").read_text())["mle"]
        assert mle["converged"] is converged
        assert iterations in (None, mle["iterations"])


def test_tomo_rejects_bad_state_index(tmp_path):
    rc = cli.main(["tomo", "--input-state", "9",
                   "--out", str(tmp_path / "t")])
    assert rc == cli.EXIT_PARSE


def test_check_passes_on_models():
    rc = cli.main(["check", "--distinguishability", "0.37"])
    assert rc == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": "qubit",
                               "distinguishability": 0.1,
                               "out": str(tmp_path / "cfgout")}))
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "flagout")])
    assert rc == 0
    meta = json.loads((tmp_path / "flagout" / "metadata.json").read_text())
    assert meta["model"] == "qubit"            # from config
    assert meta["distinguishability"] == 0.1   # from config


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.circuit"
    bad.write_text("path a\nsource pair paths=a:a\nwobble path=a\n")
    rc = cli.main(["simulate", "--model", "fock", "--circuit", str(bad),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_PARSE


def test_invalid_distinguishability_exit_code(tmp_path):
    rc = cli.main(["simulate", "--distinguishability", "1.4",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_PARSE


REFERENCE_CIRCUIT = reference_circuit_text()
SYSTEM_LINE = 1 + REFERENCE_CIRCUIT.splitlines().index(
    "detector name=system paths=c0,c1")
PHASE_LINE = 1 + REFERENCE_CIRCUIT.splitlines().index("phase path=c1 angle=180")


@pytest.mark.parametrize("command, config, circuit, message", [
    pytest.param("simulate", [0.29], None, "JSON object", id="not-an-object"),
    pytest.param("simulate", {"model": "optics"}, None, "model", id="model"),
    pytest.param("witness", {"convention": "strict"}, None, "convention",
                 id="convention"),
    pytest.param("simulate", {"distinguishability": "high"}, None,
                 "distinguishability", id="d-not-a-number"),
    pytest.param("simulate", {"distinguishability": 1.5}, None,
                 "distinguishability", id="d-out-of-range"),
    pytest.param("tomo", {"seed": 1.5}, None, "seed", id="seed-not-integer"),
    pytest.param("tomo", {"seed": -1}, None, "seed", id="seed-negative"),
    pytest.param("sweep", {"steps": "21"}, None, "steps",
                 id="steps-not-integer"),
    pytest.param("tomo", {"pairs": 0}, None, "pairs", id="pairs-zero"),
    pytest.param("tomo", {"input_state": 4}, None, "input state",
                 id="input-state"),
    pytest.param("sweep", {"model": "fock"}, None,
                 "witness optimization runs on the process-matrix model",
                 id="sweep-model-fock"),
    pytest.param("tomo", {"pairs": 1, "seed": 2}, None,
                 "tomo: no counts to reconstruct from at pairs=1 seed=2",
                 id="tomo-no-counts"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("detector name=system", "# none"),
                 "circuit: line 0, col 0: detector name=system required",
                 id="no-system-detector"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("detector name=ancilla", "# none"),
                 "circuit: line 0, col 0: detector name=ancilla required",
                 id="no-ancilla-detector"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("bs50 paths=c0,c1", "# none"),
                 f"circuit: line {SYSTEM_LINE}, col 1: detector name=system "
                 f"needs a bs50 on exactly its paths c0,c1",
                 id="no-closing-beamsplitter"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("name=system paths=c0,c1",
                                           "name=system paths=c0,c1,p0"),
                 f"circuit: line {SYSTEM_LINE}, col 1: detector name=system "
                 f"needs a bs50 on exactly its paths c0,c1,p0",
                 id="three-path-system-detector"),
    pytest.param("simulate", {"distinguishabilty": 0.5}, None,
                 "unknown config key 'distinguishabilty'", id="unknown-key"),
    pytest.param("sweep", {"grid": 0.5}, None, "grid", id="grid-not-a-list"),
    pytest.param("sweep", {"grid": []}, None, "grid", id="grid-empty"),
    pytest.param("sweep", {"grid": [0.0, "0.5"]}, None, "grid",
                 id="grid-not-numbers"),
    pytest.param("sweep", {"grid": [0.0, 1.5]}, None, "grid",
                 id="grid-out-of-range"),
    pytest.param("sweep", {"grid": [1.0, 0.5, 0.0]}, None,
                 "grid must be strictly increasing", id="grid-decreasing"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("angle=180", "angel=180"),
                 f"circuit: line {PHASE_LINE}, col 15: phase has no "
                 f"parameter 'angel'", id="unknown-parameter"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("angle=180", "angle=$phase"),
                 f"circuit: line {PHASE_LINE}, col 15: unknown slot '$phase'",
                 id="unknown-slot"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("angle=180", "angle=$meas_hwp"),
                 f"circuit: line {PHASE_LINE}, col 15: slot $meas_hwp binds "
                 f"a hwp angle, not a phase angle", id="slot-on-wrong-kind"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("angle=180", "angle=inf"),
                 f"circuit: line {PHASE_LINE}, col 15: parameter "
                 f"angle='inf' not finite", id="angle-inf"),
    pytest.param("simulate", None,
                 REFERENCE_CIRCUIT.replace("angle=180", "angle=nan"),
                 f"circuit: line {PHASE_LINE}, col 15: parameter "
                 f"angle='nan' not finite", id="angle-nan"),
])
def test_invalid_input_exits_with_one_line(tmp_path, capsys, command,
                                           config, circuit, message):
    argv = [command, "--out", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    if circuit is not None:
        (tmp_path / "switch.circuit").write_text(circuit)
        argv += ["--model", "fock", "--circuit", str(tmp_path / "switch.circuit")]
    rc = cli.main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert len(err) == 1 and message in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"out": 5}, "out must be a non-empty path, got 5"),
    ("simulate", {"out": None}, "out must be a non-empty path, got None"),
    ("simulate", {"out": ""}, "out must be a non-empty path, got ''"),
    ("simulate", {"circuit": 5}, "circuit must be a non-empty path, got 5"),
    ("simulate", {"circuit": ""}, "circuit must be a non-empty path, got ''"),
    ("simulate", {"out": "o\0"}, "out must be a non-empty path, got 'o\\x00'"),
    ("check", {"circuit": "c\0"},
     "circuit must be a non-empty path, got 'c\\x00'"),
    ("sweep", {"steps": 1}, "steps must be at least 2, got 1"),
    ("sweep", {"steps": 0}, "steps must be at least 2, got 0"),
], ids=["out-int", "out-null", "out-empty", "circuit-int", "circuit-empty",
        "out-nul", "circuit-nul", "steps-1", "steps-0"])
def test_config_path_and_steps_are_checked(tmp_path, capsys, monkeypatch,
                                           command, config, message):
    # no --out flag: the config's value (or the default "out") is the one
    # checked, and nothing is written into the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    rc = cli.main([command, "--config", "config.json"])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert err == [message]
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# command -> (its flags besides --config, its metadata keys besides version
# and tolerances)
COMMAND_SURFACE = {
    "simulate": ({"--model", "--distinguishability", "--out", "--circuit"},
                 {"model", "distinguishability"}),
    "witness": ({"--model", "--distinguishability", "--out", "--convention"},
                {"model", "distinguishability", "convention"}),
    "sweep": ({"--model", "--out", "--convention", "--steps"},
              {"model", "convention"}),
    "tomo": ({"--distinguishability", "--seed", "--out", "--circuit",
              "--input-state", "--pairs"}, {"distinguishability", "seed"}),
    "check": ({"--distinguishability", "--circuit"}, {"distinguishability"}),
}


@pytest.mark.parametrize("command", COMMAND_SURFACE)
def test_each_command_takes_and_records_only_its_keys(capsys, command):
    flags, recorded = COMMAND_SURFACE[command]
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *flags}
    config = cli.config_from_args(cli.build_parser().parse_args([command]))
    assert set(cli.run_metadata(config)) == {"version", "tolerances",
                                             *recorded}


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "7"),
    ("witness", "--seed", "7"),
    ("witness", "--circuit", "switch.circuit"),
    ("sweep", "--seed", "7"),
    ("sweep", "--circuit", "switch.circuit"),
    ("sweep", "--distinguishability", "0.7"),
    ("tomo", "--model", "fock"),
    ("check", "--model", "fock"),
    ("check", "--seed", "9"),
    ("check", "--out", "o"),
])
def test_flag_the_command_does_not_read_exits_with_one_line(
        tmp_path, capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    out = [] if command == "check" else ["--out", "o"]
    rc = cli.main([command, flag, value, *out])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert err == [f"icoswitch: unrecognized arguments: {flag} {value}"]
    assert list(tmp_path.iterdir()) == []


# every JSON type, and values each key accepts
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([*cli.MODELS, *witness.CONVENTIONS]),
    st.floats(0.0, 1.0), st.integers(0, 4),
)
CONFIGS = st.dictionaries(
    st.sampled_from(list(cli.CONFIG_KEYS)) | st.text(max_size=6), JSON_VALUES,
    max_size=3)
# command line -> the files a run writes into --out o
CONFIG_RUNS = {
    ("simulate", "--model", "qubit", "--out", "o"):
        {"probabilities.csv", "metadata.json"},
    ("check",): set(),
    ("tomo", "--pairs", "300", "--out", "o"):
        {"counts.csv", "tomo.json", "fringe.svg"},
}


@settings(max_examples=30)
@given(argv=st.sampled_from(list(CONFIG_RUNS)), config=CONFIGS)
def test_any_config_object_runs_or_exits_with_one_line(argv, config):
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main([*argv, "--config", "config.json"])
            written = {p.name for p in Path("o").glob("*")}
            entries = {p.name for p in Path(".").iterdir()}
        finally:
            os.chdir(cwd)
    if rc == cli.EXIT_PARSE:
        assert len(err.getvalue().splitlines()) == 1
        assert entries == {"config.json"}
    else:
        assert rc == cli.EXIT_OK
        assert written == CONFIG_RUNS[argv]


def test_null_grid_follows_steps(tmp_path):
    (tmp_path / "config.json").write_text('{"grid": null, "steps": 3}')
    args = cli.build_parser().parse_args(
        ["sweep", "--config", str(tmp_path / "config.json")])
    assert cli.config_from_args(args)["grid"] == [0.0, 0.5, 1.0]


def test_out_naming_a_file_exits_with_one_line(tmp_path, capsys):
    out = tmp_path / "report"
    out.write_text("kept\n")
    rc = cli.main(["simulate", "--model", "qubit", "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert err == [f"cannot write report files to {out}: File exists"]
    assert captured.out == ""
    assert out.read_text() == "kept\n"


def test_element_with_wrong_path_count_exits_with_one_line(tmp_path, capsys):
    old = "bs50 paths=c0,c1"
    line = 1 + REFERENCE_CIRCUIT.splitlines().index(old)
    (tmp_path / "switch.circuit").write_text(
        REFERENCE_CIRCUIT.replace(old, "bs50 paths=c0"))
    rc = cli.main(["check", "--circuit", str(tmp_path / "switch.circuit")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert err == [f"circuit: line {line}, col 1: bs50 needs two distinct "
                   f"paths, got ('c0',)"]


# id -> (text replaced, replacement, text on the diagnostic's line, col,
# message); each edit of the reference file breaks one rule
CIRCUIT_EDITS = {
    "pol-X": ("pol=H", "pol=X", "source", 31, "pol must be H or V, got 'X'"),
    "bin-0": ("bin=2", "bin=0", "bin=0", 1,
              "delay bin must be an integer >= 1, got 0.0"),
    "bin-1.5": ("bin=2", "bin=1.5", "bin=1.5", 1,
                "delay bin must be an integer >= 1, got 1.5"),
    "bs50-one-path-twice": ("bs50 paths=p0,p1", "bs50 paths=p0,p0", "p0,p0", 1,
                            "bs50 needs two distinct paths, got ('p0', 'p0')"),
    "angle-twice": ("angle=180", "angle=180 angle=0", "angle=180", 25,
                    "phase takes angle once"),
    "source-keyword": ("source pair", "source pairs", "source", 1,
                       "source takes the keyword pair, got 'pairs'"),
    "detector-unknown-key": ("name=ancilla paths=p0,p1",
                             "name=ancilla paths=p0,p1 foo=1", "foo=1", 35,
                             "detector has no parameter 'foo' "
                             "(takes: name, paths)"),
    "second-system-detector": ("name=ancilla paths=p0,p1",
                               "name=ancilla paths=p0,p1\n"
                               "detector name=system paths=c0,c1",
                               "name=system", 1,
                               "more than one detector name=system"),
    "no-closing-beamsplitter": ("bs50 paths=c0,c1", "# none", "name=system", 1,
                                "detector name=system needs a bs50 on exactly "
                                "its paths c0,c1, found none"),
    "ancilla-on-system-paths": ("name=ancilla paths=p0,p1",
                                "name=ancilla paths=c0,c1", "name=ancilla", 1,
                                "detector name=ancilla shares path 'c0' with "
                                "detector name=system"),
    "ancilla-path-twice": ("name=ancilla paths=p0,p1", "name=ancilla paths=p0,p0",
                           "name=ancilla", 23, "detector names path 'p0' twice"),
    "three-ancilla-ports": ("detector name=ancilla paths=p0,p1",
                            "path p2\ndetector name=ancilla paths=p0,p1,p2",
                            "name=ancilla", 1, "detector name=ancilla has "
                            "ports 0 and 1, not 3 paths"),
    "undeclared-path": ("bs50 paths=p0,p1", "bs50 paths=p0,zz", "p0,zz", 6,
                        "undeclared path 'zz'"),
}


@pytest.mark.parametrize("command", [("simulate", "--model", m) for m in cli.MODELS]
                         + [("check",)], ids=[*cli.MODELS, "check"])
@pytest.mark.parametrize("edit", CIRCUIT_EDITS)
def test_circuit_edit_exits_with_one_line(tmp_path, capsys, edit, command):
    old, new, marker, col, message = CIRCUIT_EDITS[edit]
    assert REFERENCE_CIRCUIT.count(old) == 1
    text = REFERENCE_CIRCUIT.replace(old, new)
    line = 1 + max(i for i, ln in enumerate(text.splitlines()) if marker in ln)
    (tmp_path / "switch.circuit").write_text(text)
    out = [] if command == ("check",) else ["--out", str(tmp_path / "o")]
    rc = cli.main([*command, "--circuit", str(tmp_path / "switch.circuit"),
                   *out])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert err == [f"circuit: line {line}, col {col}: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content, reason", [
    (None, "Is a directory"),
    (b"path c0\xff\n", "can't decode byte 0xff"),
], ids=["directory", "not-utf8"])
def test_unreadable_circuit_exits_with_one_line(tmp_path, capsys, content,
                                                reason):
    circuit = tmp_path / "switch.circuit"
    if content is None:
        circuit.mkdir()
    else:
        circuit.write_bytes(content)
    rc = cli.main(["check", "--circuit", str(circuit)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_PARSE
    assert len(err) == 1 and reason in err[0]
    assert err[0].startswith("circuit: line 0, col 0: cannot read circuit file")


def test_witness_exits_4_when_the_solve_is_not_optimal(tmp_path, capsys,
                                                      monkeypatch, recwarn):
    solve = witness.solve_conic

    def one_iteration(*args, **kwargs):
        return solve(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(witness, "solve_conic", one_iteration)
    rc = cli.main(["witness", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == cli.EXIT_SOLVER
    assert err == ["solver did not reach optimality: max_iterations"]
    assert not (tmp_path / "o").exists()
    # witness.json reports the span rank; the warning stays inside the CLI
    assert not [w for w in recwarn
                if issubclass(w.category, witness.SpanRankWarning)]


def test_fringe_svg_matches_golden():
    grid = np.linspace(0.0, 2 * np.pi, 25)
    rates = 0.125 * (1 + 1.0 * np.cos(grid))
    assert fringe_svg(grid, rates, 1.0) == (DATA / "fringe_golden.svg").read_text()


def test_sweep_svg_matches_golden():
    d = np.linspace(0, 1, 11)
    vals = -0.42 + 0.55 * d**1.5
    out = sweep_svg(d, vals, reference=(0.29, -0.305))
    assert out == (DATA / "sweep_golden.svg").read_text()


def test_fringe_svg_touches_zero_at_full_visibility():
    grid = np.linspace(0.0, 2 * np.pi, 41)
    rates = 0.5 * (1 + np.cos(grid))
    svg = fringe_svg(grid, rates, 1.0)
    # the minimum sits on the x axis (y = HEIGHT - MARGIN = 344)
    assert 'cy="344.000000"' in svg


def test_empty_sweep_is_rejected():
    with pytest.raises(ValueError):
        sweep_svg([], [])
