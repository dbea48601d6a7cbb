"""Command-line harness: simulate, witness, sweep, tomo, check.

Every run is deterministic given its configuration and seed: files carry
fixed float formatting, JSON keys are sorted, and no timestamps are
written.  Exit codes: 0 success, 2 parse/configuration error, 3 model or
convention disagreement beyond tolerance, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from . import procmat as pm
from . import switch as qubit_model
from . import tomo, witness
from .circuits import (
    CircuitParseError,
    Diagnostic,
    parse_circuit,
    program_from_spec,
    reference_circuit_text,
)
from .plots import fringe_svg, sweep_svg
from .qmath import coherence
from .settings import CATALOG, SHAPE, ExperimentSetting

REFERENCE_IDEAL_VALUE = -0.4248   # reported minimal value, ideal switch
REFERENCE_LAB_POINT = (0.29, -0.305)  # reported witness at D ~ 0.29
VALUE_TOLERANCE = 5e-3
ORACLE_TOLERANCE = 1e-9

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISAGREEMENT = 3
EXIT_SOLVER = 4

MAX_PAIRS = 10**15  # tomo's counts and per-basis totals stay exact in float64

MODELS = ("procmat", "qubit", "fock")


def _fmt(x):
    return f"{x:.12e}"


def load_circuit(path=None):
    if path is None:
        return parse_circuit(reference_circuit_text())
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CircuitParseError(
            [Diagnostic(0, 0, f"cannot read circuit file: {exc}")]) from None
    return parse_circuit(text)


def model_probability_table(model, d_value, circuit=None):
    """p[z-1, x-1, y-1, r-1, b, d] for all 180 settings under one model."""
    if model == "procmat":
        return pm.probability_table(d_value)
    if model == "qubit":
        return qubit_model.setting_probabilities(CATALOG, d_value)
    if model == "fock":
        spec = circuit if circuit is not None else load_circuit()
        table = program_from_spec(spec, CATALOG, coherence(d_value))
        # a circuit without some angle slot lacks that catalog axis
        return np.broadcast_to(table.outcome_probabilities(), SHAPE + (2, 2))
    raise ValueError(f"unknown model {model!r}")


def probabilities_csv(table) -> str:
    lines = ["x,y,r,z,b,d,p"]
    for (z, x, y, r, b, d), p in np.ndenumerate(table):
        lines.append(f"{x + 1},{y + 1},{r + 1},{z + 1},{b},{d},{_fmt(p)}")
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    """A JSON report file: two-space indent, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report_files(outdir: Path, files: dict):
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (outdir / name).write_text(content)
    except OSError as exc:
        _reject(f"cannot write report files to {outdir}: {exc.strerror or exc}")


def run_metadata(config):
    return {
        "version": __version__,
        **{key: config[key] for key in METADATA_KEYS if key in config},
        "tolerances": {
            "oracle": ORACLE_TOLERANCE,
            "witness_reference": VALUE_TOLERANCE,
        },
    }


# -- subcommands -------------------------------------------------------------------

def cmd_simulate(config) -> int:
    model = config["model"]
    d_value = config["distinguishability"]
    circuit = load_circuit(config["circuit"])
    table = model_probability_table(model, d_value, circuit)
    sums = table.sum(axis=(-2, -1))
    worst = np.abs(sums - 1.0).max()
    files = {
        "probabilities.csv": probabilities_csv(table),
        "metadata.json": _json_text(run_metadata(config)),
    }
    write_report_files(Path(config["out"]), files)
    print(f"simulate: model={model} D={d_value} settings={sums.size} "
          f"max|sum(p)-1|={worst:.3e}")
    if not worst <= 1e-9:  # a NaN fails too
        print("normalization violated beyond 1e-9", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _convention_report(sol):
    lines = [
        "witness value disagrees with the published ideal-switch optimum",
        f"  computed value : {sol.value:.6f}",
        f"  reference value: {REFERENCE_IDEAL_VALUE:+.4f} (tolerance {VALUE_TOLERANCE})",
        f"  convention     : {sol.convention}",
        "  assumptions    : span restricted to the 180-setting outcome operators;",
        "                   witness cone certified against both causal orders;",
        "                   normalization as stated by the convention above;",
        "                   process trace fixed to 8 by the sum-to-one rule.",
        f"  solver status  : {sol.status}, gap {sol.gap:.2e}, "
        f"iterations {sol.iterations}",
    ]
    return "\n".join(lines)


def solve_reference_witness(config):
    """Optimize the witness for the (possibly dephased) switch process.

    ``witness`` and ``sweep`` both solve here; a model other than procmat
    exits 2 before the solve.
    """
    if config["model"] != "procmat":
        _reject("witness optimization runs on the process-matrix model; "
                "use check/simulate for the other models")
    w = pm.dephase_order_coherence(pm.w_switch(), config["distinguishability"])
    with warnings.catch_warnings():
        # witness.json reports span_rank; the full span is rank-deficient
        warnings.simplefilter("ignore", witness.SpanRankWarning)
        return witness.optimize_witness(
            w, witness.build_span(),
            convention=config["convention"],
        )


def cmd_witness(config) -> int:
    d_value = config["distinguishability"]
    sol = solve_reference_witness(config)
    if sol.status not in ("optimal",):
        print(f"solver did not reach optimality: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    table = pm.probability_table(d_value)
    recomputed = witness.evaluate_witness(
        sol.alpha, witness.probs_to_witness_table(table)
    )
    payload = json.loads(witness.solution_to_json(sol))
    payload["metadata"] = run_metadata(config)
    payload["value_from_probabilities"] = recomputed
    files = {
        "witness.json": _json_text(payload),
        "probabilities.csv": probabilities_csv(table),
    }
    write_report_files(Path(config["out"]), files)
    print(f"witness: C_W = {sol.value:+.6f} (convention {sol.convention}, "
          f"gap {sol.gap:.2e}, {sol.iterations} iterations)")
    if abs(recomputed - sol.value) > 1e-6:
        print(f"alpha table disagrees with the operator value: "
              f"{recomputed:+.6f} vs {sol.value:+.6f}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    if d_value == 0.0 and abs(sol.value - REFERENCE_IDEAL_VALUE) > VALUE_TOLERANCE:
        print(_convention_report(sol), file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_sweep(config) -> int:
    grid = config["grid"]
    sol = solve_reference_witness({**config, "distinguishability": 0.0})
    if sol.status != "optimal":
        print(f"solver did not reach optimality: {sol.status}", file=sys.stderr)
        return EXIT_SOLVER
    rows = []
    for d_value in grid:
        table = pm.probability_table(float(d_value))
        val = witness.evaluate_witness(
            sol.alpha, witness.probs_to_witness_table(table)
        )
        rows.append((float(d_value), val, coherence(d_value)))
    lines = ["distinguishability,witness_value,visibility"]
    for d_value, val, vis in rows:
        lines.append(f"{_fmt(d_value)},{_fmt(val)},{_fmt(vis)}")
    values = [v for _, v, _ in rows]
    files = {
        "sweep.csv": "\n".join(lines) + "\n",
        "witness_vs_D.svg": sweep_svg([r[0] for r in rows], values,
                                      reference=REFERENCE_LAB_POINT),
        "metadata.json": _json_text(run_metadata(config)),
    }
    write_report_files(Path(config["out"]), files)
    crossing = next((i for i in range(1, len(values))
                     if values[i - 1] < 0.0 <= values[i]), None)
    print(f"sweep: {len(rows)} points, C_W(0) = {values[0]:+.6f}, "
          f"C_W(1) = {values[-1]:+.6f}, sign change "
          f"{'at D in (%.2f, %.2f]' % (rows[crossing - 1][0], rows[crossing][0]) if crossing else 'absent'}")
    ref_d = REFERENCE_LAB_POINT[0]
    model_val = float(np.interp(ref_d, [r[0] for r in rows], values))
    print(f"sweep: model value at D = {ref_d}: {model_val:+.4f} "
          f"(reported experimental value {REFERENCE_LAB_POINT[1]:+.3f} "
          f"includes lab imperfections)")
    if any(values[i + 1] < values[i] - 1e-9 for i in range(len(values) - 1)):
        print("witness values are not monotone over the sweep", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


TOMO_TARGETS = {
    1: np.outer([1, 0, 0, 0], np.conj([1, 0, 0, 0])),
    2: np.outer([1, 0, 0, 1], np.conj([1, 0, 0, 1])) / 2.0,
    3: np.outer([1, 0, 0, -1j], np.conj([1, 0, 0, -1j])) / 2.0,
}


def cmd_tomo(config) -> int:
    z = config["input_state"]
    target = TOMO_TARGETS[z]
    pairs = config["pairs"]
    seed = config["seed"]
    counts = tomo.simulate_counts(target, pairs_total=pairs, seed=seed)
    try:
        results = {
            method: tomo.reconstruct(counts, method=method, target=target)
            for method in ("linear", "mle")
        }
    except ValueError as exc:   # no counts drawn
        _reject(f"tomo: {exc} at pairs={pairs} seed={seed}")
    d_value = config["distinguishability"]
    circuit = load_circuit(config["circuit"])
    grid = np.linspace(0.0, 2.0 * np.pi, 61)
    scan = program_from_spec(circuit, ExperimentSetting(z, 1, 1, 1),
                             coherence(d_value), scan=np.rad2deg(grid))
    vis, flat, rates = tomo.fringe_scan(scan.coincidence_probability(), grid)
    payload = {
        "input_state": z,
        "pairs_total": pairs,
        "visibility": vis,
        "degenerate_fringe": flat,
        "metadata": run_metadata(config),
    }
    for method, res in results.items():
        payload[method] = {
            "fidelity": res.fidelity,
            "purity": res.purity,
            "psd": res.psd,
            "iterations": res.iterations,
            "converged": res.converged,
        }
    files = {
        "counts.csv": tomo.counts_csv(counts),
        "tomo.json": _json_text(payload),
        "fringe.svg": fringe_svg(grid, rates, vis),
    }
    write_report_files(Path(config["out"]), files)
    print(f"tomo: z={z} pairs={pairs} seed={seed} "
          f"F_mle={results['mle'].fidelity:.4f} "
          f"P_mle={results['mle'].purity:.4f} V={vis:.4f}")
    return EXIT_OK


def cmd_check(config) -> int:
    """Oracle equivalence of the three models over all 180 settings."""
    d_value = config["distinguishability"]
    circuit = load_circuit(config["circuit"])
    tables = np.stack([model_probability_table(m, d_value, circuit)
                       for m in MODELS])
    worst = (tables.max(axis=0) - tables.min(axis=0)).max()
    print(f"check: max cross-model deviation over "
          f"{tables[0].size} probabilities = {worst:.3e}")
    if not worst <= ORACLE_TOLERANCE:  # a NaN fails too
        print(f"models disagree beyond {ORACLE_TOLERANCE}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


# -- argument handling ----------------------------------------------------------------

# the keys a config file may set: key -> (default, the options of its flag);
# the sweep grid has no flag, and when null follows from steps
CONFIG_KEYS = {
    "model": ("procmat", {"choices": MODELS}),
    "distinguishability": (0.0, {"type": float}),
    "seed": (0, {"type": int}),
    "out": ("out", {}),
    "circuit": (None, {"help": "circuit file (defaults to the packaged table)"}),
    "convention": (witness.DEFAULT_CONVENTION,
                   {"choices": witness.CONVENTIONS}),
    "steps": (21, {"type": int}),
    "input_state": (2, {"type": int}),
    "pairs": (30000, {"type": int}),
    "grid": (None, None),
}

# command -> (function, the config keys it reads); a command takes the flags
# of its keys, and its metadata records those of METADATA_KEYS
COMMANDS = {
    "simulate": (cmd_simulate, ("model", "distinguishability", "out",
                                "circuit")),
    "witness": (cmd_witness, ("model", "distinguishability", "out",
                              "convention")),
    "sweep": (cmd_sweep, ("model", "out", "convention", "steps", "grid")),
    "tomo": (cmd_tomo, ("distinguishability", "seed", "out", "circuit",
                        "input_state", "pairs")),
    "check": (cmd_check, ("distinguishability", "circuit")),
}
METADATA_KEYS = ("model", "distinguishability", "seed", "convention")


class _Parser(argparse.ArgumentParser):
    def error(self, message) -> NoReturn:   # one line, as for a bad config
        _reject(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="icoswitch",
        description="Simulate the time-delocalized measurement switch and "
                    "optimize causal witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config; explicit flags take precedence")
        for key in keys:
            options = CONFIG_KEYS[key][1]
            if options is not None:
                p.add_argument("--" + key.replace("_", "-"), **options)
    return parser


def _reject(message) -> NoReturn:
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_unit_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0.0 <= value <= 1.0)


def config_from_args(args) -> dict:
    """Defaults, then the config file, then explicit flags; the keys of
    ``args.command`` in ``COMMANDS``.

    The merged configuration is validated here, once, every key of it: an
    invalid value prints one line to stderr and exits with EXIT_PARSE.
    """
    config = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            _reject(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            _reject(f"config file must hold a JSON object, "
                    f"got {type(loaded).__name__}")
        unknown = sorted(set(loaded) - set(CONFIG_KEYS))
        if unknown:
            _reject(f"unknown config key {unknown[0]!r}; known keys are "
                    f"{', '.join(CONFIG_KEYS)}")
        config.update(loaded)
    provided = vars(args)
    for key in CONFIG_KEYS:
        if provided.get(key) is not None:
            config[key] = provided[key]

    if config["model"] not in MODELS:
        _reject(f"model must be one of {', '.join(MODELS)}, "
                f"got {config['model']!r}")
    if config["convention"] not in witness.CONVENTIONS:
        _reject(f"convention must be one of {', '.join(witness.CONVENTIONS)}, "
                f"got {config['convention']!r}")
    d = config["distinguishability"]
    if not _is_unit_number(d):
        _reject(f"distinguishability must be a number in [0, 1], got {d!r}")
    grid = config["grid"]
    if grid is not None and not (isinstance(grid, list) and grid
                                 and all(map(_is_unit_number, grid))):
        _reject(f"grid must be a non-empty list of numbers in [0, 1], "
                f"got {grid!r}")
    if grid is not None and any(a >= b for a, b in zip(grid, grid[1:])):
        _reject(f"grid must be strictly increasing, got {grid!r}")
    # circuit null: the packaged table; no path holds a NUL character
    for key in ("out", "circuit"):
        path = config[key]
        if not (isinstance(path, str) and path and "\0" not in path
                or key == "circuit" and path is None):
            _reject(f"{key} must be a non-empty path, got {path!r}")
    for key in ("seed", "steps", "pairs", "input_state"):
        if not _is_int(config[key]):
            _reject(f"{key} must be an integer, got {config[key]!r}")
    if config["seed"] < 0:
        _reject(f"seed must be non-negative, got {config['seed']}")
    if config["steps"] < 2:
        _reject(f"steps must be at least 2, got {config['steps']}")
    if not 1 <= config["pairs"] <= MAX_PAIRS:
        _reject(f"pairs must be in 1..{MAX_PAIRS}, got {config['pairs']}")
    if config["input_state"] not in TOMO_TARGETS:
        _reject(f"input state index must be 1..3, got {config['input_state']}")

    config["distinguishability"] = float(d)
    keys = COMMANDS[args.command][1]
    if "grid" in keys and grid is None:
        n = config["steps"]
        config["grid"] = [i / (n - 1) for i in range(n)]
    return {key: config[key] for key in keys}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](config_from_args(args))
    except SystemExit as exc:  # _reject or --help: the output is printed
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except CircuitParseError as exc:
        for diag in exc.diagnostics:
            print(f"circuit: {diag}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
