"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines on a
green run.  The shared witness fixture (conftest) performs the full-span
interior-point solve once; criterion 1 additionally times the actual CLI
command end to end.
"""

import json
import time

import numpy as np
import pytest

from icoswitch import cli
from icoswitch import procmat as pm
from icoswitch import tomo
from icoswitch import witness as wt
from icoswitch.fock import (
    FockState,
    Mode,
    OpticalElement,
    evolve,
    one_photon_per_group,
    postselect,
)
from icoswitch.qmath import dephase, partial_trace
from icoswitch.switch import switch_evolve


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.mark.slow
def test_criterion_01_ideal_witness_via_cli(tmp_path):
    t0 = time.time()
    rc = cli.main(["witness", "--model", "procmat",
                   "--distinguishability", "0",
                   "--out", str(tmp_path / "wit")])
    elapsed = time.time() - t0
    payload = json.loads((tmp_path / "wit" / "witness.json").read_text())
    value = payload["value"]
    ok = (rc == 0 and abs(value - (-0.4248)) < 5e-3 and elapsed < 300.0)
    report(1, "ideal causal witness -0.4248 +- 5e-3, < 5 min",
           ok, f"C_W={value:+.6f}, {elapsed:.0f}s, exit={rc}")


def test_criterion_02_witness_soundness(witness_solution):
    s_mat = witness_solution.s_op.entries
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(100):
        mix = pm.mix_orders(
            float(rng.uniform()),
            pm.random_ordered("A->B", rng, kraus_rank=int(rng.integers(1, 3))),
            pm.random_ordered("B->A", rng, kraus_rank=int(rng.integers(1, 3))),
        )
        worst = min(worst, float(np.real(np.trace(s_mat @ mix.entries))))
    table = wt.probs_to_witness_table(pm.probability_table(1.0))
    dephased_val = wt.evaluate_witness(witness_solution.alpha, table)
    ok = worst >= -1e-6 and dephased_val >= -1e-6
    report(2, "witness soundness on separable mixtures and D=1",
           ok, f"min Tr[S W_sep]={worst:+.2e}, C_W(D=1)={dephased_val:+.4f}")


def test_criterion_03_transition_curve(witness_solution):
    grid = np.linspace(0.0, 1.0, 21)
    values = [
        wt.evaluate_witness(
            witness_solution.alpha,
            wt.probs_to_witness_table(pm.probability_table(float(dv))),
        )
        for dv in grid
    ]
    monotone = all(values[i + 1] >= values[i] - 1e-9 for i in range(20))
    crossings = [i for i in range(20) if values[i] < 0.0 <= values[i + 1]]
    in_open_interval = bool(crossings) and 0.0 < grid[crossings[0] + 1] < 1.0
    at_029 = wt.evaluate_witness(
        witness_solution.alpha,
        wt.probs_to_witness_table(pm.probability_table(0.29)),
    )
    ok = (monotone and values[0] < 0.0 and values[-1] >= -1e-6
          and in_open_interval)
    report(3, "C_W(D) monotone, negative at 0, non-negative at 1, one crossing",
           ok, f"C_W(0)={values[0]:+.4f}, C_W(1)={values[-1]:+.4f}, "
               f"model C_W(0.29)={at_029:+.4f} vs reported -0.305")


def test_criterion_04_oracle_equivalence():
    worst = 0.0
    for d_value in (0.0, 0.29):
        tables = np.stack([cli.model_probability_table(m, d_value)
                           for m in ("procmat", "qubit", "fock")])
        worst = max(worst, (tables.max(axis=0) - tables.min(axis=0)).max())
    ok = worst < 1e-9
    report(4, "fock = qubit = procmat over 180 settings x 4 outcomes",
           ok, f"max deviation {worst:.2e}")


def test_criterion_05_postselected_gate():
    rng = np.random.default_rng(5)
    worst_p, worst_f = 0.0, 1.0
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        sq2 = 1 / np.sqrt(2)
        st = FockState({
            (Mode("s", "H", 0), Mode("a", "H", 0)): v[0] * sq2,
            (Mode("s", "H", 0), Mode("a", "V", 0)): v[0] * sq2,
            (Mode("s", "V", 0), Mode("a", "H", 0)): v[1] * sq2,
            (Mode("s", "V", 0), Mode("a", "V", 0)): v[1] * sq2,
        })
        out = evolve(st, OpticalElement("pbs", ("s", "a")))
        kept, prob = postselect(out, one_photon_per_group({"s"}, {"a"}))
        target = {
            (Mode("a", "H", 0), Mode("s", "H", 0)): v[0],
            (Mode("a", "V", 0), Mode("s", "V", 0)): v[1],
        }
        fid = abs(sum(np.conj(target.get(c, 0.0)) * a
                      for c, a in kept.terms.items())) ** 2
        worst_p = max(worst_p, abs(prob - 0.5))
        worst_f = min(worst_f, fid)
    ok = worst_p < 1e-12 and worst_f > 1 - 1e-12
    report(5, "entangling gate: success 1/2, unit output fidelity",
           ok, f"|p-1/2|<={worst_p:.1e}, min F={worst_f:.15f}")


def test_criterion_06_hom_interference():
    st = FockState({(Mode("a", "H", 0), Mode("b", "H", 0)): 1.0})
    out = evolve(st, OpticalElement("bs50", ("a", "b")))
    coinc_same = sum(p for c, p in out.probabilities().items()
                     if len({m.path for m in c}) == 2)
    st2 = FockState({(Mode("a", "H", 0), Mode("b", "H", 1)): 1.0})
    out2 = evolve(st2, OpticalElement("bs50", ("a", "b")))
    coinc_orth = sum(p for c, p in out2.probabilities().items()
                     if len({m.path for m in c}) == 2)
    ok = coinc_same < 1e-12 and abs(coinc_orth - 0.5) < 1e-12
    report(6, "HOM coincidences: 0 indistinguishable, 1/2 orthogonal bins",
           ok, f"{coinc_same:.1e}, {coinc_orth:.15f}")


def test_criterion_07_duality():
    worst_pure = 0.0
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pure = switch_evolve(np.eye(2), np.eye(2), psi).outer()
    for d_value in np.linspace(0.0, 1.0, 21):
        rho = dephase(pure, "c", float(d_value))
        vis = 2.0 * abs(partial_trace(rho, {"c"}).entries[0, 1])
        worst_pure = max(worst_pure, abs(d_value**2 + vis**2 - 1.0))
    # mixed input: convex mixture of two pure-system runs
    rho_mix = 0.5 * switch_evolve(np.eye(2), np.eye(2), [1, 0]).outer() \
        + 0.5 * switch_evolve(np.eye(2), np.diag([1, 1j]) @ np.eye(2),
                              [0, 1]).outer()
    worst_mixed = -np.inf
    for d_value in np.linspace(0.0, 1.0, 11):
        rho = dephase(rho_mix, "c", float(d_value))
        vis = 2.0 * abs(partial_trace(rho, {"c"}).entries[0, 1])
        worst_mixed = max(worst_mixed, d_value**2 + vis**2 - 1.0)
    ok = worst_pure < 1e-9 and worst_mixed < 1e-9
    report(7, "duality D^2 + V^2 = 1 (pure), <= 1 (mixed)",
           ok, f"max|D2+V2-1|={worst_pure:.1e}, mixed excess {worst_mixed:+.1e}")


def test_criterion_08_tomography():
    sq2 = 1 / np.sqrt(2)
    targets = [
        np.outer([1, 0, 0, 0], np.conj([1, 0, 0, 0])),
        np.outer([sq2, 0, 0, sq2], np.conj([sq2, 0, 0, sq2])),
        np.outer([sq2, 0, 0, -1j * sq2], np.conj([sq2, 0, 0, -1j * sq2])),
    ]
    fids = []
    for target in targets:
        for seed in range(100):
            counts = tomo.simulate_counts(target, pairs_total=30000, seed=seed)
            res = tomo.reconstruct(counts, method="mle", target=target)
            fids.append(res.fidelity)
    mean_fid = float(np.mean(fids))
    noiseless = min(
        tomo.reconstruct(np.rint(tomo.born_probabilities(t) * 10**9),
                         method="mle", target=t).fidelity
        for t in targets
    )
    ok = mean_fid >= 0.98 and noiseless >= 0.999
    report(8, "MLE tomography: mean F >= 0.98 over 100 seeds, noiseless >= 0.999",
           ok, f"mean F={mean_fid:.4f}, noiseless F={noiseless:.6f}")


def test_criterion_09_normalization():
    worst = 0.0
    for model in ("procmat", "fock"):
        sums = cli.model_probability_table(model, 0.29).sum(axis=(-2, -1))
        assert sums.size == 180
        worst = max(worst, np.abs(sums - 1.0).max())
    ok = worst < 1e-9
    report(9, "all 180 outcome distributions sum to 1 +- 1e-9",
           ok, f"max |sum(p)-1| = {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    identical = True
    for sub, args, files in (
        ("simulate", ["simulate", "--model", "procmat",
                      "--distinguishability", "0.29"],
         ("probabilities.csv", "metadata.json")),
        ("tomo", ["tomo", "--input-state", "2", "--pairs", "20000",
                  "--seed", "11"],
         ("counts.csv", "tomo.json")),
    ):
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{sub}-{run}"
            rc = cli.main(args + ["--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in files:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                identical = False
    report(10, "identical config + seed give byte-identical CSV/JSON", identical)
