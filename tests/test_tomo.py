import numpy as np
import pytest

from icoswitch import tomo
from icoswitch.circuits import (
    parse_circuit,
    program_from_spec,
    reference_circuit_text,
)
from icoswitch.settings import ExperimentSetting

SQ2 = 1 / np.sqrt(2)


def ket_to_rho(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())

HH = ket_to_rho([1, 0, 0, 0])
PHI_PLUS = ket_to_rho([SQ2, 0, 0, SQ2])
PHI_MINUS_I = ket_to_rho([SQ2, 0, 0, -1j * SQ2])
TARGETS = (HH, PHI_PLUS, PHI_MINUS_I)


def exact_records(rho, per_setting=10**9):
    # noiseless limit: counts proportional to exact probabilities
    recs = []
    for setting in tomo.BASIS_SET:
        probs = tomo.born_probabilities(rho, setting)
        for o, p in sorted(probs.items()):
            recs.append(tomo.CountRecord(setting, o, int(round(p * per_setting))))
    return recs


# -- count simulation ------------------------------------------------------------

def test_counts_expected_totals():
    recs = tomo.simulate_counts(PHI_PLUS, pairs_total=30000, seed=1)
    assert len(recs) == 9 * 4
    per_setting = {}
    for r in recs:
        per_setting[r.setting] = per_setting.get(r.setting, 0) + r.counts
    counts = np.array(list(per_setting.values()))
    assert len(counts) == 9
    assert abs(counts.mean() - 3333) < 300  # ~sqrt(3333) Poisson noise


def test_counts_pure_hh_zz_all_in_one_outcome():
    recs = tomo.simulate_counts(HH, pairs_total=10000, seed=3)
    for r in recs:
        if r.setting == ("Z", "Z") and r.outcome != (0, 0):
            assert r.counts == 0


def test_counts_deterministic_per_seed():
    a = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=42)
    b = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=42)
    assert a == b
    c = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=43)
    assert a != c


def test_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        tomo.simulate_counts(PHI_PLUS, basis_set=(), pairs_total=100)
    with pytest.raises(ValueError):
        tomo.simulate_counts(PHI_PLUS, pairs_total=0)


# -- reconstruction ---------------------------------------------------------------

@pytest.mark.parametrize("target", TARGETS, ids=["HH", "phi+", "phi-i"])
@pytest.mark.parametrize("method", ["linear", "mle"])
def test_noiseless_reconstruction(target, method):
    recs = exact_records(target)
    res = tomo.reconstruct(recs, method=method, target=target)
    assert res.fidelity > 0.999
    if method == "mle":
        assert res.psd
        assert res.purity > 0.999
    else:
        assert np.abs(res.rho.entries - target).max() < 1e-6


def test_linear_inversion_exact_on_exact_probabilities():
    rng = np.random.default_rng(7)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = ket_to_rho(v)
    res = tomo.reconstruct(exact_records(rho, 10**12), method="linear")
    assert np.abs(res.rho.entries - rho).max() < 1e-10


def test_mle_always_psd_unit_trace():
    rng = np.random.default_rng(11)
    for seed in range(3):
        recs = tomo.simulate_counts(PHI_PLUS, pairs_total=800, seed=seed)
        res = tomo.reconstruct(recs, method="mle")
        assert res.psd
        ev = np.linalg.eigvalsh(res.rho.entries)
        assert ev[0] > -1e-10
        assert abs(np.trace(res.rho.entries) - 1) < 1e-10


def test_reconstruct_rejects_incomplete_settings():
    recs = [r for r in tomo.simulate_counts(PHI_PLUS, pairs_total=900, seed=0)
            if r.setting != ("X", "Y")]
    with pytest.raises(ValueError, match="X.*Y"):
        tomo.reconstruct(recs)


def test_poisson_mle_fidelity_above_098():
    # smaller-sample version of the acceptance average (30 seeds here)
    fids = []
    for target in TARGETS:
        for seed in range(10):
            recs = tomo.simulate_counts(target, pairs_total=30000, seed=seed)
            res = tomo.reconstruct(recs, method="mle", target=target)
            fids.append(res.fidelity)
    assert np.mean(fids) >= 0.98


def test_fidelity_properties():
    rng = np.random.default_rng(13)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = ket_to_rho(v)
    assert abs(tomo.fidelity(rho, rho) - 1) < 1e-12
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    w /= np.linalg.norm(w)
    sig = ket_to_rho(w)
    assert abs(tomo.fidelity(rho, sig) - tomo.fidelity(sig, rho)) < 1e-12


def test_error_decreases_with_pairs_total():
    def median_error(total):
        errs = []
        for seed in range(7):
            recs = tomo.simulate_counts(PHI_PLUS, pairs_total=total, seed=seed)
            res = tomo.reconstruct(recs, method="mle")
            diff = res.rho.entries - PHI_PLUS
            errs.append(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        return float(np.median(errs))

    e3, e4, e5 = (median_error(t) for t in (3000, 30000, 300000))
    assert e3 > e4 > e5


# -- csv export ---------------------------------------------------------------------

def test_csv_round_trip():
    recs = tomo.simulate_counts(PHI_PLUS, pairs_total=2000, seed=5)
    lines = tomo.records_to_csv(recs).splitlines()
    assert lines[0] == tomo.CSV_HEADER
    back = []
    for line in lines[1:]:
        sa, sb, oa, ob, n = line.split(",")
        back.append(tomo.CountRecord((sa, sb), (int(oa), int(ob)), int(n)))
    assert back == recs


def test_targets_match_switch_model_output():
    # the tomography target for input z is the post-selected two-photon
    # state the switch model actually produces (identity unitary, Z/Z
    # measurement), traced over the control
    from icoswitch.qmath import partial_trace
    from icoswitch.switch import switch_evolve
    from icoswitch.settings import prep_state

    for z, target in zip((1, 2, 3), TARGETS):
        out = switch_evolve(np.eye(2), np.eye(2), prep_state(z)).outer()
        rho_sa = partial_trace(out, {"s", "a"})
        # labels sort to (a, s); swap to (s, a) = (system, probe) order
        arr = rho_sa.entries.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2)
        assert abs(tomo.fidelity(arr.reshape(4, 4), target) - 1) < 1e-10


# -- fringe scans -----------------------------------------------------------------

def test_fringe_scan_visibility_levels():
    grid = np.linspace(0.0, 2 * np.pi, 33)
    s = ExperimentSetting(1, 1, 1, 1)
    spec = parse_circuit(reference_circuit_text())
    for overlap, expected, tol in ((1.0, 1.0, 1e-6), (0.98, 0.98, 1e-3)):
        prog = program_from_spec(spec, s, overlap)
        vis, flat, rates = tomo.fringe_scan(prog.coincidence_probability, grid)
        assert not flat
        assert abs(vis - expected) < tol
        assert rates[5] == prog.coincidence_probability(grid[5])
    prog = program_from_spec(spec, s, 0.0)
    vis, flat, rates = tomo.fringe_scan(prog.coincidence_probability, grid)
    assert flat
    assert vis == 0.0
    assert len(rates) == len(grid)


def test_fringe_scan_requires_full_period():
    with pytest.raises(ValueError):
        tomo.fringe_scan(lambda ph: 1.0, np.linspace(0, 1.0, 5))
