import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icoswitch import tomo
from icoswitch.cli import TOMO_TARGETS
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


def exact_counts(rho, per_setting=10**9):
    # noiseless limit: counts proportional to exact probabilities
    return np.rint(tomo.born_probabilities(rho) * per_setting).astype(np.int64)


# -- count simulation ------------------------------------------------------------

def test_counts_expected_totals():
    counts = tomo.simulate_counts(PHI_PLUS, pairs_total=30000, seed=1)
    assert counts.shape == tomo.SHAPE
    per_setting = counts.sum(axis=(2, 3))
    assert per_setting.size == 9
    assert abs(per_setting.mean() - 3333) < 300  # ~sqrt(3333) Poisson noise


def test_counts_pure_hh_zz_all_in_one_outcome():
    counts = tomo.simulate_counts(HH, pairs_total=10000, seed=3)
    zz = counts[2, 2]    # BASES index 2 is Z
    assert zz[0, 0] > 0
    assert zz.sum() == zz[0, 0]


def test_counts_deterministic_per_seed():
    a = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=42)
    b = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=42)
    assert np.array_equal(a, b)
    c = tomo.simulate_counts(PHI_PLUS, pairs_total=5000, seed=43)
    assert not np.array_equal(a, c)


def test_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        tomo.simulate_counts(PHI_PLUS, pairs_total=0)


@st.composite
def density_matrices(draw):
    # A A^dagger / Tr for a random complex 4 x 4 A of rank 1 to 4
    rank = draw(st.integers(1, 4))
    parts = draw(arrays(np.float64, (2, 4, rank),
                        elements=st.floats(-1, 1, allow_nan=False)))
    a = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(a) > 1e-3)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


PAULI = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.array([[1, 0], [0, -1]])}


@settings(max_examples=50)
@given(density_matrices())
def test_born_probabilities_sum_to_one_per_basis_pair(rho):
    p = tomo.born_probabilities(rho)
    assert p.shape == tomo.SHAPE
    assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < 1e-12
    # reference: Tr[(1 + s P_a)/2 (x) (1 + t P_b)/2 rho], outcome 0 is s = +1
    for a, b, oa, ob in np.ndindex(tomo.SHAPE):
        proj = np.kron((np.eye(2) + (-1) ** oa * PAULI[tomo.BASES[a]]) / 2,
                       (np.eye(2) + (-1) ** ob * PAULI[tomo.BASES[b]]) / 2)
        assert abs(p[a, b, oa, ob] - np.trace(proj @ rho).real) < 1e-12


# -- reconstruction ---------------------------------------------------------------

@pytest.mark.parametrize("target", TARGETS, ids=["HH", "phi+", "phi-i"])
@pytest.mark.parametrize("method", ["linear", "mle"])
def test_noiseless_reconstruction(target, method):
    res = tomo.reconstruct(exact_counts(target), method=method, target=target)
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
    res = tomo.reconstruct(exact_counts(rho, 10**12), method="linear")
    assert np.abs(res.rho.entries - rho).max() < 1e-10


def test_mle_always_psd_unit_trace():
    rng = np.random.default_rng(11)
    for seed in range(3):
        counts = tomo.simulate_counts(PHI_PLUS, pairs_total=800, seed=seed)
        res = tomo.reconstruct(counts, method="mle")
        assert res.psd
        ev = np.linalg.eigvalsh(res.rho.entries)
        assert ev[0] > -1e-10
        assert abs(np.trace(res.rho.entries) - 1) < 1e-10


@pytest.mark.parametrize("z", sorted(TOMO_TARGETS))
@pytest.mark.parametrize("seed", [0, 7])
def test_mle_stop_does_not_depend_on_the_count_scale(z, seed):
    # the stopping bound is relative to the log-likelihood, which scales
    # with the counts, so n and 10 n stop at the same iteration
    counts = tomo.simulate_counts(TOMO_TARGETS[z], pairs_total=30000, seed=seed)
    once = tomo.reconstruct(counts, method="mle")
    tenfold = tomo.reconstruct(10 * counts, method="mle")
    assert once.converged and tenfold.converged
    assert once.iterations == tenfold.iterations
    assert np.abs(once.rho.entries - tenfold.rho.entries).max() < 1e-12


def test_reconstruct_rejects_incomplete_settings():
    counts = tomo.simulate_counts(PHI_PLUS, pairs_total=900, seed=0)
    # the X,Y basis pair missing: the array no longer has every pair
    without_xy = np.delete(counts.reshape(9, 2, 2), 1, axis=0)
    with pytest.raises(ValueError, match="shape"):
        tomo.reconstruct(without_xy)
    negative = counts.copy()
    negative[0, 1, 0, 0] = -1
    with pytest.raises(ValueError, match="non-negative"):
        tomo.reconstruct(negative)
    with pytest.raises(ValueError, match="no counts"):
        tomo.reconstruct(np.zeros(tomo.SHAPE, dtype=int))


def test_poisson_mle_fidelity_above_098():
    # smaller-sample version of the acceptance average (30 seeds here)
    fids = []
    for target in TARGETS:
        for seed in range(10):
            counts = tomo.simulate_counts(target, pairs_total=30000, seed=seed)
            res = tomo.reconstruct(counts, method="mle", target=target)
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
            counts = tomo.simulate_counts(PHI_PLUS, pairs_total=total, seed=seed)
            res = tomo.reconstruct(counts, method="mle")
            diff = res.rho.entries - PHI_PLUS
            errs.append(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        return float(np.median(errs))

    e3, e4, e5 = (median_error(t) for t in (3000, 30000, 300000))
    assert e3 > e4 > e5


# -- csv export ---------------------------------------------------------------------

def test_csv_round_trip():
    counts = tomo.simulate_counts(PHI_PLUS, pairs_total=2000, seed=5)
    lines = tomo.counts_csv(counts).splitlines()
    assert lines[0] == tomo.CSV_HEADER
    back = np.zeros(tomo.SHAPE, dtype=counts.dtype)
    for line in lines[1:]:
        sa, sb, oa, ob, n = line.split(",")
        back[tomo.BASES.index(sa), tomo.BASES.index(sb), int(oa), int(ob)] = int(n)
    assert len(lines) == 1 + counts.size
    assert np.array_equal(back, counts)


def test_csv_rows_pinned():
    # row order (basis pair outer, outcomes inner) and the seeded draw
    counts = tomo.simulate_counts(TOMO_TARGETS[3], pairs_total=30000, seed=7)
    assert tomo.counts_csv(counts).splitlines()[:10] == [
        tomo.CSV_HEADER,
        "X,X,0,0,844", "X,X,0,1,858", "X,X,1,0,816", "X,X,1,1,860",
        "X,Y,0,0,0", "X,Y,0,1,1643", "X,Y,1,0,1636", "X,Y,1,1,0",
        "X,Z,0,0,834",
    ]


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

    def rates(overlap):
        return program_from_spec(spec, s, overlap, scan=np.rad2deg(grid)
                                 ).coincidence_probability()

    for overlap, expected, tol in ((1.0, 1.0, 1e-6), (0.98, 0.98, 1e-3)):
        given = rates(overlap)
        vis, flat, out = tomo.fringe_scan(given, grid)
        assert not flat
        assert abs(vis - expected) < tol
        assert np.array_equal(out, given)
    vis, flat, out = tomo.fringe_scan(rates(0.0), grid)
    assert flat
    assert vis == 0.0
    assert len(out) == len(grid)


def test_fringe_scan_requires_full_period():
    with pytest.raises(ValueError, match="full period"):
        tomo.fringe_scan(np.ones(5), np.linspace(0, 1.0, 5))
    # one rate per grid phase
    with pytest.raises(ValueError, match="rates"):
        tomo.fringe_scan(np.ones(4), np.linspace(0, 2 * np.pi, 5))
