import numpy as np
import pytest

from icoswitch.circuits import (
    parse_circuit,
    program_from_spec,
    reference_circuit_text,
    source_state,
)
from icoswitch.fock import (
    FockState,
    Mode,
    NullPostselectionError,
    OpticalElement,
    evolve,
    one_photon_per_group,
    postselect,
)
from icoswitch.settings import CATALOG, SHAPE, ExperimentSetting, jones

SQ2 = 1 / np.sqrt(2)
REFERENCE = parse_circuit(reference_circuit_text())


def switch_program(setting, overlap):
    return program_from_spec(REFERENCE, setting, overlap)


def single(path="a", pol="H", tbin=0, amp=1.0):
    return FockState({(Mode(path, pol, tbin),): amp}, paths=("a", "b"))


def global_phase_free(u, v):
    return abs(abs(np.vdot(u, v)) - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-12


# -- jones ---------------------------------------------------------------

def test_hwp_22p5_maps_h_to_d():
    out = jones("hwp", np.deg2rad(22.5)) @ np.array([1, 0])
    assert np.allclose(out, [SQ2, SQ2])


def test_hwp_0_fixes_h():
    out = jones("hwp", 0.0) @ np.array([1, 0])
    assert global_phase_free(out, np.array([1, 0]))


@pytest.mark.parametrize("kind", ["hwp", "qwp"])
@pytest.mark.parametrize("deg", [0, 17.3, 22.5, 45, 90])
def test_waveplates_unitary(kind, deg):
    u = jones(kind, np.deg2rad(deg))
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_input_rows_give_h_d_r():
    # row (1) -> |H>, row (2) -> |D>, row (3) -> (|H> - i|V>)/sqrt(2),
    # the circular state of the stated input list, up to global phase
    def prep_state(z):
        return ExperimentSetting(z, 1, 1, 1).operators()[0]

    assert global_phase_free(prep_state(1), np.array([1, 0]))
    assert global_phase_free(prep_state(2), np.array([SQ2, SQ2]))
    assert global_phase_free(prep_state(3), np.array([SQ2, -1j * SQ2]))


# -- elements ------------------------------------------------------------

def all_two_path_modes():
    return [Mode(p, pol, t) for p in ("a", "b") for pol in ("H", "V")
            for t in (0, 1, 2)]


@pytest.mark.parametrize("el", [
    OpticalElement("bs50", ("a", "b")),
    OpticalElement("pbs", ("a", "b")),
    OpticalElement("hwp", ("a",), 0.3),
    OpticalElement("qwp", ("b",), 1.1),
    OpticalElement("phase", ("a",), 0.7),
    OpticalElement("delay", ("a",), 0.37, bin=1),
    OpticalElement("delay", ("a",), 0.37, bin=2),
    OpticalElement("swap", ("a", "b")),
])
def test_single_photon_transfer_unitary(el):
    t = el.transfer(("a", "b"), (0, 1, 2))
    assert t.shape == (12, 12)
    assert np.abs(t @ t.conj().T - np.eye(t.shape[0])).max() < 1e-12


def test_delay_bin_is_stored_as_an_integer():
    assert type(OpticalElement("delay", ("a",), 0.5, bin=2.0).bin) is int
    # the circuit parser reads numbers as floats; the modes carry int bins
    state = switch_program(ExperimentSetting(1, 1, 1, 1), 0.5).state()
    assert state.bins == (0, 1, 2)
    assert {type(m.tbin) for m in state.modes} == {int}


def test_bs50_single_photon_split():
    out = evolve(single("a"), OpticalElement("bs50", ("a", "b")))
    amps = out.terms
    assert abs(amps[(Mode("a", "H", 0),)] - SQ2) < 1e-12
    assert abs(amps[(Mode("b", "H", 0),)] - 1j * SQ2) < 1e-12


def test_pbs_transmits_h_reflects_v():
    out_h = evolve(single("a", "H"), OpticalElement("pbs", ("a", "b")))
    out_v = evolve(single("a", "V"), OpticalElement("pbs", ("a", "b")))
    assert list(out_h.terms) == [(Mode("a", "H", 0),)]
    assert list(out_v.terms) == [(Mode("b", "V", 0),)]


def test_evolve_rejects_unknown_path():
    with pytest.raises(ValueError, match="'q'"):
        evolve(single("a"), OpticalElement("hwp", ("q",), 0.1))
    # every element's paths are checked, not only the first one's
    with pytest.raises(ValueError, match="'q'"):
        evolve(single("a"), OpticalElement("bs50", ("a", "b")),
               OpticalElement("swap", ("b", "q")))


def random_element(rng, paths):
    kind = ["bs50", "pbs", "swap", "hwp", "qwp", "phase", "delay"][
        rng.integers(7)]
    if kind in ("bs50", "pbs", "swap"):
        a, b = rng.choice(paths, 2, replace=False)
        return OpticalElement(kind, (str(a), str(b)))
    path = (str(rng.choice(paths)),)
    if kind == "delay":
        return OpticalElement(kind, path, float(rng.uniform()),
                              bin=int(rng.integers(1, 3)))
    return OpticalElement(kind, path, float(rng.uniform(0, 2 * np.pi)))


@pytest.mark.parametrize("photons", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_evolve_composes_like_one_element_at_a_time(photons, seed):
    rng = np.random.default_rng(seed)
    paths = REFERENCE.paths
    modes = [Mode(p, pol, t) for p in paths for pol in "HV" for t in (0, 1)]
    configs = [tuple(modes[i] for i in rng.integers(len(modes), size=photons))
               for _ in range(4)]
    configs.append((modes[0],) * photons)  # every photon in one mode
    st = FockState({c: complex(*rng.normal(size=2)) for c in configs},
                   paths=paths)
    els = [random_element(rng, paths) for _ in range(rng.integers(1, 12))]
    one_by_one = st
    for el in els:
        one_by_one = evolve(one_by_one, el)
    composed = evolve(st, *els)
    assert composed.photons == photons
    keys = composed.terms.keys() | one_by_one.terms.keys()
    assert max(abs(composed.terms.get(k, 0) - one_by_one.terms.get(k, 0))
               for k in keys) < 1e-12


def test_elements_conserve_photon_number_and_norm():
    rng = np.random.default_rng(4)
    modes = all_two_path_modes()
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    amps /= np.linalg.norm(amps) * np.sqrt(2)  # not double-occupied configs
    st = FockState({
        (modes[i], modes[i + 6]): amps[i] for i in range(6)
    })
    start = st.norm_sq()
    for el in [OpticalElement("bs50", ("a", "b")),
               OpticalElement("qwp", ("a",), 0.9),
               OpticalElement("delay", ("b",), 0.4),
               OpticalElement("pbs", ("a", "b"))]:
        st = evolve(st, el)
        assert st.photons == 2
        assert abs(st.norm_sq() - start) < 1e-12


# -- Hong-Ou-Mandel -------------------------------------------------------

def coincidence(state):
    return sum(p for c, p in state.probabilities().items()
               if len({m.path for m in c}) == 2)


def test_hom_indistinguishable_no_coincidence():
    st = FockState({(Mode("a", "H", 0), Mode("b", "H", 0)): 1.0})
    out = evolve(st, OpticalElement("bs50", ("a", "b")))
    assert coincidence(out) < 1e-12
    assert abs(out.norm_sq() - 1) < 1e-12


def test_hom_orthogonal_bins_half_coincidence():
    st = FockState({(Mode("a", "H", 0), Mode("b", "H", 1)): 1.0})
    out = evolve(st, OpticalElement("bs50", ("a", "b")))
    assert abs(coincidence(out) - 0.5) < 1e-12


# -- post-selection -------------------------------------------------------

def entangling_gate_input(alpha, beta):
    return FockState({
        (Mode("s", "H", 0), Mode("a", "H", 0)): alpha * SQ2,
        (Mode("s", "H", 0), Mode("a", "V", 0)): alpha * SQ2,
        (Mode("s", "V", 0), Mode("a", "H", 0)): beta * SQ2,
        (Mode("s", "V", 0), Mode("a", "V", 0)): beta * SQ2,
    })


def test_pbs_gate_half_success_any_input():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        st = evolve(entangling_gate_input(*v), OpticalElement("pbs", ("s", "a")))
        kept, prob = postselect(st, one_photon_per_group({"s"}, {"a"}))
        assert abs(prob - 0.5) < 1e-12
        target = {
            (Mode("a", "H", 0), Mode("s", "H", 0)): v[0],
            (Mode("a", "V", 0), Mode("s", "V", 0)): v[1],
        }
        fid = abs(sum(np.conj(target[c]) * a for c, a in kept.terms.items())) ** 2
        assert fid > 1 - 1e-12


def test_postselect_whole_state_identity():
    st = entangling_gate_input(SQ2, SQ2)
    kept, prob = postselect(st, lambda c: True)
    assert abs(prob - 1) < 1e-12
    assert set(kept.terms) == set(st.terms)


def test_postselect_null_signal():
    st = FockState({(Mode("s", "H", 0), Mode("s", "H", 0)): 1 / np.sqrt(2)},
                   paths=("s", "a"))
    out = evolve(st, OpticalElement("pbs", ("s", "a")))
    with pytest.raises(NullPostselectionError):
        postselect(out, one_photon_per_group({"s"}, {"a"}))


def test_postselect_partition_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    st = evolve(entangling_gate_input(*v), OpticalElement("pbs", ("s", "a")))
    pat_one = one_photon_per_group({"s"}, {"a"})
    probs = []
    for pat in [pat_one,
                lambda c: sum(m.path == "s" for m in c) == 2,
                lambda c: sum(m.path == "a" for m in c) == 2]:
        try:
            probs.append(postselect(st, pat)[1])
        except NullPostselectionError:
            probs.append(0.0)
    assert abs(sum(probs) - 1) < 1e-12


# -- the switch table ------------------------------------------------------

def qubit_reference(s, d_value):
    """Independent qubit-level oracle for the post-selected table."""
    psi, ua, meas, reprep = s.operators()
    f = np.sqrt(1 - d_value**2)
    out = {}
    for b in (0, 1):
        kb = reprep @ np.diag(np.eye(2)[b]) @ meas
        br0, br1 = kb @ ua @ psi, ua @ kb @ psi
        for d, sign in ((0, 1), (1, -1)):
            p = (np.vdot(br0, br0) + np.vdot(br1, br1)
                 + sign * 2 * f * np.real(np.vdot(br1, br0))).real / 4
            out[(b, d)] = p
    return out


def test_switch_program_matches_qubit_oracle_ideal():
    s = ExperimentSetting(1, 1, 1, 1)
    prog = switch_program(s, 1.0)
    probs = prog.outcome_probabilities()
    ref = qubit_reference(s, 0.0)
    assert max(abs(probs[k] - ref[k]) for k in ref) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_switch_program_matches_qubit_oracle_random_settings(seed):
    rng = np.random.default_rng(seed)
    s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                          int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    d_value = float(rng.uniform(0, 1))
    prog = switch_program(s, np.sqrt(1 - d_value**2))
    probs = prog.outcome_probabilities()
    ref = qubit_reference(s, d_value)
    assert max(abs(probs[k] - ref[k]) for k in ref) < 1e-9


def test_success_probability_half_for_all_settings_sample():
    for idx in list(np.ndindex(SHAPE))[::23]:
        prog = switch_program(ExperimentSetting(*(i + 1 for i in idx)), 0.9)
        assert abs(prog.joint_distribution().sum() - 0.5) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_joint_distribution_sums_the_monomial_readback(seed):
    rng = np.random.default_rng(seed)
    s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                          int(rng.integers(1, 3)), int(rng.integers(1, 4)))
    prog = switch_program(s, float(rng.uniform()))
    joint = np.zeros((2, 2, 2, 2))
    for config, p in prog.state().probabilities().items():
        sys_modes = [m for m in config if m.path in prog.system_paths]
        anc_modes = [m for m in config if m.path in prog.ancilla_paths]
        if len(sys_modes) == len(anc_modes) == 1:
            (sm,), (am,) = sys_modes, anc_modes
            joint[prog.system_paths.index(sm.path), "HV".index(sm.pol),
                  prog.ancilla_paths.index(am.path), "HV".index(am.pol)] += p
    assert np.abs(prog.joint_distribution() - joint).max() < 1e-15


def test_fringe_visibility_tracks_overlap():
    s = ExperimentSetting(1, 1, 1, 1)
    grid = np.linspace(0, 2 * np.pi, 41)
    for ov, tol in ((1.0, 1e-9), (0.98, 1e-3), (0.0, 1e-9)):
        rates = [program_from_spec(REFERENCE, s, ov, scan=np.rad2deg(ph))
                 .coincidence_probability() for ph in grid]
        lo, hi = min(rates), max(rates)
        vis = 0.0 if hi + lo == 0 else (hi - lo) / (hi + lo)
        assert abs(vis - ov) < tol


@pytest.mark.parametrize("seed", range(3))
def test_catalog_program_matches_one_setting_programs(seed):
    overlap = float(np.random.default_rng(seed).uniform())
    prog = switch_program(CATALOG, overlap)
    assert prog.state().photons == 2
    table = prog.outcome_probabilities()
    assert table.shape == SHAPE + (2, 2)
    for idx in np.ndindex(SHAPE):
        s = ExperimentSetting(*(i + 1 for i in idx))
        one = switch_program(s, overlap).outcome_probabilities()
        assert np.abs(table[idx] - one).max() <= 1e-15


@pytest.mark.parametrize("overlap", [1.0, 0.6])
def test_scan_program_matches_one_phase_programs(overlap):
    s = ExperimentSetting(3, 4, 2, 1)
    scan = np.linspace(0.0, 360.0, 37)
    rates = program_from_spec(REFERENCE, s, overlap, scan=scan
                              ).coincidence_probability()
    one = [program_from_spec(REFERENCE, s, overlap, scan=ph)
           .coincidence_probability() for ph in scan]
    assert rates.shape == scan.shape
    assert np.abs(rates - one).max() <= 1e-15


def test_bob_state_structure_after_postselection():
    # amplitude of the HH component on the order branch where Alice acts
    # first equals <H|U_A psi>/2 right after Bob's PBS, for random settings
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)), 1, 1)
        deg = np.deg2rad
        els = [
            OpticalElement("qwp", ("c0",), deg(s.prep_qwp)),
            OpticalElement("hwp", ("c0",), deg(s.prep_hwp)),
            OpticalElement("hwp", ("p0",), deg(22.5)),
            OpticalElement("qwp", ("c0",), deg(s.alice_angles[0])),
            OpticalElement("hwp", ("c0",), deg(s.alice_angles[1])),
            OpticalElement("qwp", ("c0",), deg(s.alice_angles[2])),
            OpticalElement("hwp", ("c0",), deg(s.meas_hwp)),
            OpticalElement("pbs", ("c0", "p0")),
        ]
        st = evolve(source_state(REFERENCE), *els)
        amp = st.terms.get((Mode("c0", "H", 0), Mode("p0", "H", 0)), 0.0)
        psi, ua = s.operators()[:2]
        expect = np.array([1, 0]) @ ua @ psi / 2
        assert abs(abs(amp) - abs(expect)) < 1e-12


def test_program_from_spec_rejects_bad_overlap():
    with pytest.raises(ValueError, match="overlap"):
        switch_program(ExperimentSetting(1, 1, 1, 1), 1.5)


def test_source_is_normalized_path_entangled_pair():
    src = source_state(REFERENCE)
    assert abs(src.norm_sq() - 1) < 1e-12
    assert src.photons == 2
    assert {frozenset(m.path for m in c) for c in src.terms} == {
        frozenset({"c0", "p0"}), frozenset({"c1", "p1"})}
