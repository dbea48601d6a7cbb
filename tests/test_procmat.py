import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch import procmat as pm
from icoswitch import settings as catalog
from icoswitch.circuits import (parse_circuit, program_from_spec,
                                reference_circuit_text)
from icoswitch.paulialg import (PauliContext, pauli_coeffs,
                                sparse_coeffs_to_matrix)
from icoswitch.qmath import LabeledOperator, choi_vector, coherence
from icoswitch.settings import CATALOG, PLUS_MINUS, SHAPE, ExperimentSetting
from icoswitch.switch import setting_probabilities as qubit_probs
from icoswitch.switch import switch_evolve


@pytest.fixture(scope="module")
def w():
    return pm.w_switch()


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def clear_catalog_caches():
    # the Choi stacks and their Pauli tables are cached; a test that
    # patches the catalog rebuilds them before and after
    pm.catalog_chois.cache_clear()
    pm.factor_coeffs.cache_clear()


def rand_herm(rng):
    m = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    return LabeledOperator(pm.CANONICAL, pm.DIMS, (m + m.conj().T) / 2)


# -- w_switch -----------------------------------------------------------------

def test_w_switch_rank_one_psd_trace(w):
    evals = np.linalg.eigvalsh(w.entries)
    assert evals[0] > -1e-10
    assert (evals > 1e-8).sum() == 1
    assert abs(np.trace(w.entries) - pm.TRACE_NORM) < 1e-9


def test_w_switch_probabilities_match_circuit_oracle(w):
    rng = np.random.default_rng(0)
    tables = {}
    for _ in range(6):
        s = ExperimentSetting(int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                              int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        d_value = float(rng.choice([0.0, 0.29, 0.8]))
        if d_value not in tables:
            tables[d_value] = pm.probability_table(d_value)
        got = tables[d_value][s.z - 1, s.x - 1, s.y - 1, s.r - 1]
        assert np.abs(got - qubit_probs(s, d_value)).max() < 1e-9


ANGLE = st.floats(-180.0, 180.0)
REFERENCE_SPEC = parse_circuit(reference_circuit_text())


@settings(max_examples=30)
@given(angles=st.tuples(*[ANGLE] * 7), d_value=st.floats(0.0, 1.0))
def test_three_models_agree_off_the_catalog(angles, d_value):
    # catalog angles are multiples of 22.5 degrees; moving setting
    # (1, 1, 1, 1) off them checks the shared conventions elsewhere
    prep_q, prep_h, q1, h, q2, meas, reprep = angles
    s = ExperimentSetting(1, 1, 1, 1)
    clear_catalog_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name, first in (("INPUT_STATES", (prep_q, prep_h)),
                                ("ALICE_TRIPLES", (q1, h, q2)),
                                ("BOB_MEAS_HWP", meas),
                                ("BOB_REPREP_HWP", reprep)):
                mp.setattr(catalog, name, [first] + getattr(catalog, name)[1:])
            tables = [
                pm.probability_table(d_value)[0, 0, 0, 0],
                qubit_probs(s, d_value),
                program_from_spec(REFERENCE_SPEC, s, coherence(d_value))
                .outcome_probabilities(),
            ]
    finally:
        clear_catalog_caches()
    assert np.abs(tables[0] - tables[1]).max() < 1e-9
    assert np.abs(tables[0] - tables[2]).max() < 1e-9


@pytest.mark.parametrize("d_value", [0.0, 0.29, 1.0])
def test_models_agree_on_random_operator_stacks(d_value):
    # every catalog Kraus operator of Bob is real, so the catalog cannot
    # tell K from conj(K) in his Choi; Haar-random complex stacks in the
    # catalog's shapes can, and they reach both models through
    # ExperimentSetting.operators
    rng = np.random.default_rng(5)

    def unitaries(*shape):
        return np.reshape([haar_unitary(rng) for _ in range(np.prod(shape))],
                          shape + (2, 2))

    # psi, U, M, R; a Haar unitary's first column is a Haar-random ket
    ops = (unitaries(3, 1, 1, 1)[..., 0], unitaries(1, 10, 1, 1),
           unitaries(1, 1, 2, 1), unitaries(1, 1, 1, 3))
    clear_catalog_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExperimentSetting, "operators", lambda self: ops)
            procmat_table = pm.probability_table(d_value)
            qubit_table = qubit_probs(CATALOG, d_value)
    finally:
        clear_catalog_caches()
    assert np.abs(procmat_table - qubit_table).max() < 1e-12


def test_full_dephasing_equals_half_mixture(w):
    mix = pm.mix_orders(0.5, pm.w_ordered("A->B"), pm.w_ordered("B->A"))
    deph = pm.dephase_order_coherence(w, 1.0)
    assert np.abs(mix.entries - deph.entries).max() < 1e-12


# -- the catalog's Choi stacks ----------------------------------------------------

def test_alice_identity_choi():
    prep, alice, bob, det = pm.catalog_chois()
    assert (prep.shape, alice.shape, bob.shape, det.shape) == (
        (3, 2, 2), (10, 4, 4), (2, 3, 2, 4, 4), (2, 4, 4))
    # triple (0, 0, 0) realizes the identity: its Choi is the link vector's
    link = np.eye(2).reshape(4)
    assert np.abs(alice[0] - np.outer(link, link)).max() < 1e-12
    # each of the ten is a unitary's Choi: rank 1, trace 2
    for choi in alice:
        evals = np.linalg.eigvalsh(choi)
        assert (evals > 1e-10).sum() == 1
        assert abs(np.trace(choi) - 2) < 1e-12


def test_bob_elements_sum_to_trace_preserving_choi():
    total = pm.catalog_chois()[2].sum(axis=2)  # over b, per (y, r)
    # partial trace over B_O must be the identity on B_I
    t = total.reshape(2, 3, 2, 2, 2, 2)  # (B_I, B_O) x (B_I, B_O)
    red = np.trace(t, axis1=-3, axis2=-1)
    assert np.abs(red - np.eye(2)).max() < 1e-10


def test_detect_outcomes_sum_to_identity():
    total = pm.catalog_chois()[3].sum(axis=0)
    assert np.abs(total - np.eye(4)).max() < 1e-12


def test_catalog_chois_are_read_only():
    for stack in pm.catalog_chois() + pm.factor_coeffs():
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0.0


# -- probability rule --------------------------------------------------------------

def test_probability_normalization_all_settings(w):
    table = pm.probability_table(0.0, w=w)
    assert table.shape == SHAPE + (2, 2) and table[..., 0, 0].size == 180
    assert np.abs(table.sum(axis=(-2, -1)) - 1.0).max() < 1e-9


def test_probability_definite_order_identity_case():
    # |H> prepared, Alice's identity, Bob measures Z: outcome V never occurs
    w_ab = pm.w_ordered("A->B")
    prep, alice, bob, det = pm.catalog_chois()
    p = np.array([[pm.probability(w_ab, prep[0], alice[0], bob[0, 0, b], det[d])
                   for d in (0, 1)] for b in (0, 1)])
    assert abs(p.sum() - 1.0) < 1e-12
    p_v = p[1].sum()
    assert p_v < 1e-12


def test_probability_missing_party_rejected(w):
    prep, alice, bob, _ = pm.catalog_chois()
    with pytest.raises(TypeError, match="detect"):
        pm.probability(w, prep[0], alice[0], bob[0, 0, 0])


def test_probability_outside_the_unit_interval_rejected(w):
    prep, alice, bob, det = pm.catalog_chois()
    with pytest.raises(FloatingPointError, match="outside"):
        pm.probability(w, prep[0], alice[0], bob[0, 0, 0], 3.0 * det[0])


def test_probability_table_matches_elementwise():
    w = pm.dephase_order_coherence(pm.w_switch(), 0.29)
    table = pm.probability_table(0.29)
    prep, alice, bob, det = pm.catalog_chois()
    for z, x, y, r, b, d in np.ndindex(table.shape):
        assert abs(table[z, x, y, r, b, d] - pm.probability(
            w, prep[z], alice[x], bob[y, r, b], det[d])) < 1e-12


def detect_element(ket):
    # a final readout outside the catalog: |ket><ket| on F_c, identity on F_t
    return np.kron(np.outer(ket, np.conj(ket)), np.eye(2))


def test_off_catalog_operators_match_the_circuit_oracle(w):
    # Haar-random complex U, M, R and psi: the joint state of the qubit
    # model, read out as p(b, d), against the Born rule on the Choi
    # operators of psi, U and K_b = R |b><b| M
    rng = np.random.default_rng(11)
    for _ in range(8):
        psi, u, meas, reprep = (haar_unitary(rng) for _ in range(4))
        psi = psi[:, 0]
        # amplitudes over the sorted labels (a, c, s); d reads c in +/-
        amps = switch_evolve(u, meas, psi, bob_reprep=reprep
                             ).amplitudes.reshape(2, 2, 2)
        circuit = (np.abs(np.einsum("dc,bcs->bds", PLUS_MINUS, amps))**2).sum(-1)
        alice = choi_vector(u, "A_I", "A_O").outer().entries
        bob = [choi_vector(reprep @ np.diag(np.eye(2)[b]) @ meas, "B_I", "B_O")
               .outer().entries for b in (0, 1)]
        born = np.array([[pm.probability(w, np.outer(psi, psi.conj()), alice,
                                         bob[b], detect_element(ket))
                          for ket in PLUS_MINUS] for b in (0, 1)])
        assert np.abs(born - circuit).max() < 1e-12


def test_non_signalling_from_the_future(w):
    s = ExperimentSetting(2, 6, 1, 2)
    prep, alice, bob, det = pm.catalog_chois()
    detects = {
        "x": det,
        "y": [detect_element(np.array([1, 1j * sgn]) / np.sqrt(2))
              for sgn in (1, -1)],
        "z": [detect_element(np.eye(2)[d]) for d in (0, 1)],
    }
    marginals = {}
    for basis, elements in detects.items():
        marginals[basis] = [
            sum(pm.probability(w, prep[s.z - 1], alice[s.x - 1],
                               bob[s.y - 1, s.r - 1, b], e)
                for e in elements)
            for b in (0, 1)
        ]
    for basis in ("y", "z"):
        assert max(abs(a - b) for a, b
                   in zip(marginals["x"], marginals[basis])) < 1e-10


# -- ordered subspaces ----------------------------------------------------------

def test_forbidden_pattern_counts():
    assert int(pm.forbidden_mask("A->B").sum()) == 819
    assert int(pm.forbidden_mask("B->A").sum()) == 819
    assert int(pm.forbidden_mask("valid").sum()) == 675
    with pytest.raises(ValueError, match="unknown order"):
        pm.forbidden_mask("A<->B")


@pytest.mark.parametrize("order", ["A->B", "B->A"])
def test_projector_fixed_point_on_ordered_processes(order):
    wo = pm.w_ordered(order)
    assert np.abs(pm.project_ordered(wo.operator, order).entries
                  - wo.entries).max() < 1e-12
    rng = np.random.default_rng(5)
    wr = pm.random_ordered(order, rng, kraus_rank=2)
    assert np.abs(pm.project_ordered(wr.operator, order).entries
                  - wr.entries).max() < 1e-12


def test_projector_idempotent_and_self_adjoint():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rand_herm(rng)
        pm1 = pm.project_ordered(m, "A->B")
        pm2 = pm.project_ordered(pm1, "A->B")
        assert np.abs(pm2.entries - pm1.entries).max() < 1e-10
    a, b = rand_herm(rng), rand_herm(rng)
    lhs = np.trace(pm.project_ordered(a, "B->A").entries @ b.entries)
    rhs = np.trace(a.entries @ pm.project_ordered(b, "B->A").entries)
    assert abs(lhs - rhs) < 1e-8 * max(1, abs(lhs))


def test_projector_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(9)
    m = rand_herm(rng)
    out = pm.project_ordered(m, "A->B")
    assert abs(np.trace(out.entries) - np.trace(m.entries)) < 1e-9
    assert out.is_hermitian()


def test_switch_is_not_order_compatible(w):
    proj = pm.project_ordered(w.operator, "A->B")
    dist = np.linalg.norm(proj.entries - w.entries)
    assert dist > 0.1


def test_valid_projection_keeps_normalization():
    # any operator in the valid span with trace 8 yields normalized
    # probability distributions for every catalog setting
    rng = np.random.default_rng(11)
    coeffs = pauli_coeffs(rand_herm(rng).entries, pm.NQUBITS)
    m = sparse_coeffs_to_matrix(np.arange(4**pm.NQUBITS),
                                coeffs * ~pm.forbidden_mask("valid"),
                                PauliContext(pm.NQUBITS))
    ent = m + (pm.TRACE_NORM - np.trace(m)) / 128 * np.eye(128)
    wr = pm.ProcessMatrix(LabeledOperator(pm.CANONICAL, pm.DIMS, ent))
    table = pm.probability_table(0.0, w=wr)
    assert np.abs(table.sum(axis=(-2, -1)) - 1.0).max() < 1e-9


# -- mixtures --------------------------------------------------------------------

def test_mix_orders_endpoints():
    w_ab, w_ba = pm.w_ordered("A->B"), pm.w_ordered("B->A")
    assert np.abs(pm.mix_orders(1.0, w_ab, w_ba).entries
                  - w_ab.entries).max() < 1e-12
    assert np.abs(pm.mix_orders(0.0, w_ab, w_ba).entries
                  - w_ba.entries).max() < 1e-12


def test_mix_orders_rejects_bad_probability_and_invalid_orders(w):
    w_ab, w_ba = pm.w_ordered("A->B"), pm.w_ordered("B->A")
    with pytest.raises(ValueError):
        pm.mix_orders(1.5, w_ab, w_ba)
    with pytest.raises(ValueError):
        pm.mix_orders(0.5, w, w_ba)  # the switch is not A->B ordered


def test_random_separable_mixtures_give_valid_probabilities():
    rng = np.random.default_rng(13)
    for _ in range(100):
        w_ab = pm.random_ordered("A->B", rng, kraus_rank=int(rng.integers(1, 3)))
        w_ba = pm.random_ordered("B->A", rng, kraus_rank=int(rng.integers(1, 3)))
        mix = pm.mix_orders(float(rng.uniform()), w_ab, w_ba)
        table = pm.probability_table(0.0, w=mix)
        assert table.min() > -1e-10 and table.max() < 1 + 1e-10
        assert np.abs(table.sum(axis=(-2, -1)) - 1.0).max() < 1e-9
