import numpy as np
import pytest

from icoswitch import switch as switch_module

from icoswitch.qmath import LabeledOperator, dephase, partial_trace, tensor
from icoswitch.settings import SHAPE, ExperimentSetting
from icoswitch.switch import (
    DualityReport,
    duality,
    setting_probabilities,
    switch_evolve,
)

SQ2 = 1 / np.sqrt(2)
HAD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
SZ = np.diag([1.0, -1.0]).astype(complex)


def haar_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def ancilla_z(state):
    rho_a = partial_trace(state.outer(), {"a"}).entries
    return float(np.real(np.trace(SZ @ rho_a)))


def von_neumann(system, basis):
    """Bob's probe coupling alone: the |0>_c branch of the switch with
    Alice's unitary the identity."""
    return switch_evolve(np.eye(2), basis, system, control=[1, 0])


def control_schmidt_values(state):
    """Singular values of the control-vs-rest split; labels sort as (a, c, s)."""
    arr = state.amplitudes.reshape(2, 2, 2).transpose(1, 0, 2).reshape(2, 4)
    return np.linalg.svd(arr, compute_uv=False)


# -- probe coupling ----------------------------------------------------------

def test_vn_identity_basis_z_expectation():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        out = von_neumann(v, np.eye(2))
        assert abs(ancilla_z(out) - (abs(v[0]) ** 2 - abs(v[1]) ** 2)) < 1e-12


def test_vn_basis_rotated_expectation():
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        u = haar_unitary(rng)
        out = von_neumann(v, u)
        expect = np.real(v.conj() @ u.conj().T @ SZ @ u @ v)
        assert abs(ancilla_z(out) - expect) < 1e-12


def test_vn_zero_input_separable():
    out = von_neumann([1, 0], np.eye(2))
    assert np.allclose(out.amplitudes, tensor_ket([1, 0], [1, 0]))


def tensor_ket(s, a):
    # canonical label order is (a, c, s), with the control in |0>
    return np.kron(np.kron(a, [1, 0]), s).astype(complex)


def test_vn_diag_input_hadamard_basis():
    out = von_neumann([SQ2, SQ2], HAD)
    assert abs(ancilla_z(out) - 1.0) < 1e-12
    sv = np.linalg.svd(out.amplitudes.reshape(2, 4), compute_uv=False)
    assert sv[1] < 1e-12  # the ancilla is separable


def test_vn_rejects_nonunitary():
    with pytest.raises(ValueError):
        von_neumann([1, 0], np.array([[1, 1], [0, 1]]))


def test_vn_projection_postulate():
    # Tr_a of the joint equals sum_k P_k rho P_k in the measurement basis
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        u = haar_unitary(rng)
        out = von_neumann(v, u)
        rho_s = partial_trace(out.outer(), {"s"}).entries
        rho = np.outer(v, v.conj())
        expected = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            pk = u.conj().T @ np.diag(np.eye(2)[k]) @ u
            expected += pk @ rho @ pk
        assert np.abs(rho_s - expected).max() < 1e-12


# -- switch_evolve ----------------------------------------------------------

def test_identity_alice_factorizes_with_full_coherence():
    rng = np.random.default_rng(5)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    out = switch_evolve(np.eye(2), np.eye(2), v)
    sv = control_schmidt_values(out)
    assert sv[1] < 1e-10  # control factorizes
    rho_c = partial_trace(out.outer(), {"c"}).entries
    assert abs(abs(rho_c[0, 1]) - 0.5) < 1e-12


def test_sigma_z_alice_factorizes():
    out = switch_evolve(SZ, np.eye(2), [SQ2, SQ2])
    sv = control_schmidt_values(out)
    assert sv[1] < 1e-8


def test_haar_alice_generically_entangles_control():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(10):
        u = haar_unitary(rng)
        out = switch_evolve(u, HAD, [SQ2, 1j * SQ2])
        if control_schmidt_values(out)[1] > 1e-4:
            hits += 1
    assert hits >= 9


def test_definite_order_control_matches_sequential_circuit():
    rng = np.random.default_rng(9)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    u = haar_unitary(rng)
    out = switch_evolve(u, np.eye(2), v, control=[1, 0])
    # |0>_c branch: Alice then Bob's interaction
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = 1
    cnot[2, 3] = cnot[3, 2] = 1  # (s, a) index order
    seq = cnot @ np.kron(u @ v, [1, 0])
    arr = out.amplitudes.reshape(2, 2, 2)  # (a, c, s)
    got = arr[:, 0, :].T.reshape(4)  # to (s, a) order
    assert np.abs(got - seq).max() < 1e-12


def test_order_commutation_two_routes_agree():
    # coherence magnitude computed directly and from branch overlap agree
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = haar_unitary(rng)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        out = switch_evolve(u, HAD, v)
        rho_c = partial_trace(out.outer(), {"c"}).entries
        # branch overlap: <psi_1 | psi_0> / 2 with explicit matrices
        meas = HAD
        cnot = np.zeros((4, 4), dtype=complex)
        cnot[0, 0] = cnot[1, 1] = 1
        cnot[2, 3] = cnot[3, 2] = 1
        vn = np.kron(meas.conj().T, np.eye(2)) @ cnot @ np.kron(meas, np.eye(2))
        b0 = vn @ np.kron(u @ v, [1, 0])
        b1 = np.kron(u, np.eye(2)) @ cnot_apply(meas, v)
        overlap = b1.conj() @ b0 / 2
        assert abs(abs(rho_c[0, 1]) - abs(overlap)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_switch_evolve_matches_the_explicit_gate_product(seed):
    # the 4 x 4 gates on (s, a): Bob's probe kron(R, 1) CNOT kron(M, 1)
    # after Alice's kron(U, 1) on branch |0>_c, before it on branch |1>_c
    rng = np.random.default_rng(seed)
    u, meas, reprep = (haar_unitary(rng) for _ in range(3))
    system, control = (haar_unitary(rng)[:, 0] for _ in range(2))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    for bob_reprep, r in ((None, meas.conj().T), (reprep, reprep)):
        alice = np.kron(u, np.eye(2))
        probe = np.kron(r, np.eye(2)) @ cnot @ np.kron(meas, np.eye(2))
        joint = np.kron(system, [1, 0])
        expect = np.concatenate([control[0] * (probe @ alice @ joint),
                                 control[1] * (alice @ probe @ joint)])
        out = switch_evolve(u, meas, system, control=control,
                            bob_reprep=bob_reprep)
        # labels sort as (a, c, s); the gate product runs over (c, s, a)
        got = out.amplitudes.reshape(2, 2, 2).transpose(1, 2, 0).reshape(8)
        assert np.abs(got - expect).max() <= 1e-15


def cnot_apply(meas, v):
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = 1
    cnot[2, 3] = cnot[3, 2] = 1
    vn = np.kron(meas.conj().T, np.eye(2)) @ cnot @ np.kron(meas, np.eye(2))
    return vn @ np.kron(v, [1, 0])


def test_ancilla_projection_leaves_control_state():
    # averaging over ancilla outcomes never changes the control state
    rng = np.random.default_rng(13)
    u = haar_unitary(rng)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    out = switch_evolve(u, HAD, v).outer()
    rho_c_before = partial_trace(out, {"c"}).entries
    basis = haar_unitary(rng)
    total = np.zeros((2, 2), dtype=complex)
    for k in range(2):
        ketk = basis[:, k]
        eff = tensor([LabeledOperator(["a"], [2], np.outer(ketk, ketk.conj())),
                      LabeledOperator(["c", "s"], [2, 2], np.eye(4))])
        sub = LabeledOperator(out.labels, out.dims,
                              eff.entries @ out.entries @ eff.entries)
        total += partial_trace(sub, {"c"}).entries
    assert np.abs(total - rho_c_before).max() < 1e-10


# -- dephasing ---------------------------------------------------------------

def test_dephase_visibility_fig4_point():
    rho = switch_evolve(np.eye(2), np.eye(2), [SQ2, SQ2]).outer()
    rep = duality(dephase(rho, "c", 0.29))
    assert abs(rep.visibility - 0.957) < 1e-3


# -- duality ------------------------------------------------------------------

def test_duality_pure_plus_control():
    rho = switch_evolve(np.eye(2), np.eye(2), [1, 0]).outer()
    rep = duality(rho)
    assert abs(rep.visibility - 1) < 1e-10
    assert rep.distinguishability < 1e-5
    assert isinstance(rep, DualityReport)


def test_duality_fully_dephased():
    rho = dephase(
        switch_evolve(np.eye(2), np.eye(2), [1, 0]).outer(), "c", 1.0
    )
    rep = duality(rho)
    assert rep.visibility < 1e-12
    assert abs(rep.distinguishability - 1) < 1e-12


def test_duality_visibility_0957_gives_d_029():
    rho = switch_evolve(np.eye(2), np.eye(2), [SQ2, SQ2]).outer()
    target = None
    for dv in np.linspace(0, 1, 2001):
        rep = duality(dephase(rho, "c", dv))
        if abs(rep.visibility - 0.957) < 2.5e-4:
            target = rep
            break
    assert target is not None
    assert abs(target.distinguishability - 0.290) < 1e-3


def test_duality_saturation_and_mixed_bound():
    rho = switch_evolve(np.eye(2), np.eye(2), [SQ2, -1j * SQ2]).outer()
    for dv in np.linspace(0, 1, 11):
        rep = duality(dephase(rho, "c", dv))
        assert abs(rep.distinguishability**2 + rep.visibility**2 - 1) < 1e-10
        assert rep.visibility <= rep.coherence_bound + 1e-10


# -- campaign probabilities ----------------------------------------------------

def test_setting_probabilities_normalized_and_deterministic():
    s = ExperimentSetting(2, 6, 2, 3)
    p1 = setting_probabilities(s, 0.29)
    p2 = setting_probabilities(s, 0.29)
    assert np.array_equal(p1, p2)
    assert abs(p1.sum() - 1) < 1e-12


def test_setting_probabilities_identity_case():
    p = setting_probabilities(ExperimentSetting(1, 1, 1, 1), 0.0)
    assert abs(p[0, 0] - 1) < 1e-12
    assert abs(p[0, 1]) < 1e-12
    assert abs(p[1, 0]) < 1e-12


@pytest.mark.parametrize("d_value", [0.0, 0.29, 1.0])
def test_catalog_table_matches_one_setting_calls(d_value):
    catalog = ExperimentSetting(*(i + 1 for i in np.indices(SHAPE, sparse=True)))
    table = setting_probabilities(catalog, d_value)
    assert table.shape == SHAPE + (2, 2)
    for idx in np.ndindex(SHAPE):
        one = setting_probabilities(
            ExperimentSetting(*(i + 1 for i in idx)), d_value)
        assert one.shape == (2, 2)
        assert np.abs(table[idx] - one).max() <= 1e-15


def test_table_path_checks_its_stacks():
    catalog = ExperimentSetting(*(i + 1 for i in np.indices(SHAPE, sparse=True)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(switch_module, "jones", lambda kind, theta: np.eye(2) * 1.5)
        with pytest.raises(ValueError, match="unitary"):
            setting_probabilities(catalog, 0.29)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(switch_module, "prep_state",
                   lambda z: np.where(z == 2, np.nan, 1.0)[..., None] * [1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            setting_probabilities(catalog, 0.29)
        mp.setattr(switch_module, "prep_state", lambda z: z[..., None] * [1.0, 0.0])
        with pytest.raises(ValueError, match="norm"):
            setting_probabilities(catalog, 0.29)
