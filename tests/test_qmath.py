import numpy as np
import pytest

from icoswitch import procmat as pm
from icoswitch.qmath import (
    LabelError,
    LabeledOperator,
    LabeledVector,
    choi_vector,
    dephase,
    partial_trace,
    tensor,
)
from icoswitch.switch import switch_evolve

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def rand_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_tensor_identity_case():
    i2 = LabeledOperator(["a"], [2], np.eye(2))
    out = tensor([i2, LabeledOperator(["b"], [2], np.eye(2))])
    assert np.allclose(out.entries, np.eye(4))


def test_tensor_pauli_z_pair():
    za = LabeledOperator(["a"], [2], SZ)
    zb = LabeledOperator(["b"], [2], SZ)
    out = tensor([za, zb])
    assert np.allclose(out.entries, np.diag([1, -1, -1, 1]))


def test_tensor_control_and_diagonal_ancilla():
    ket0 = LabeledVector(["c"], [2], [1, 0])
    ketd = LabeledVector(["a"], [2], np.array([1, 1]) / np.sqrt(2))
    out = tensor([ket0, ketd])
    # canonical label order is (a, c): |D>_a |0>_c
    assert out.labels == ("a", "c")
    assert np.allclose(out.amplitudes, np.array([1, 0, 1, 0]) / np.sqrt(2))
    # in (c, a) index convention the same state reads (1,1,0,0)/sqrt(2)
    ca = out.amplitudes.reshape(2, 2).T.reshape(4)
    assert np.allclose(ca, np.array([1, 1, 0, 0]) / np.sqrt(2))


def test_tensor_rejects_duplicate_label():
    a1 = LabeledOperator(["a"], [2], np.eye(2))
    a2 = LabeledOperator(["a"], [2], np.eye(2))
    with pytest.raises(LabelError, match="'a'"):
        tensor([a1, a2])


def test_tensor_associative_up_to_label_bookkeeping():
    rng = np.random.default_rng(7)
    ops = [
        LabeledOperator([l], [2], rand_herm(rng, 2)) for l in ("x", "y", "z")
    ]
    flat = tensor(ops)
    nested = tensor([tensor(ops[:2]), ops[2]])
    assert flat.labels == nested.labels
    assert np.array_equal(flat.entries, nested.entries)


def test_canonical_order_is_lexicographic():
    rng = np.random.default_rng(3)
    ma, mb = rand_herm(rng, 2), rand_herm(rng, 3)
    ab = tensor([
        LabeledOperator(["a"], [2], ma),
        LabeledOperator(["b"], [3], mb),
    ])
    ba = tensor([
        LabeledOperator(["b"], [3], mb),
        LabeledOperator(["a"], [2], ma),
    ])
    assert ab.labels == ba.labels == ("a", "b")
    assert np.allclose(ab.entries, ba.entries)
    assert np.allclose(ab.entries, np.kron(ma, mb))


def test_partial_trace_bell_state():
    bell = LabeledVector(["s", "a"], [2, 2], np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho_s = partial_trace(bell.outer(), {"s"})
    assert rho_s.labels == ("s",)
    assert np.allclose(rho_s.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_s = rand_herm(rng, 2)
    rho_a = rand_herm(rng, 2)
    rho_a = rho_a @ rho_a.conj().T
    rho_a /= np.trace(rho_a)
    prod = tensor([
        LabeledOperator(["s"], [2], rho_s),
        LabeledOperator(["a"], [2], rho_a),
    ])
    out = partial_trace(prod, {"s"})
    assert np.allclose(out.entries, rho_s, atol=1e-12)


def test_partial_trace_keep_all_is_identity_case():
    op = LabeledOperator(["a", "b"], [2, 2], np.eye(4))
    assert partial_trace(op, {"a", "b"}) is op


def test_partial_trace_unknown_label():
    with pytest.raises(LabelError, match="'q'"):
        partial_trace(LabeledOperator(["a"], [2], np.eye(2)), {"q"})


def test_partial_trace_of_tensor_factorizes():
    rng = np.random.default_rng(11)
    for _ in range(6):
        na, nb = rng.integers(1, 3, size=2)
        da, db = 2**na, 2**nb
        a = LabeledOperator(["a"], [da], rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)))
        b = LabeledOperator(["b"], [db], rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db)))
        joint = tensor([a, b])
        red = partial_trace(joint, {"a"})
        assert np.abs(red.entries - np.trace(b.entries) * a.entries).max() < 1e-12
        assert abs(np.trace(joint.entries)
                   - np.trace(partial_trace(joint, {"b"}).entries)) < 1e-10


# -- Choi vectors -------------------------------------------------------------

def test_link_vector_definition_and_norm():
    # the identity's Choi vector is the link vector sum_i |ii>
    lv = choi_vector(np.eye(2), "i", "o")
    assert lv.labels == ("i", "o")
    assert np.array_equal(lv.amplitudes, [1, 0, 0, 1])
    assert abs(np.linalg.norm(lv.amplitudes) ** 2 - 2) < 1e-12


def test_link_vector_rejects_dim_zero():
    with pytest.raises(ValueError, match=">= 1"):
        choi_vector(np.eye(0), "i", "o")
    with pytest.raises(ValueError, match="axes"):
        choi_vector(np.eye(4), "i", ("o", "p"))


def test_choi_vector_definition():
    # |K>> = sum_i |i>_in (x) K|i>_out, for a map between unequal dims
    rng = np.random.default_rng(23)
    k = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    vec = choi_vector(k, "in", "out")
    assert vec.dims == (2, 3)
    for i in range(2):
        assert np.array_equal(vec.amplitudes.reshape(2, 3)[i], k[:, i])


def test_choi_vector_isometry_matches_component_loop():
    # the random ordered process's final isometry 2 -> 4 on (F_t, F_c),
    # laid out component by component as (B_O, F_t, F_c)
    rng = np.random.default_rng(29)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = np.linalg.qr(z)[0][:, :2]
    fin = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        fin[i] = v[:, i].reshape(2, 2)
    loop = LabeledVector(["B_O", "F_t", "F_c"], [2, 2, 2], fin.reshape(8))
    vec = choi_vector(v.reshape(2, 2, 2), "B_O", ("F_t", "F_c"))
    assert vec.labels == loop.labels and vec.dims == loop.dims
    assert np.array_equal(vec.amplitudes, loop.amplitudes)


def test_link_vector_contraction_identity():
    # <<I| (rho^T (x) sigma) |I>> = Tr(rho sigma)
    rng = np.random.default_rng(13)
    lv = choi_vector(np.eye(2), "i", "o")
    for _ in range(10):
        rho = rand_herm(rng, 2)
        sig = rand_herm(rng, 2)
        op = tensor([
            LabeledOperator(["i"], [2], rho.T),
            LabeledOperator(["o"], [2], sig),
        ])
        val = np.vdot(lv.amplitudes, op.entries @ lv.amplitudes)
        assert abs(val - np.trace(rho @ sig)) < 1e-12


def test_choi_of_identity_reproduces_channel_action():
    # Choi(id) = |I>><<I|; channel action via the probability-rule contraction
    # Tr_in[ Choi (rho^T (x) 1) ] = rho, checked on 10 random states.
    rng = np.random.default_rng(17)
    choi = choi_vector(np.eye(2), "in", "out").outer()
    for _ in range(10):
        psi = rand_state(rng, 2)
        rho = np.outer(psi, psi.conj())
        arg = tensor([
            LabeledOperator(["in"], [2], rho.T),
            LabeledOperator(["out"], [2], np.eye(2)),
        ])
        prodop = LabeledOperator(("in", "out"), (2, 2), choi.entries @ arg.entries)
        out = partial_trace(prodop, {"out"})
        assert np.abs(out.entries - rho).max() < 1e-12


def test_operator_helpers():
    rng = np.random.default_rng(19)
    h = rand_herm(rng, 4)
    op = LabeledOperator(["a", "b"], [2, 2], h)
    assert op.is_hermitian()
    assert not LabeledOperator(["a"], [2], [[0, 1], [0, 0]]).is_hermitian()


@pytest.mark.parametrize("kind", ["vector", "operator"])
def test_same_labels_other_dims_are_rejected(kind):
    op = LabeledOperator(["a", "b"], [2, 2], np.eye(4))
    vec = LabeledVector(["a", "b"], [1, 4], np.eye(4)[0])
    other = LabeledOperator(["a", "b"], [1, 4], np.eye(4))
    state = vec if kind == "vector" else other
    with pytest.raises(LabelError, match="subsystems differ"):
        op @ state
    if kind == "operator":
        with pytest.raises(LabelError, match="subsystems differ"):
            op + other


def test_vector_shape_validation():
    with pytest.raises(ValueError):
        LabeledVector(["a"], [2], [1, 0, 0])
    with pytest.raises(LabelError):
        LabeledVector(["a", "a"], [2, 2], np.zeros(4))


def test_immutability():
    v = LabeledVector(["a"], [2], [1, 0])
    with pytest.raises(ValueError):
        v.amplitudes[0] = 5


# -- dephasing ----------------------------------------------------------------

def dephasing_subject(label):
    """The qubit model's {a, c, s} state (label "c") or the 128-side switch
    process (label "F_c")."""
    if label == "c":
        rng = np.random.default_rng(17)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return switch_evolve(u, had, rand_state(rng, 2)).outer()
    return pm.w_switch().operator


def block_diagonal(op, label):
    """sum_k P_k op P_k, P_k the projector onto |k> of the qubit ``label``."""
    rest = [(l, d) for l, d in zip(op.labels, op.dims) if l != label]
    eye = LabeledOperator([l for l, _ in rest], [d for _, d in rest],
                          np.eye(op.entries.shape[0] // 2))
    total = np.zeros_like(op.entries)
    for k in range(2):
        p = tensor([LabeledOperator([label], [2], np.diag(np.eye(2)[k])), eye])
        total += p.entries @ op.entries @ p.entries
    return total


@pytest.mark.parametrize("label", ["c", "F_c"])
def test_dephase_identity_and_full(label):
    op = dephasing_subject(label)
    assert dephase(op, label, 0.0) is op
    full = dephase(op, label, 1.0)
    assert np.abs(block_diagonal(op, label) - op.entries).max() > 0.1
    assert np.abs(full.entries - block_diagonal(op, label)).max() < 1e-15
    assert abs(np.trace(full.entries) - np.trace(op.entries)) < 1e-12


@pytest.mark.parametrize("label", ["c", "F_c"])
def test_dephase_composition_law(label):
    op = dephasing_subject(label)
    d1, d2 = 0.3, 0.77
    combined = np.sqrt(1 - (1 - d1**2) * (1 - d2**2))
    lhs = dephase(dephase(op, label, d1), label, d2)
    rhs = dephase(op, label, combined)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-12


@pytest.mark.parametrize("label", ["c", "F_c"])
def test_dephase_rejects_out_of_range(label):
    op = dephasing_subject(label)
    with pytest.raises(ValueError, match="distinguishability"):
        dephase(op, label, 1.2)
    with pytest.raises(LabelError, match="'q'"):
        dephase(op, "q", 0.5)
