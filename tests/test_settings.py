import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icoswitch.settings import (
    ALICE_TRIPLES,
    BOB_MEAS_HWP,
    BOB_REPREP_HWP,
    CATALOG,
    INPUT_STATES,
    SHAPE,
    CatalogError,
    ExperimentSetting,
    jones,
)
from icoswitch.witness import evaluate_witness, probs_to_witness_table


def test_exactly_180_settings():
    catalog = [ExperimentSetting(*(i + 1 for i in idx))
               for idx in np.ndindex(SHAPE)]
    assert SHAPE == (3, 10, 2, 3)
    assert len(catalog) == 180
    assert len(set(catalog)) == 180
    # CATALOG's index arrays, read in C order, run through the rows of a
    # probability table
    rows = np.stack(np.broadcast_arrays(CATALOG.z, CATALOG.x, CATALOG.y,
                                        CATALOG.r), -1)
    assert [tuple(row) for row in rows.reshape(-1, 4)] \
        == [(s.z, s.x, s.y, s.r) for s in catalog]


def test_catalog_rows_match_table():
    assert INPUT_STATES[1] == (0.0, 22.5)        # input-state row (2)
    assert ALICE_TRIPLES[9] == (90.0, 45.0, 45.0)  # Alice unitary (10)
    assert BOB_MEAS_HWP == [0.0, 22.5]
    assert BOB_REPREP_HWP == [0.0, 22.5, 45.0]


def test_setting_angle_fields():
    s = ExperimentSetting(z=2, x=10, y=2, r=3)
    assert (s.prep_qwp, s.prep_hwp) == (0.0, 22.5)
    assert s.alice_angles == (90.0, 45.0, 45.0)
    assert s.meas_hwp == 22.5
    assert s.reprep_hwp == 45.0


TABLES = arrays(np.float64, SHAPE + (2, 2),
                elements=st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=25)
@given(table=TABLES, index=st.tuples(*(st.integers(1, n) for n in SHAPE),
                                     st.integers(0, 1), st.integers(0, 1)))
def test_witness_layout_combines_bob_settings(table, index):
    z, x, y, r, b, d = index
    witness_table = probs_to_witness_table(table)
    assert witness_table.shape == (2, 2, 10, 6, 3)
    assert witness_table[b, d, x - 1, 3 * (y - 1) + r - 1, z - 1] \
        == table[z - 1, x - 1, y - 1, r - 1, b, d]


@settings(max_examples=25)
@given(table=TABLES, axis=st.integers(0, 5))
def test_evaluate_witness_rejects_a_shape_mismatch(table, axis):
    alpha = probs_to_witness_table(table)
    with pytest.raises(ValueError, match="shape"):
        evaluate_witness(alpha, probs_to_witness_table(
            np.delete(table, 0, axis=axis)))


ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@settings(max_examples=50)
@given(kind=st.sampled_from(["hwp", "qwp"]), theta=ANGLES)
def test_waveplates_are_unitary(kind, theta):
    u = jones(kind, theta)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


@settings(max_examples=50)
@given(theta=ANGLES)
def test_two_quarter_wave_plates_make_a_half_wave_plate(theta):
    # R diag(1, -i)^2 R^T = R diag(1, -1) R^T, with no global phase
    qwp = jones("qwp", theta)
    assert np.abs(qwp @ qwp - jones("hwp", theta)).max() < 1e-12


def test_index_ranges_enforced():
    with pytest.raises(ValueError):
        ExperimentSetting(z=4, x=1, y=1, r=1)
    with pytest.raises(ValueError):
        ExperimentSetting(z=1, x=0, y=1, r=1)
    with pytest.raises(ValueError):
        ExperimentSetting(z=1, x=1, y=3, r=1)


def test_index_arrays_give_each_settings_angles():
    angles = np.broadcast_arrays(CATALOG.prep_qwp, CATALOG.prep_hwp,
                                 *CATALOG.alice_angles, CATALOG.meas_hwp,
                                 CATALOG.reprep_hwp)
    for idx in np.ndindex(SHAPE):
        s = ExperimentSetting(*(i + 1 for i in idx))
        assert [a[idx] for a in angles] == [
            s.prep_qwp, s.prep_hwp, *s.alice_angles, s.meas_hwp, s.reprep_hwp]


def test_index_arrays_are_validated_entry_by_entry():
    z, x, y, r = CATALOG.z, CATALOG.x, CATALOG.y, CATALOG.r
    bad = x.copy()
    bad[0, 4, 0, 0] = 11
    with pytest.raises(ValueError, match="in 1..10"):
        ExperimentSetting(z, bad, y, r)
    with pytest.raises(ValueError, match="not an integer"):
        ExperimentSetting(z, x + 0.0, y, r)
    # a float index is refused here, not when an angle is read
    with pytest.raises(ValueError, match="not an integer"):
        ExperimentSetting(1.5, 1, 1, 1)
    with pytest.raises(ValueError, match="not an integer"):
        ExperimentSetting(True, 1, 1, 1)


def test_catalog_helpers_reject_indices_outside_the_catalog():
    # negative indexing once gave row 3's ket, triple 10 and the (2, 3)
    # measurement and repreparation plates; no operator is built for an
    # index outside the catalog
    for index in ((0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 4)):
        with pytest.raises(CatalogError):
            ExperimentSetting(*index).operators()


def test_catalog_index_arrays_are_read_only():
    for index in (CATALOG.z, CATALOG.x, CATALOG.y, CATALOG.r):
        with pytest.raises(ValueError, match="read-only"):
            index[...] = 1


def test_catalog_helpers_take_index_arrays():
    # CATALOG.operators() at each of the 180 settings is that setting's
    # operators, bit for bit
    ops = CATALOG.operators()
    assert [o.shape for o in ops] == [(3, 1, 1, 1, 2), (1, 10, 1, 1, 2, 2),
                                      (1, 1, 2, 1, 2, 2), (1, 1, 1, 3, 2, 2)]
    for idx in np.ndindex(SHAPE):
        one = ExperimentSetting(*(i + 1 for i in idx)).operators()
        for stack, op in zip(ops, one):
            assert np.array_equal(
                np.broadcast_to(stack, SHAPE + op.shape)[idx], op)


def test_alice_unitaries_unitary_and_span():
    mats = CATALOG.operators()[1].reshape(10, 2, 2)
    for u in mats:
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    # the ten choices are pairwise distinct as channels
    for i in range(10):
        for j in range(i + 1, 10):
            chan_dist = np.abs(
                np.abs(np.trace(mats[i].conj().T @ mats[j])) - 2.0
            )
            assert chan_dist > 1e-6, (i, j)


def test_bob_kraus_completeness_and_rank():
    _, _, meas, reprep = CATALOG.operators()
    for m in meas.reshape(2, 2, 2):
        for r in reprep.reshape(3, 2, 2):
            total = np.zeros((2, 2), dtype=complex)
            for b in (0, 1):
                k = r @ np.diag(np.eye(2)[b]) @ m  # K_b = R |b><b| M
                assert np.linalg.matrix_rank(k) == 1
                total += k.conj().T @ k
            assert np.abs(total - np.eye(2)).max() < 1e-12


def test_prep_states_bloch_directions():
    # rows prepare +Z, +X and a circular (+-Y) eigenstate
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1, -1])
    v1, v2, v3 = CATALOG.operators()[0].reshape(3, 2)
    assert abs(np.real(v1.conj() @ sz @ v1) - 1) < 1e-12
    assert abs(np.real(v2.conj() @ sx @ v2) - 1) < 1e-12
    assert abs(abs(np.real(v3.conj() @ sy @ v3)) - 1) < 1e-12


def test_model_layers_do_not_import_the_optics_simulator():
    # the catalog, qubit and process-matrix layers stand apart from fock
    import icoswitch

    src = str(Path(icoswitch.__file__).resolve().parents[1])
    code = ("import sys, icoswitch.switch, icoswitch.procmat, "
            "icoswitch.witness; print(sorted(m for m in sys.modules "
            "if m.startswith('icoswitch.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert "icoswitch.settings" in out
    assert "icoswitch.fock" not in out
    # scipy alone would add 0.3-0.5 s and 22-28 MB to every command's start
    code = ("import sys, icoswitch.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
