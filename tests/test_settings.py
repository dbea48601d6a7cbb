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
    INPUT_STATES,
    SHAPE,
    ExperimentSetting,
    alice_unitary,
    bob_kraus,
    enumerate_settings,
    prep_state,
)
from icoswitch.witness import evaluate_witness, probs_to_witness_table


def test_exactly_180_settings():
    catalog = enumerate_settings()
    assert SHAPE == (3, 10, 2, 3)
    assert len(catalog) == 180
    assert len(set(catalog)) == 180
    # the row order of a probability table
    assert [(s.z - 1, s.x - 1, s.y - 1, s.r - 1) for s in catalog] \
        == list(np.ndindex(SHAPE))


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


@settings(max_examples=25, deadline=None)
@given(table=TABLES, index=st.tuples(*(st.integers(1, n) for n in SHAPE),
                                     st.integers(0, 1), st.integers(0, 1)))
def test_witness_layout_combines_bob_settings(table, index):
    z, x, y, r, b, d = index
    witness_table = probs_to_witness_table(table)
    assert witness_table.shape == (2, 2, 10, 6, 3)
    assert witness_table[b, d, x - 1, 3 * (y - 1) + r - 1, z - 1] \
        == table[z - 1, x - 1, y - 1, r - 1, b, d]


@settings(max_examples=25, deadline=None)
@given(table=TABLES, axis=st.integers(0, 5))
def test_evaluate_witness_rejects_a_shape_mismatch(table, axis):
    alpha = probs_to_witness_table(table)
    with pytest.raises(ValueError, match="shape"):
        evaluate_witness(alpha, probs_to_witness_table(
            np.delete(table, 0, axis=axis)))


def test_index_ranges_enforced():
    with pytest.raises(ValueError):
        ExperimentSetting(z=4, x=1, y=1, r=1)
    with pytest.raises(ValueError):
        ExperimentSetting(z=1, x=0, y=1, r=1)
    with pytest.raises(ValueError):
        ExperimentSetting(z=1, x=1, y=3, r=1)


def test_alice_unitaries_unitary_and_span():
    mats = [alice_unitary(x) for x in range(1, 11)]
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
    for y in (1, 2):
        for r in (1, 2, 3):
            total = np.zeros((2, 2), dtype=complex)
            for b in (0, 1):
                k = bob_kraus(y, r, b)
                assert np.linalg.matrix_rank(k) == 1
                total += k.conj().T @ k
            assert np.abs(total - np.eye(2)).max() < 1e-12


def test_prep_states_bloch_directions():
    # rows prepare +Z, +X and a circular (+-Y) eigenstate
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1, -1])
    v1, v2, v3 = (prep_state(z) for z in (1, 2, 3))
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
