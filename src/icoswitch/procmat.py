"""Process-matrix description of the switch experiment.

The process space carries seven qubit labels: the global past P (target
preparation), Alice's input/output A_I / A_O, Bob's B_I / B_O, and the
final detection F_t (target, unmeasured) and F_c (order/control qubit,
read out in the +/- basis).  The coherently ordered switch process is the
rank-1 operator built from identity-channel link vectors |I>> (the Choi
vectors of the identity, ``qmath.choi_vector``),

    |w> = ( |I>>^{P A_I} |I>>^{A_O B_I} |I>>^{B_O F_t} |0>^{F_c}
          + |I>>^{P B_I} |I>>^{B_O A_I} |I>>^{A_O F_t} |1>^{F_c} ) / sqrt(2),

with trace d_P * d_AO * d_BO = 8.  Probabilities follow the fixed
contraction convention (validated against the circuit-level oracle):
channel Chois enter untransposed as (1 (x) M)(|I>><<I|), the prepared
state enters untransposed, and the final POVM element enters transposed.

The catalog's Choi operators, one stack per party from
``settings.CATALOG.operators()``, are kept as four Pauli-coefficient tables
(``factor_coeffs``); each outcome operator is the tensor product of one row
of each.

Causally ordered subspaces are characterized by forbidden Pauli-product
patterns (the trace-and-replace comb conditions); projectors onto them are
diagonal in the Pauli-product basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import settings as catalog
from .paulialg import (PauliContext, coeffs_to_matrix, pauli_coeffs,
                       pauli_coeffs_batch)
from .qmath import LabeledOperator, LabeledVector, choi_vector, dephase, tensor

LABELS = ("P", "A_I", "A_O", "B_I", "B_O", "F_t", "F_c")
CANONICAL = tuple(sorted(LABELS))  # A_I A_O B_I B_O F_c F_t P
DIMS = (2,) * 7
NQUBITS = 7
SIDE = 2**NQUBITS
TRACE_NORM = 8.0  # d_P * d_AO * d_BO, pinned by the sum-to-one invariant

_IDX = {l: i for i, l in enumerate(CANONICAL)}

# causal order -> (first in, first out, second in, second out, F_c value)
ORDERS = {
    "A->B": ("A_I", "A_O", "B_I", "B_O", 0),
    "B->A": ("B_I", "B_O", "A_I", "A_O", 1),
}


def _order(order: str):
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}")
    return ORDERS[order]


@dataclass(frozen=True)
class ProcessMatrix:
    """PSD operator over the seven-label process space."""

    operator: LabeledOperator

    def __post_init__(self):
        if self.operator.labels != CANONICAL:
            raise ValueError(f"process labels must be {CANONICAL}")

    @property
    def entries(self):
        return self.operator.entries


def _branch(order: str) -> LabeledVector:
    """Link-vector branch of |w> for one order, F_c set to the order."""
    first_in, first_out, second_in, second_out, fc = _order(order)
    return tensor([
        choi_vector(np.eye(2), "P", first_in),
        choi_vector(np.eye(2), first_out, second_in),
        choi_vector(np.eye(2), second_out, "F_t"),
        LabeledVector(["F_c"], [2], np.eye(2)[fc]),
    ])


def w_switch() -> ProcessMatrix:
    """Rank-1 process matrix of the coherently ordered switch."""
    ab, ba = _branch("A->B"), _branch("B->A")
    amp = (ab.amplitudes + ba.amplitudes) / np.sqrt(2.0)
    vec = LabeledVector(ab.labels, ab.dims, amp)
    return ProcessMatrix(vec.outer())


def w_ordered(order: str) -> ProcessMatrix:
    """Definite-order reduction of the switch (one branch of |w>)."""
    return ProcessMatrix(_branch(order).outer())


def dephase_order_coherence(w: ProcessMatrix, d_value: float) -> ProcessMatrix:
    """Shrink the off-diagonal F_c blocks by sqrt(1 - D^2)."""
    return ProcessMatrix(dephase(w.operator, "F_c", d_value))


# -- the catalog's Choi operators ------------------------------------------------

def _chois(kraus, label_in: str, label_out: str) -> np.ndarray:
    """Choi operators of a stack of qubit Kraus operators, its axes first."""
    return np.array([choi_vector(k, label_in, label_out).outer().entries
                     for k in kraus.reshape(-1, 2, 2)]
                    ).reshape(kraus.shape[:-2] + (4, 4))


@lru_cache(maxsize=1)
def catalog_chois():
    """Read-only Choi stacks of the catalog on their labels in canonical
    order: prep (3, 2, 2) on P; alice (10, 4, 4) on (A_I, A_O); bob
    (2, 3, 2, 4, 4) of K_b = R |b><b| M, indexed (y-1, r-1, b), on
    (B_I, B_O); detect (2, 4, 4), |d><d| of the +/- readout on F_c (x) 1."""
    psi, u, meas, reprep = catalog.CATALOG.operators()
    psi, ket = psi.reshape(-1, 2), catalog.PLUS_MINUS
    proj = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]  # |b><b|
    # axes (y, r, b)
    kraus = reprep[0, 0, :, :, None] @ proj @ meas[0, 0, :, :, None]
    stacks = (psi[:, :, None] * psi[:, None, :].conj(),
              _chois(u.reshape(-1, 2, 2), "A_I", "A_O"),
              _chois(kraus, "B_I", "B_O"),
              np.kron(ket[:, :, None] * ket[:, None, :], np.eye(2)))
    for t in stacks:
        t.flags.writeable = False
    return stacks


def probability(w: ProcessMatrix, prep, alice, bob, detect) -> float:
    """Generalized Born rule for one Choi matrix per party, each on its
    labels in canonical order, as in ``catalog_chois``.

    The detect-party POVM element enters transposed; this is the
    convention under which the contraction reproduces the circuit models.
    """
    # the canonical label order is A_I A_O B_I B_O F_c F_t P
    product = reduce(np.kron, (alice, bob, np.transpose(detect), prep))
    p = float(np.real(np.trace(w.entries @ product)))
    if p < -1e-10 or p > 1 + 1e-10:
        raise FloatingPointError(f"probability {p} outside [0, 1] tolerance")
    return min(max(p, 0.0), 1.0)


# -- fast per-setting tables -----------------------------------------------------

@lru_cache(maxsize=1)
def factor_coeffs():
    """Read-only Pauli-coefficient tables of ``catalog_chois``: prep (3, 4)
    on P; alice (10, 16) on (A_I, A_O); bob (2, 3, 2, 16) indexed
    (y-1, r-1, b) on (B_I, B_O); detect (2, 16), the transposed POVM element
    on (F_c, F_t).  Outcome (z, x, y, r, b, d) has the coefficient
    alice[a] bob[c] detect[f] prep[p] on the pattern with digit groups
    (a, c, f, p)."""
    prep, alice, bob, det = catalog_chois()
    tables = (pauli_coeffs_batch(prep, 1), pauli_coeffs_batch(alice, 2),
              pauli_coeffs_batch(bob, 2),
              pauli_coeffs_batch(det.swapaxes(-1, -2), 2))
    for t in tables:
        t.flags.writeable = False
    return tables


def probability_table(d_value: float = 0.0,
                      w: ProcessMatrix | None = None) -> np.ndarray:
    """All 180 x 4 probabilities as an array p[z-1, x-1, y-1, r-1, b, d]
    of shape ``settings.SHAPE + (2, 2)``."""
    if w is None:
        w = dephase_order_coherence(w_switch(), d_value)
    # W's coefficients over the digit groups (A_I A_O), (B_I B_O),
    # (F_c F_t), P, contracted with alice, bob, detect, then prep
    t = pauli_coeffs(w.entries, NQUBITS).reshape(16, 16, 16, 4)
    prep, alice, bob, det = factor_coeffs()
    p = np.einsum("xa,yrbc,df,zp,acfp->zxyrbd", alice, bob, det, prep, t,
                  optimize=["einsum_path", (0, 4), (0, 3), (0, 2), (0, 1)])
    return SIDE * p.real


# -- causally ordered subspaces ---------------------------------------------------

@lru_cache(maxsize=1)
def _nontrivial():
    """label -> mask of the patterns acting non-trivially on that label."""
    dg = PauliContext(NQUBITS).digits  # (N, 7) in canonical label order
    return {l: dg[:, _IDX[l]] != 0 for l in CANONICAL}


@lru_cache(maxsize=3)
def forbidden_mask(kind: str) -> np.ndarray:
    """Patterns no process of the given kind carries (comb conditions).

    ``kind`` is an order, "A->B" or "B->A", or "valid" for the patterns
    no valid process carries, whatever its order.
    """
    nz = _nontrivial()
    f_trivial = ~nz["F_c"] & ~nz["F_t"]
    if kind == "valid":
        a_pairable = nz["A_O"] | (~nz["A_I"] & ~nz["A_O"])
        b_pairable = nz["B_O"] | (~nz["B_I"] & ~nz["B_O"])
        nontrivial = nz["P"] | nz["A_O"] | nz["B_O"]
        return f_trivial & a_pairable & b_pairable & nontrivial
    _, first_out, second_in, second_out, _ = _order(kind)
    c1 = nz[second_out] & f_trivial
    c2 = nz[first_out] & ~nz[second_in] & ~nz[second_out] & f_trivial
    c3 = (nz["P"] & ~nz["A_I"] & ~nz["A_O"] & ~nz["B_I"] & ~nz["B_O"]
          & f_trivial)
    return c1 | c2 | c3


def project_ordered(m: LabeledOperator, order: str) -> LabeledOperator:
    """Orthogonal projection onto the order-compatible linear subspace."""
    if m.labels != CANONICAL:
        raise ValueError(f"operator labels must be {CANONICAL}")
    coeffs = pauli_coeffs(m.entries, NQUBITS)
    coeffs = coeffs * ~forbidden_mask(order)
    return LabeledOperator(CANONICAL, DIMS, coeffs_to_matrix(coeffs, NQUBITS))


def mix_orders(p: float, w_ab: ProcessMatrix, w_ba: ProcessMatrix) -> ProcessMatrix:
    """p W_AB + (1-p) W_BA; both arguments must be order-valid."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must be in [0, 1], got {p}")
    for w, order in ((w_ab, "A->B"), (w_ba, "B->A")):
        dev = np.abs(
            project_ordered(w.operator, order).entries - w.entries
        ).max()
        if dev > 1e-9:
            raise ValueError(f"argument is not {order} ordered (dev {dev:.2e})")
    return ProcessMatrix(LabeledOperator(
        CANONICAL, DIMS, p * w_ab.entries + (1.0 - p) * w_ba.entries))


def random_ordered(order: str, rng: np.random.Generator,
                   kraus_rank: int = 1) -> ProcessMatrix:
    """Random causally ordered process: wire -> channel -> wire comb."""
    def haar(d):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

    first_in, first_out, second_in, second_out, _ = _order(order)

    v_in = haar(2)
    mid = [haar(2)]
    if kraus_rank == 2:
        # random CPTP map from a 4x4 unitary acting on system + |0> env
        big = haar(4).reshape(2, 2, 2, 2)
        mid = [big[:, k, :, 0] for k in range(2)]  # sum_k K^dag K = 1
    v_fin = haar(4)[:, :2]  # isometry 2 -> 4 on (F_t, F_c)

    wire_in = choi_vector(v_in, "P", first_in)
    wire_out = choi_vector(v_fin.reshape(2, 2, 2), second_out, ("F_t", "F_c"))
    total = np.zeros((SIDE, SIDE), dtype=complex)
    for k_mid in mid:
        vec = tensor([wire_in, choi_vector(k_mid, first_out, second_in),
                      wire_out])
        total += vec.outer().entries
    op = LabeledOperator(CANONICAL, DIMS, total)
    return ProcessMatrix(op)
