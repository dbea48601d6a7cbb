"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

Every vector and operator carries an ordered list of subsystem labels with
per-label dimensions.  Labels are canonicalized to lexicographic order at
construction time, so two objects over the same subsystems always agree on
index layout.  All values are immutable after construction and all
operations are pure.

Two model conventions are written here once.  ``choi_vector`` is the
Choi convention |K>> = sum_i |i>_in (x) K|i>_out of the process-matrix
model.  ``coherence(D)`` = sqrt(1 - D^2) is the which-path rule of all
three models: distinguishability D leaves that much of the coherence
between two paths.  ``dephase`` applies it to the off-diagonal blocks of
one qubit of a labeled operator, for the process-matrix model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np


class LabelError(ValueError):
    """Raised for duplicate, unknown or inconsistent subsystem labels."""


def _canonical(labels, dims, array, axes_per_label):
    """Sort labels lexicographically and permute the array to match."""
    labels = tuple(labels)
    dims = tuple(int(d) for d in dims)
    if len(labels) != len(dims):
        raise LabelError(f"{len(labels)} labels but {len(dims)} dimensions")
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})
        raise LabelError(f"duplicate subsystem label(s): {dup}")
    for l, d in zip(labels, dims):
        if d < 1:
            raise ValueError(f"dimension of subsystem '{l}' must be >= 1, got {d}")
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    if order != list(range(len(labels))):
        n = len(labels)
        shape = tuple(dims) * axes_per_label
        perm = []
        for block in range(axes_per_label):
            perm.extend(block * n + i for i in order)
        array = array.reshape(shape).transpose(perm)
        labels = tuple(labels[i] for i in order)
        dims = tuple(dims[i] for i in order)
    total = prod(dims)
    if axes_per_label == 1:
        array = array.reshape(total)
    else:
        array = array.reshape(total, total)
    array = np.ascontiguousarray(array, dtype=complex)
    array.setflags(write=False)
    return labels, dims, array


@dataclass(frozen=True)
class LabeledVector:
    """Complex vector over a tensor product of named subsystems."""

    labels: tuple
    dims: tuple
    amplitudes: np.ndarray = field(repr=False)

    def __init__(self, labels, dims, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        expected = prod(int(d) for d in dims)
        if amplitudes.size != expected:
            raise ValueError(
                f"amplitude length {amplitudes.size} != product of dims {expected}"
            )
        labels, dims, amplitudes = _canonical(labels, dims, amplitudes, 1)
        if not np.all(np.isfinite(amplitudes.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)

    def outer(self):
        """|self><self| as a LabeledOperator."""
        ket = self.amplitudes
        return LabeledOperator(self.labels, self.dims, np.outer(ket, ket.conj()))


@dataclass(frozen=True)
class LabeledOperator:
    """Complex square matrix over a tensor product of named subsystems."""

    labels: tuple
    dims: tuple
    entries: np.ndarray = field(repr=False)

    def __init__(self, labels, dims, entries):
        entries = np.asarray(entries, dtype=complex)
        expected = prod(int(d) for d in dims)
        if entries.shape != (expected, expected):
            raise ValueError(
                f"entries shape {entries.shape} != ({expected}, {expected})"
            )
        labels, dims, entries = _canonical(labels, dims, entries, 2)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    def is_hermitian(self):
        return bool(np.abs(self.entries - self.entries.conj().T).max() < 1e-12)


def tensor(factors):
    """Kronecker product of LabeledVectors or LabeledOperators.

    Factors must have pairwise disjoint label sets.  The result is
    canonicalized, so factor order only matters through the labels.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor of no factors")
    labels = sum((f.labels for f in factors), ())
    dims = sum((f.dims for f in factors), ())
    if all(isinstance(f, LabeledVector) for f in factors):
        amp = factors[0].amplitudes
        for f in factors[1:]:
            amp = np.kron(amp, f.amplitudes)
        return LabeledVector(labels, dims, amp)
    if all(isinstance(f, LabeledOperator) for f in factors):
        ent = factors[0].entries
        for f in factors[1:]:
            ent = np.kron(ent, f.entries)
        return LabeledOperator(labels, dims, ent)
    raise TypeError("tensor factors must be all vectors or all operators")


def partial_trace(op: LabeledOperator, keep) -> LabeledOperator:
    """Trace out every subsystem not in ``keep``; preserves the total trace."""
    keep = set(keep)
    for l in keep:
        if l not in op.labels:
            raise LabelError(f"unknown subsystem label: {l!r}")
    if keep == set(op.labels):
        return op
    if not keep:
        raise LabelError("partial_trace must keep at least one subsystem")
    n = len(op.labels)
    arr = op.entries.reshape(op.dims * 2)
    keep_idx = [i for i in range(n) if op.labels[i] in keep]
    drop_idx = [i for i in range(n) if op.labels[i] not in keep]
    perm = (
        keep_idx
        + [n + i for i in keep_idx]
        + drop_idx
        + [n + i for i in drop_idx]
    )
    dk = prod(op.dims[i] for i in keep_idx)
    dd = prod(op.dims[i] for i in drop_idx)
    arr = arr.transpose(perm).reshape(dk, dk, dd, dd)
    out = np.einsum("ijkk->ij", arr)
    kept = [(op.labels[i], op.dims[i]) for i in keep_idx]
    return LabeledOperator(
        tuple(l for l, _ in kept), tuple(d for _, d in kept), out
    )


def choi_vector(kraus, label_in: str, label_out) -> LabeledVector:
    """|K>> = sum_i |i>_in (x) K|i>_out, the one Choi convention of the models.

    ``kraus`` is a (d_out, d_in) matrix for one output label, or, for a
    tuple of output labels, an array with one axis per output label and
    the input axis last.  The identity gives the link vector sum_i |ii>.
    """
    labels_out = (label_out,) if isinstance(label_out, str) else tuple(label_out)
    kraus = np.asarray(kraus)
    if kraus.ndim != len(labels_out) + 1:
        raise ValueError(f"Kraus array has {kraus.ndim} axes, expected "
                         f"{len(labels_out)} output axes and one input axis")
    amp = np.moveaxis(kraus, -1, 0)
    return LabeledVector((label_in,) + labels_out, amp.shape, amp.reshape(-1))


def coherence(d_value: float) -> float:
    """sqrt(1 - D^2): the coherence left between two paths whose which-path
    distinguishability is D in [0, 1]."""
    if not 0.0 <= d_value <= 1.0:
        raise ValueError(f"distinguishability must be in [0, 1], got {d_value}")
    return float(np.sqrt(1.0 - d_value**2))


def dephase(op: LabeledOperator, label: str, d_value: float) -> LabeledOperator:
    """Shrink the off-diagonal blocks of the qubit ``label`` by coherence(D).

    D = 0 returns ``op`` itself; D = 1 leaves the block-diagonal part.
    """
    f = coherence(d_value)
    if label not in op.labels:
        raise LabelError(f"unknown subsystem label: {label!r}")
    k = op.labels.index(label)
    if op.dims[k] != 2:
        raise LabelError(f"subsystem {label!r} has dimension {op.dims[k]}, not 2")
    if d_value == 0.0:
        return op
    n = len(op.labels)
    factor = np.full((2, 2), f)
    factor[0, 0] = factor[1, 1] = 1.0
    shape = [1] * (2 * n)
    shape[k] = shape[n + k] = 2
    arr = op.entries.reshape(op.dims * 2) * factor.reshape(shape)
    return LabeledOperator(op.labels, op.dims, arr.reshape(op.entries.shape))
