"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

Every vector and operator carries an ordered list of subsystem labels with
per-label dimensions.  Labels are canonicalized to lexicographic order at
construction time, so two objects over the same subsystems always agree on
index layout.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

HERM_TOL = 1e-10  # absolute tolerance for hermiticity / positivity checks


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

    @property
    def dim(self):
        return self.amplitudes.size

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return LabeledVector(self.labels, self.dims, self.amplitudes / n)

    def overlap(self, other):
        """<self|other>; label sets must match."""
        if self.labels != other.labels or self.dims != other.dims:
            raise LabelError("overlap requires identical subsystems")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def outer(self, other=None):
        """|self><other| as a LabeledOperator (other defaults to self)."""
        ket = self.amplitudes
        bra = (self if other is None else other).amplitudes
        return LabeledOperator(self.labels, self.dims, np.outer(ket, bra.conj()))


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
        object.__setattr__(self, "_hermitian", None)

    @property
    def dim(self):
        return self.entries.shape[0]

    def is_hermitian(self):
        cached = object.__getattribute__(self, "_hermitian")
        if cached is None:
            cached = bool(
                np.abs(self.entries - self.entries.conj().T).max() < 1e-12
            )
            object.__setattr__(self, "_hermitian", cached)
        return cached

    def trace(self):
        return complex(np.trace(self.entries))

    def apply(self, vec: LabeledVector) -> LabeledVector:
        if self.labels != vec.labels or self.dims != vec.dims:
            raise LabelError("operator and vector subsystems differ")
        return LabeledVector(self.labels, self.dims, self.entries @ vec.amplitudes)

    def __matmul__(self, other):
        if isinstance(other, LabeledVector):
            return self.apply(other)
        if self.labels != other.labels or self.dims != other.dims:
            raise LabelError("operator subsystems differ")
        return LabeledOperator(self.labels, self.dims, self.entries @ other.entries)

    def __add__(self, other):
        if self.labels != other.labels or self.dims != other.dims:
            raise LabelError("operator subsystems differ")
        return LabeledOperator(self.labels, self.dims, self.entries + other.entries)

    def __sub__(self, other):
        if self.labels != other.labels or self.dims != other.dims:
            raise LabelError("operator subsystems differ")
        return LabeledOperator(self.labels, self.dims, self.entries - other.entries)

    def __mul__(self, scalar):
        return LabeledOperator(self.labels, self.dims, self.entries * scalar)

    __rmul__ = __mul__

    def expectation(self, state) -> complex:
        """<psi|O|psi> for a vector or Tr(O rho) for an operator state."""
        if isinstance(state, LabeledVector):
            if self.labels != state.labels:
                raise LabelError("operator and state subsystems differ")
            return complex(
                np.vdot(state.amplitudes, self.entries @ state.amplitudes)
            )
        if self.labels != state.labels:
            raise LabelError("operator and state subsystems differ")
        return complex(np.trace(self.entries @ state.entries))

    def embed(self, labels, dims) -> "LabeledOperator":
        """Pad with identities so the operator acts on the larger label set."""
        labels = tuple(labels)
        dims = tuple(int(d) for d in dims)
        missing = [
            (l, d) for l, d in zip(labels, dims) if l not in self.labels
        ]
        for l in self.labels:
            if l not in labels:
                raise LabelError(f"embedding target misses label {l!r}")
        if not missing:
            return self
        pads = [identity([l], [d]) for l, d in missing]
        return tensor([self] + pads)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2)[0])

    def is_psd(self, tol=HERM_TOL) -> bool:
        return self.is_hermitian() and self.min_eigenvalue() > -tol


def identity(labels, dims) -> LabeledOperator:
    return LabeledOperator(labels, dims, np.eye(prod(dims)))


def tensor(factors):
    """Kronecker product of LabeledVectors or LabeledOperators.

    Factors must have pairwise disjoint label sets.  The result is
    canonicalized, so factor order only matters through the labels.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor of no factors")
    seen = {}
    for f in factors:
        for l in f.labels:
            if l in seen:
                raise LabelError(f"duplicate subsystem label: {l!r}")
            seen[l] = True
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


def link_vector(dim: int, label_in: str, label_out: str) -> LabeledVector:
    """Unnormalized identity-channel vector sum_i |ii> over two same-dim labels."""
    if dim < 1:
        raise ValueError(f"link_vector dimension must be >= 1, got {dim}")
    amp = np.eye(dim).reshape(dim * dim)
    return LabeledVector((label_in, label_out), (dim, dim), amp)
