"""Dense complex linear algebra for multipartite finite-dimensional systems.

Matrices are plain ``numpy.ndarray`` objects with complex dtype, row-major
entries. Tensor-product structure is carried separately by
:class:`SystemLayout` so that operators never need wrapping. Target scale is
desk-sized: dense matrices up to a few thousand on a side, state vectors up
to a few million entries; no sparse or GPU paths. Arrays whose size grows
with the layout are checked against ``MEMORY_BUDGET_BYTES`` before they are
allocated. :class:`Record` is the base of the package's immutable records.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LayoutMismatchError,
    NotHermitianError,
    ProblemTooLargeError,
    UnknownLabelError,
)
from .tolerances import HERMITICITY_TOL

# Largest complex array a layout-sized allocation may take (256 MiB).
MEMORY_BUDGET_BYTES = 1 << 28


def check_finite(a: np.ndarray, what: str) -> None:
    """Refuse input with an infinite or NaN entry, naming the first one."""
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise ValueError(f"{what} entries must be finite: {bad[0]}")


def check_memory(n_entries: int, what: str) -> None:
    """Refuse, before allocating it, a complex array over the memory budget."""
    nbytes = 16 * int(n_entries)
    if nbytes > MEMORY_BUDGET_BYTES:
        raise ProblemTooLargeError(
            f"{what} needs {nbytes} bytes, over the budget of "
            f"{MEMORY_BUDGET_BYTES} bytes"
        )


class Record:
    """Immutable record whose fields are its class annotations, in order.

    The record contract: ``__init__`` binds each field once with ``_bind``,
    a writable array as a read-only view of it, no field can be rebound or
    deleted, a record is equal only to itself and hashes by identity unless
    it is a :class:`Value`, and ``repr`` lists the fields in order. A record
    whose checks ``bench/trace.py`` times keeps them in its ``__post_init__``.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _bind(self, *values: object) -> None:
        for field, value in zip(self._fields, values, strict=True):
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value = value.view()
                value.flags.writeable = False
            vars(self)[field] = value

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot rebind or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A record that holds no array: equal to a record of its class whose
    fields are equal, and hashed by its fields."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class SystemLayout(Value):
    """Ordered tensor factorization of a composite Hilbert space.

    ``dims[k]`` is the dimension of factor ``k`` and ``labels[k]`` its unique
    name. Basis indices are row-major over the factors in this order.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, dims, labels) -> None:
        dims, labels = tuple(int(d) for d in dims), tuple(str(s) for s in labels)
        if len(dims) != len(labels):
            raise LayoutMismatchError(f"{len(dims)} dims but {len(labels)} labels")
        if not dims:
            raise LayoutMismatchError("layout needs at least one factor")
        if any(d < 1 for d in dims):
            raise LayoutMismatchError(f"factor dimensions must be >= 1: {dims}")
        if len(set(labels)) != len(labels):
            raise LayoutMismatchError(f"duplicate factor labels: {labels}")
        self._bind(dims, labels)

    @classmethod
    def qubits(cls, labels: Sequence[str]) -> "SystemLayout":
        return cls((2,) * len(labels), tuple(labels))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"label {label!r} not in layout {self.labels}"
            ) from None

    def positions(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Positions of ``labels``, sorted into layout order; a label named
        more than once is refused."""
        pos = sorted(self.position(s) for s in labels)
        for p, q in zip(pos, pos[1:]):
            if p == q:
                raise LayoutMismatchError(
                    f"label {self.labels[p]!r} named more than once"
                )
        return tuple(pos)

    def sublayout(self, labels: Iterable[str]) -> "SystemLayout":
        """Layout of the named factors, kept in this layout's order."""
        pos = self.positions(labels)
        if not pos:
            raise UnknownLabelError("sublayout needs at least one label")
        return SystemLayout(
            tuple(self.dims[p] for p in pos), tuple(self.labels[p] for p in pos)
        )


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of operators, left to right."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def apply_local(
    op: np.ndarray, tensor: np.ndarray, axes: Sequence[int], right: bool = False
) -> np.ndarray:
    """Contract a factor-local operator into a tensor along ``axes``.

    ``tensor`` has one axis per tensor factor (a state vector reshaped to the
    layout's dims, a density matrix to dims twice, or basis columns with a
    trailing column axis). ``op`` acts on the factors at ``axes``, listed in
    the operator's own factor order, and leaves the other axes alone, as
    ``op`` kron identity would after a factor permutation. By default ``op``
    multiplies from the left (``op @ x`` on those axes); ``right=True``
    multiplies from the right (``x @ op``), which is how ``K^dag`` acts on
    the column axes of a density matrix.
    """
    axes = tuple(axes)
    k = len(axes)
    dims = tuple(tensor.shape[a] for a in axes)
    op = np.asarray(op).reshape(dims * 2)
    if right:
        out = np.tensordot(tensor, op, axes=(axes, tuple(range(k))))
        return np.moveaxis(out, tuple(range(tensor.ndim - k, tensor.ndim)), axes)
    out = np.tensordot(op, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector's global phase to a canonical representative.

    ``v`` is one vector ``(d,)`` or a stack of column vectors ``(..., d, n)``.
    In each vector the component of largest magnitude (lowest index on ties)
    is made real and positive. Vectors equal up to phase map to the same
    output; a zero vector is returned as it is.
    """
    v = np.asarray(v, dtype=complex)
    cols = v[:, None] if v.ndim == 1 else v
    k = np.argmax(np.abs(cols), axis=-2)[..., None, :]
    a = np.take_along_axis(cols, k, axis=-2)
    # hypot rounds as Python's abs of a complex scalar does; np.abs need not
    zero = a == 0
    out = np.where(zero, cols, cols * (np.hypot(a.real, a.imag) / np.where(zero, 1, a)))
    return out[:, 0] if v.ndim == 1 else out


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    The input must be Hermitian within ``HERMITICITY_TOL`` (max absolute
    deviation); it is symmetrized to (H + H†)/2 before decomposition so
    round-off asymmetry cannot leak into the result. Eigenvalues come back in
    descending order, exact ties broken by descending lexicographic order of
    the phase-canonicalized eigenvectors (this keeps identity-basis order for
    diagonal inputs). Eigenvector columns are phase-canonicalized.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as columns.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    dev = np.abs(h - h.conj().T).max()
    if not dev <= HERMITICITY_TOL:
        raise NotHermitianError(
            f"max |H - H^dag| = {dev:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}"
        )
    return _ordered_eig(h)


def _ordered_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eig`` without its Hermiticity check, for checked inputs.

    ``h`` may be a stack ``(..., d, d)``, decomposed by one ``eigh`` call.
    """
    w, v = np.linalg.eigh(0.5 * (h + np.swapaxes(h.conj(), -1, -2)))
    # eigh sorts ascending; exact ties are then ordered by their vectors
    w, v = w[..., ::-1].copy(), canonical_phase(v[..., ::-1])
    for idx in map(tuple, np.argwhere((w[..., 1:] == w[..., :-1]).any(axis=-1))):
        # descending by eigenvalue, then by (re, im) of entry 0, entry 1, ...
        parts = np.stack((v[idx].real, v[idx].imag), axis=1).reshape(-1, w.shape[-1])
        v[idx] = v[idx][:, np.lexsort(np.vstack((parts[::-1], w[idx])))[::-1]]
    return w, v


def partial_trace(
    rho: np.ndarray, layout: SystemLayout, keep: Iterable[str]
) -> np.ndarray:
    """Trace out every factor not named in ``keep``.

    The result's factors follow the parent layout order of the kept labels
    (use ``layout.sublayout(keep)`` for the matching layout). The trace of the
    input is preserved exactly up to round-off.
    """
    rho = np.asarray(rho, dtype=complex)
    d = layout.total_dim
    if rho.shape != (d, d):
        raise LayoutMismatchError(
            f"matrix shape {rho.shape} does not match layout dimension {d}"
        )
    keep_pos = layout.positions(keep)
    if not keep_pos:
        raise UnknownLabelError("keep must name at least one factor")
    n = layout.n_factors
    keep_set = set(keep_pos)
    rho_t = rho.reshape(layout.dims * 2)
    row_idx = list(range(n))
    col_idx = [i if i not in keep_set else n + i for i in range(n)]
    out_idx = [i for i in keep_pos] + [n + i for i in keep_pos]
    return np.einsum(rho_t, row_idx + col_idx, out_idx).reshape(
        int(np.prod([layout.dims[p] for p in keep_pos])), -1
    )
