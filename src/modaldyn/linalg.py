"""Dense complex linear algebra for multipartite finite-dimensional systems.

Matrices are plain ``numpy.ndarray`` objects with complex dtype, row-major
entries. Tensor-product structure is carried separately by
:class:`SystemLayout` so that operators never need wrapping. Target scale is
desk-sized: dense matrices up to a few thousand on a side, state vectors up
to a few million entries; no sparse or GPU paths. Arrays whose size grows
with the layout are checked against ``MEMORY_BUDGET_BYTES`` before they are
allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SystemLayout:
    """Ordered tensor factorization of a composite Hilbert space.

    ``dims[k]`` is the dimension of factor ``k`` and ``labels[k]`` its unique
    name. Basis indices are row-major over the factors in this order.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.dims) != len(self.labels):
            raise LayoutMismatchError(
                f"{len(self.dims)} dims but {len(self.labels)} labels"
            )
        if not self.dims:
            raise LayoutMismatchError("layout needs at least one factor")
        if any(d < 1 for d in self.dims):
            raise LayoutMismatchError(f"factor dimensions must be >= 1: {self.dims}")
        if len(set(self.labels)) != len(self.labels):
            raise LayoutMismatchError(f"duplicate factor labels: {self.labels}")

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
    the column axes of a density matrix. When the axes are the tensor's
    leading (left) or trailing (right) axes in order, the contraction is one
    plain matrix product: an operator on every factor then costs and rounds
    exactly as ``K @ rho @ K^dag`` does, which the many small steps of a
    trajectory chain rely on.
    """
    axes = tuple(axes)
    k = len(axes)
    shape = tensor.shape
    dims = tuple(shape[a] for a in axes)
    size = math.prod(dims)
    if not right and axes == tuple(range(k)):
        return (op @ tensor.reshape(size, -1)).reshape(shape)
    if right and axes == tuple(range(tensor.ndim - k, tensor.ndim)):
        return (tensor.reshape(-1, size) @ op).reshape(shape)
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


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the numerator
# coefficients b_0..b_m of each diagonal Pade degree m, and theta_m, the
# largest 1-norm at which that degree keeps the backward error below 2^-53.
_PADE = {
    3: (120, 60, 12, 1),
    5: (30240, 15120, 3360, 420, 30, 1),
    7: (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1),
    9: (
        17643225600, 8821612800, 2075673600, 302702400, 30270240,
        2162160, 110880, 3960, 90, 1,
    ),
    13: (
        64764752532480000, 32382376266240000, 7771770303897600,
        1187353796428800, 129060195264000, 10559470521600, 670442572800,
        33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
    ),
}
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    Higham's method (SIAM J. Matrix Anal. Appl. 26, 1179, 2005): the lowest
    of the degrees 3, 5, 7, 9 whose theta bounds the exact 1-norm of ``a``,
    else degree 13 on ``a / 2^s`` followed by s squarings. The Pade quotient
    is one ``np.linalg.solve``. A diagonal ``a`` is exponentiated entry by
    entry, and a triangular one has its diagonal set to the exact
    exponentials before and after each squaring (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970, 2009, Code Fragment 2.1, less its
    superdiagonal update): without that, an eigenvalue 1, which a
    generator's map has, would drift by s doublings of round-off. No norm is
    estimated and nothing is drawn at random, so equal inputs give equal
    outputs; ``expm(0)`` is the identity exactly. A non-diagonal ``a`` with
    a non-finite 1-norm raises ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    upper, lower = not np.tril(a, -1).any(), not np.triu(a, 1).any()
    if upper and lower:
        return np.diag(np.exp(np.diag(a)))
    norm = float(np.abs(a).sum(axis=0).max())
    if not norm < math.inf:
        raise ValueError(f"expm needs finite entries; the 1-norm is {norm}")
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    # a / 2^s has a 1-norm of at most theta_13
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    if s:
        a = a * 2.0**-s
    b = _PADE[m]
    powers = [a @ a]
    while len(powers) < (3 if m == 13 else m // 2):
        powers.append(powers[-1] @ powers[0])
    if m == 13:
        a2, a4, a6 = powers
        odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        odd += b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        v += b[6] * a6 + b[4] * a4 + b[2] * a2
        del a2, a4, a6
    else:
        odd = sum(b[2 * k + 1] * p for k, p in enumerate(powers, 1))
        v = sum(b[2 * k] * p for k, p in enumerate(powers, 1))
    # the powers go before the quotient is formed, which keeps evolve's
    # peak within its nine d^2 x d^2 arrays
    del powers
    odd.flat[:: n + 1] += b[1]
    v.flat[:: n + 1] += b[0]
    u = a @ odd
    del odd
    x = np.linalg.solve(v - u, v + u)
    exact_diagonal = s and (upper or lower)
    for k in range(s, -1, -1):
        if exact_diagonal:
            # diag(a) is scaled by 2^-s already
            x.flat[:: n + 1] = np.exp(np.diag(a) * 2.0 ** (s - k))
        if k:
            x = x @ x
    return x


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
