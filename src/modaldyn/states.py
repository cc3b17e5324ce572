"""Density matrices and their spectral reading as weighted pure states.

A density matrix is decomposed into its eigenbasis and read as an epistemic
state: each retained eigenvector is a candidate pure state of the system (an
"ontic state") and its eigenvalue is the probability that the system actually
occupies that state. The decomposition is unique exactly when the spectrum is
nondegenerate, so degenerate eigenvalue clusters are detected and carried as
explicit flags for downstream policy (refuse or answer-with-annotation).

A pure state of a large layout is carried as its vector (:class:`PureState`)
rather than as a dense matrix; its reductions are formed from the Schmidt
form of the vector and are ordinary validated density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NonOrthogonalEntriesError,
)
from .linalg import DEGENERACY_GAP, HERMITICITY_TOL, SystemLayout, check_memory

# Validation tolerances for the value types below.
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-9
MASS_BALANCE_TOL = 1e-9

DEFAULT_THRESHOLD = 1e-12
PURITY_SHORTCUT = 1e-10


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex vector by numpy's pairwise sum.

    A BLAS dot product over a million amplitudes can miss the norm by 1e-12,
    as much as the unit-norm tolerance, and renormalizing with it at every
    step of a schedule would build the error up.
    """
    parts = v.view(float)
    return float(np.sqrt(np.sum(parts * parts)))


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _density_fault(
    mats: np.ndarray, w: Optional[np.ndarray] = None
) -> Optional[tuple[int, str]]:
    """The first of a stack of matrices ``(n, d, d)`` that is no density matrix.

    Hermiticity and trace within 1e-10, then a minimum eigenvalue >= -1e-10,
    are checked; the result is ``(index, why)`` or ``None``. ``w`` holds the
    eigenvalues of the symmetrized matrices. Without it the stack holds one
    matrix, whose eigenvalues are computed once it passes the first checks.
    """
    herm = np.abs(mats - np.swapaxes(mats.conj(), 1, 2)).max(axis=(1, 2))
    tr = np.trace(mats, axis1=1, axis2=2)
    # negated so that NaN fails too
    bad = ~((herm <= HERMITICITY_TOL) & (np.abs(tr - 1.0) <= TRACE_TOL))
    if w is None:
        sym = 0.5 * (mats + np.swapaxes(mats.conj(), 1, 2))
        w = np.zeros((1, 1)) if bad[0] else np.linalg.eigvalsh(sym)
    wmin = w.min(axis=1)
    bad |= ~(wmin >= -PSD_TOL)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if not herm[k] <= HERMITICITY_TOL:
        return k, f"not Hermitian: max |rho - rho^dag| = {herm[k]:.3e}"
    if not abs(tr[k] - 1.0) <= TRACE_TOL:
        return k, (
            f"trace {tr[k].real:.15g}{tr[k].imag:+.3g}i is not 1 within {TRACE_TOL:.1e}"
        )
    return k, f"minimum eigenvalue {wmin[k]:.3e} below -{PSD_TOL:.1e}"


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with a layout.

    Validation runs at construction: Hermiticity and trace within 1e-10,
    minimum eigenvalue >= -1e-10. Instances are immutable.
    """

    matrix: np.ndarray
    layout: SystemLayout

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise InvalidDensityMatrixError(
                f"shape {mat.shape} does not match layout dimension {d}"
            )
        fault = _density_fault(mat[None])
        if fault is not None:
            raise InvalidDensityMatrixError(fault[1])
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def reduce(self, keep: Sequence[str]) -> "DensityMatrix":
        """Reduced density matrix of the named factors."""
        sub = linalg.partial_trace(self.matrix, self.layout, keep)
        return DensityMatrix(sub, self.layout.sublayout(keep))

    @classmethod
    def from_vector(cls, vec: np.ndarray, layout: SystemLayout) -> "DensityMatrix":
        v = PureState(vec, layout).vector
        check_memory(v.size * v.size, "the density matrix of a state vector")
        return cls(np.outer(v, v.conj()), layout)


@dataclass(frozen=True)
class PureState:
    """Pure state carried as its unit vector over a layout.

    Construction normalizes the vector and rejects a zero or non-finite
    one. A dense ``d x d`` matrix of the whole layout is formed only when
    asked for: ``reduce`` over every factor, or a channel with several Kraus
    operators in ``channels.apply``, which turns the state into its density
    matrix. A single-operator channel acts on the vector itself;
    ``extract_epistemic`` reads it as one entry of probability one.
    Instances are immutable.
    """

    vector: np.ndarray
    layout: SystemLayout

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.vector, dtype=complex).reshape(-1)
        d = self.layout.total_dim
        if v.shape[0] != d:
            raise InvalidDensityMatrixError(
                f"vector length {v.shape[0]} does not match layout dimension {d}"
            )
        norm = _norm(v)
        if not 0.0 < norm < np.inf:
            raise InvalidDensityMatrixError(f"a vector of norm {norm} has no state")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def reduce(self, keep: Sequence[str]) -> DensityMatrix:
        """Reduced density matrix of the named factors, ``M M^dag``.

        ``M`` is the amplitude tensor with the kept axes moved first (in
        layout order) and reshaped to ``(d_keep, -1)``: the Schmidt form of
        the vector across the cut.
        """
        sub = self.layout.sublayout(keep)
        d_keep = sub.total_dim
        check_memory(d_keep * d_keep, f"the reduced density matrix of {sub.labels}")
        pos = self.layout.positions(keep)
        m = np.moveaxis(
            self.vector.reshape(self.layout.dims), pos, tuple(range(len(pos)))
        ).reshape(d_keep, -1)
        return DensityMatrix(m @ m.conj().T, sub)


State = Union[DensityMatrix, PureState]


@dataclass(frozen=True)
class OnticState:
    """A candidate pure state: unit vector with canonical global phase."""

    vector: np.ndarray
    layout: SystemLayout
    index: int

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.layout.total_dim:
            raise DimensionMismatchError(
                f"vector length {v.shape[0]} does not match layout "
                f"dimension {self.layout.total_dim}"
            )
        norm = _norm(v)
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise InvalidDensityMatrixError(
                f"ontic state norm {norm} is not 1 within {UNIT_NORM_TOL:.1e}"
            )
        object.__setattr__(self, "vector", _frozen_array(linalg.canonical_phase(v)))

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True)
class EpistemicState:
    """Ordered spectral entries ``(probability, OnticState)`` of one system.

    ``truncation_mass`` is the total eigenvalue mass dropped below the
    extraction threshold; retained probabilities plus the truncation mass sum
    to one. ``degenerate_clusters`` lists index groups whose eigenvalues are
    closer than the degeneracy gap; such entries have no preferred individual
    eigenvectors and queries against them are policy-dependent.
    """

    entries: tuple[tuple[float, OnticState], ...]
    degenerate_clusters: tuple[tuple[int, ...], ...] = ()
    truncation_mass: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            tuple((float(p), s) for p, s in self.entries),
        )
        object.__setattr__(
            self,
            "degenerate_clusters",
            tuple(tuple(int(i) for i in c) for c in self.degenerate_clusters),
        )
        if not self.entries:
            raise InvalidDensityMatrixError("epistemic state needs at least one entry")
        total = sum(p for p, _ in self.entries) + self.truncation_mass
        if not abs(total - 1.0) <= MASS_BALANCE_TOL:
            raise InvalidDensityMatrixError(
                f"probabilities plus truncation mass sum to {total}, not 1"
            )
        flagged = [i for c in self.degenerate_clusters for i in c]
        if any(i < 0 or i >= len(self.entries) for i in flagged):
            raise IndexError("degenerate cluster index out of range")
        basis = self.basis_matrix()
        gram = basis.conj().T @ basis
        if not np.abs(gram - np.eye(gram.shape[0])).max() <= ORTHOGONALITY_TOL:
            raise NonOrthogonalEntriesError(
                "retained ontic states are not mutually orthonormal"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[float, OnticState]]:
        return iter(self.entries)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.entries])

    def basis_matrix(self) -> np.ndarray:
        """Retained eigenvectors as columns."""
        return np.column_stack([s.vector for _, s in self.entries])

    def is_degenerate(self, index: int) -> bool:
        return any(index in c for c in self.degenerate_clusters)

    @property
    def layout(self) -> SystemLayout:
        return self.entries[0][1].layout


def extract_epistemic(
    rho: State, threshold: float = DEFAULT_THRESHOLD
) -> EpistemicState:
    """Spectrally decompose a density matrix into an epistemic state.

    Eigenvalues below ``threshold`` are dropped into ``truncation_mass``.
    A nearly pure input (purity within 1e-10 of one) short-circuits to a
    single entry with probability exactly one; a ``PureState`` is that
    entry, its own vector with canonical phase. Eigenvalues closer than 1e-9
    are grouped into degenerate clusters and flagged, never resolved here.
    """
    if not isinstance(rho, (DensityMatrix, PureState)):
        raise InvalidDensityMatrixError(
            "extract_epistemic expects a DensityMatrix or a PureState"
        )
    if isinstance(rho, PureState):
        _check_threshold(threshold)
        return EpistemicState(entries=((1.0, OnticState(rho.vector, rho.layout, 0)),))
    # Hermiticity was checked when the DensityMatrix was built
    w, v = linalg._ordered_eig(rho.matrix)
    probs, counts, close = _read_spectra(rho.matrix[None], w[None], threshold)
    n = int(counts[0])
    entries = tuple(
        (float(probs[0, i]), OnticState(v[:, i], rho.layout, i)) for i in range(n)
    )
    return EpistemicState(
        entries=entries,
        degenerate_clusters=_degenerate_clusters(close[0]),
        truncation_mass=float(probs[0, n:].sum()),
    )


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1): {threshold}")


def _read_spectra(
    mats: np.ndarray,
    w: np.ndarray,
    threshold: float,
    refuse_degenerate: bool = False,
    where: Optional[Callable[[int], str]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The epistemic reading of density matrices ``(n, d, d)`` from their spectra.

    ``w`` holds their eigenvalues, descending. Returns ``(probs, counts,
    close)``: ``probs`` is ``w`` with a nearly pure spectrum read as
    ``(1, 0, ..)``; ``counts`` are the kept prefix lengths; ``close[:, j]``
    marks kept eigenvalues ``j`` and ``j + 1`` closer than ``DEGENERACY_GAP``.
    The first matrix that keeps no eigenvalue, or with ``refuse_degenerate``
    has close ones, is refused; ``where(k)`` names matrix ``k``, and must be
    given with ``refuse_degenerate``.
    """
    _check_threshold(threshold)
    d = w.shape[1]
    pure = np.real(np.trace(mats @ mats, axis1=1, axis2=2)) > 1.0 - PURITY_SHORTCUT
    counts = np.where(pure, 1, (w >= threshold).sum(axis=1))
    probs = np.where(pure[:, None], np.arange(d) == 0, w)
    close = np.abs(np.diff(w, axis=1)) < DEGENERACY_GAP
    close &= np.arange(1, d) < counts[:, None]
    empty = counts == 0
    faults = (empty | close.any(axis=1)) if refuse_degenerate else empty
    if faults.any():
        k = int(np.argmax(faults))
        if empty[k]:
            why = "no eigenvalue above threshold; not a usable state"
            raise InvalidDensityMatrixError(f"{where(k)}: {why}" if where else why)
        raise DegenerateBasisError(
            f"degenerate spectrum at {where(k)}; "
            f"clusters {_degenerate_clusters(close[k])}"
        )
    return probs, counts, close


def _degenerate_clusters(close: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Index groups of eigenvalues chained by close neighbours.

    ``close[j]`` marks eigenvalues ``j`` and ``j + 1`` as closer than
    ``DEGENERACY_GAP``; each run of marks joins its eigenvalues into a group.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close, [0])).astype(int)))
    return tuple(tuple(range(a, b + 1)) for a, b in zip(edges[::2], edges[1::2]))


def epistemic_to_density(e: EpistemicState) -> DensityMatrix:
    """Reassemble the density matrix of an epistemic state.

    Entries must be orthonormal (checked at EpistemicState construction) and
    the truncation mass small; the missing mass is restored by renormalizing
    the trace.
    """
    if e.truncation_mass >= 1e-6:
        raise ValueError(
            f"truncation mass {e.truncation_mass:.3e} too large to reassemble"
        )
    basis = e.basis_matrix()
    mat = (basis * e.probabilities) @ basis.conj().T
    mat = mat / np.real(np.trace(mat))
    return DensityMatrix(mat, e.layout)
