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
from typing import Iterator, Sequence, Union

import numpy as np

from . import linalg
from .errors import (
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
        herm = np.abs(mat - mat.conj().T).max()
        if not herm <= HERMITICITY_TOL:
            raise InvalidDensityMatrixError(
                f"not Hermitian: max |rho - rho^dag| = {herm:.3e}"
            )
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvalidDensityMatrixError(
                f"trace {tr.real:.15g}{tr.imag:+.3g}i is not 1 within {TRACE_TOL:.1e}"
            )
        wmin = float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min())
        if not wmin >= -PSD_TOL:
            raise InvalidDensityMatrixError(
                f"minimum eigenvalue {wmin:.3e} below -{PSD_TOL:.1e}"
            )
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
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1): {threshold}")
    if isinstance(rho, PureState):
        return EpistemicState(entries=((1.0, OnticState(rho.vector, rho.layout, 0)),))
    # Hermiticity was checked when the DensityMatrix was built
    w, v = linalg._ordered_eig(rho.matrix)
    layout = rho.layout
    if rho.purity() > 1.0 - PURITY_SHORTCUT:
        state = OnticState(v[:, 0], layout, 0)
        return EpistemicState(entries=((1.0, state),))
    keep = w >= threshold
    truncation = float(w[~keep].sum())
    w_kept = w[keep]
    v_kept = v[:, keep]
    if w_kept.size == 0:
        raise InvalidDensityMatrixError(
            "no eigenvalue above threshold; not a usable state"
        )
    entries = tuple(
        (float(w_kept[i]), OnticState(v_kept[:, i], layout, i))
        for i in range(w_kept.size)
    )
    clusters = _degenerate_clusters(w_kept)
    return EpistemicState(
        entries=entries, degenerate_clusters=clusters, truncation_mass=truncation
    )


def _degenerate_clusters(w_desc: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Group adjacent eigenvalues with gaps below DEGENERACY_GAP (chained)."""
    clusters: list[tuple[int, ...]] = []
    i = 0
    n = len(w_desc)
    while i < n:
        j = i
        while j + 1 < n and abs(w_desc[j] - w_desc[j + 1]) < DEGENERACY_GAP:
            j += 1
        if j > i:
            clusters.append(tuple(range(i, j + 1)))
        i = j + 1
    return tuple(clusters)


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
