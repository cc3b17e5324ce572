"""Density matrices and their spectral reading as weighted pure states.

A density matrix is decomposed into its eigenbasis and read as an epistemic
state: each retained eigenvector is a candidate pure state of the system (an
"ontic state") and its eigenvalue is the probability that the system actually
occupies that state; :class:`EpistemicState` keeps both as arrays. The
decomposition is unique exactly when the spectrum is nondegenerate, so
degenerate eigenvalue clusters are flagged, and refused in strict mode. The
reading rules that tables, queries, chains and the CLI share live here: one
reader of spectra (``_read_spectra``), which checks a matrix that no record
holds (a block, a chain's grid state) on the decomposition that reads it, as a
``DensityMatrix`` is checked once, when built; a block's reading
(``extract_block``); the threshold's range, checked where a reading starts;
``_refuse_degeneracy``; the conditional kernel of tables, queries and chain
rows (``_conditional_kernel``) and the bound on its result.

A pure state of a large layout is carried as its vector (:class:`PureState`)
rather than as a dense matrix, and reduced through its Schmidt form.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import linalg
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NonOrthogonalEntriesError,
    ProbabilityBoundsError,
)
from .linalg import Record, SystemLayout, check_memory
from .tolerances import (
    CLAMP_TOL,
    DEFAULT_THRESHOLD,
    DEGENERACY_GAP,
    HERMITICITY_TOL,
    MASS_BALANCE_TOL,
    ORTHOGONALITY_TOL,
    PSD_TOL,
    PURITY_SHORTCUT,
    REASSEMBLY_MASS_TOL,
    TRACE_TOL,
    UNIT_NORM_TOL,
)

# Degeneracy policies of the spectral readings built on these states.
STRICT = "strict"
PERMISSIVE = "permissive"


def _check_mode(mode: str) -> str:
    if mode not in (STRICT, PERMISSIVE):
        raise ValueError(f"mode must be 'strict' or 'permissive': {mode!r}")
    return mode


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex vector by numpy's pairwise sum.

    A BLAS dot product over a million amplitudes can miss the norm by 1e-12,
    as much as the unit-norm tolerance, and renormalizing with it at every
    step of a schedule would build the error up.
    """
    parts = v.view(float)
    return float(np.sqrt(np.sum(parts * parts)))


def _density_fault(
    mats: np.ndarray, w: Optional[np.ndarray] = None
) -> Optional[tuple[int, str]]:
    """The first of a stack of matrices ``(n, d, d)`` that is no density matrix.

    Hermiticity within ``HERMITICITY_TOL`` and trace within ``TRACE_TOL``,
    then a minimum eigenvalue >= ``-PSD_TOL``, are checked; the result is
    ``(index, why)`` or ``None``. ``w`` holds the eigenvalues of the
    symmetrized matrices. Without it the stack holds one matrix, whose
    eigenvalues are computed once it passes the first checks.
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


class DensityMatrix(Record):
    """Hermitian, unit-trace, positive-semidefinite operator with a layout.

    Validation runs at construction, and not again when the record is read:
    Hermiticity within ``HERMITICITY_TOL``, trace within ``TRACE_TOL``,
    minimum eigenvalue >= ``-PSD_TOL``. Instances are immutable.
    """

    matrix: np.ndarray
    layout: SystemLayout

    def __init__(self, matrix, layout) -> None:
        self.__post_init__(matrix, layout)

    def __post_init__(self, matrix, layout) -> None:
        mat = np.array(matrix, dtype=complex)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise InvalidDensityMatrixError(
                f"shape {mat.shape} does not match layout dimension {d}"
            )
        fault = _density_fault(mat[None])
        if fault is not None:
            raise InvalidDensityMatrixError(fault[1])
        self._bind(mat, layout)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def reduce(self, keep: Sequence[str]) -> "DensityMatrix":
        """Reduced density matrix of the named factors."""
        return DensityMatrix(*self._reduced(keep))

    def _reduced(self, keep: Sequence[str]) -> tuple[np.ndarray, SystemLayout]:
        sub = linalg.partial_trace(self.matrix, self.layout, keep)
        return sub, self.layout.sublayout(keep)

    @classmethod
    def from_vector(cls, vec: np.ndarray, layout: SystemLayout) -> "DensityMatrix":
        v = PureState(vec, layout).vector
        check_memory(v.size * v.size, "the density matrix of a state vector")
        return cls(np.outer(v, v.conj()), layout)


class PureState(Record):
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

    def __init__(self, vector, layout) -> None:
        v = np.ascontiguousarray(vector, dtype=complex).reshape(-1)
        d = layout.total_dim
        if v.shape[0] != d:
            raise InvalidDensityMatrixError(
                f"vector length {v.shape[0]} does not match layout dimension {d}"
            )
        norm = _norm(v)
        if not 0.0 < norm < np.inf:
            raise InvalidDensityMatrixError(f"a vector of norm {norm} has no state")
        self._bind(v / norm, layout)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def reduce(self, keep: Sequence[str]) -> DensityMatrix:
        """Reduced density matrix of the named factors, ``M M^dag``.

        ``M`` is the amplitude tensor with the kept axes moved first (in
        layout order) and reshaped to ``(d_keep, -1)``: the Schmidt form of
        the vector across the cut.
        """
        return DensityMatrix(*self._reduced(keep))

    def _reduced(self, keep: Sequence[str]) -> tuple[np.ndarray, SystemLayout]:
        sub = self.layout.sublayout(keep)
        d_keep = sub.total_dim
        check_memory(d_keep * d_keep, f"the reduced density matrix of {sub.labels}")
        pos = self.layout.positions(keep)
        m = np.moveaxis(
            self.vector.reshape(self.layout.dims), pos, tuple(range(len(pos)))
        ).reshape(d_keep, -1)
        return m @ m.conj().T, sub


State = Union[DensityMatrix, PureState]


class EpistemicState(Record):
    """The spectral reading of one system: ontic candidates and their probabilities.

    ``vectors[:, i]`` is retained eigenvector ``i`` of the density matrix, a
    candidate ontic state (unit norm, canonical global phase), and
    ``probabilities[i]`` is its eigenvalue, the probability (in [0, 1]) that
    the system occupies that state; entries are in descending order. Both
    arrays are read-only. ``truncation_mass`` is the total eigenvalue mass
    dropped below the extraction threshold; retained probabilities plus the
    truncation mass sum to one, and it is at least ``-(d - n) * PSD_TOL -
    MASS_BALANCE_TOL``, as a density matrix's eigenvalues are each at least
    ``-PSD_TOL``. ``degenerate_clusters`` lists index groups whose
    eigenvalues are closer than the degeneracy gap; such entries have no
    preferred individual eigenvectors and queries against them are
    policy-dependent.
    """

    probabilities: np.ndarray
    vectors: np.ndarray
    layout: SystemLayout
    degenerate_clusters: tuple[tuple[int, ...], ...]
    truncation_mass: float

    def __init__(
        self, probabilities, vectors, layout, degenerate_clusters=(), truncation_mass=0.0
    ) -> None:
        probs = np.array(probabilities, dtype=float).reshape(-1)
        vecs = np.asarray(vectors, dtype=complex)
        d, n = layout.total_dim, len(probs)
        if vecs.shape[1:] != (n,):
            raise DimensionMismatchError(
                f"vectors of shape {vecs.shape} are not {n} columns, one per entry"
            )
        if vecs.shape[0] != d:
            raise DimensionMismatchError(
                f"vector length {vecs.shape[0]} does not match layout dimension {d}"
            )
        if n == 0:
            raise InvalidDensityMatrixError("epistemic state needs at least one entry")
        for i in range(n):
            norm = _norm(np.ascontiguousarray(vecs[:, i]))
            if not abs(norm - 1.0) <= UNIT_NORM_TOL:
                raise InvalidDensityMatrixError(
                    f"ontic state norm {norm} is not 1 within {UNIT_NORM_TOL:.1e}"
                )
        vecs = linalg.canonical_phase(vecs)
        clusters = tuple(tuple(int(i) for i in c) for c in degenerate_clusters)
        out = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)))  # NaN fails too
        if out.size:
            raise InvalidDensityMatrixError(
                f"probability {out[0]} is {float(probs[out[0]])}, outside [0, 1]"
            )
        total = float(probs.sum()) + truncation_mass
        if not abs(total - 1.0) <= MASS_BALANCE_TOL:
            raise InvalidDensityMatrixError(
                f"probabilities plus truncation mass sum to {total}, not 1"
            )
        least = -(d - n) * PSD_TOL - MASS_BALANCE_TOL
        if not truncation_mass >= least:
            why = f"truncation mass {truncation_mass} is below {least:.3e}"
            raise InvalidDensityMatrixError(why)
        bad = [i for c in clusters for i in c if not 0 <= i < n]
        if bad:
            why = f"degenerate cluster index out of range: {bad[0]} is not in [0, {n})"
            raise IndexError(why)
        dev = np.abs(vecs.conj().T @ vecs - np.eye(n)).max()
        if not dev <= ORTHOGONALITY_TOL:
            raise NonOrthogonalEntriesError(
                "retained ontic states are not mutually orthonormal: max |V^dag V - I|"
                f" = {dev:.3e} exceeds {ORTHOGONALITY_TOL:.1e}"
            )
        self._bind(probs, vecs, layout, clusters, truncation_mass)

    def __len__(self) -> int:
        return len(self.probabilities)

    def is_degenerate(self, index: int) -> bool:
        return any(index in c for c in self.degenerate_clusters)


def extract_epistemic(
    rho: State, threshold: float = DEFAULT_THRESHOLD
) -> EpistemicState:
    """Spectrally decompose a density matrix into an epistemic state.

    Eigenvalues below ``threshold`` are dropped into ``truncation_mass``; a
    threshold above every eigenvalue is refused with a ``ValueError``.
    A nearly pure input (purity within ``PURITY_SHORTCUT`` of one)
    short-circuits to a single entry with probability exactly one; a
    ``PureState`` is that entry, its own vector with canonical phase.
    Eigenvalues closer than ``DEGENERACY_GAP`` are grouped into degenerate
    clusters and flagged, never resolved here.
    """
    if not isinstance(rho, (DensityMatrix, PureState)):
        raise InvalidDensityMatrixError(
            "extract_epistemic expects a DensityMatrix or a PureState"
        )
    if isinstance(rho, PureState):
        _check_threshold(threshold)
        return EpistemicState(np.ones(1), rho.vector[:, None], rho.layout)
    return _read_one(rho.matrix, rho.layout, threshold, checked=True)


def extract_block(rho: State, labels: Sequence[str], threshold: float) -> EpistemicState:
    """The reading of ``rho``'s factors ``labels``: of ``rho`` if they name every
    factor, else of ``reduce``'s matrix, checked on the ``eigh`` that reads it."""
    if len(rho.layout.positions(labels)) == rho.layout.n_factors:
        return extract_epistemic(rho, threshold)
    return _read_one(*rho._reduced(labels), threshold)


def _read_one(
    mat: np.ndarray, layout: SystemLayout, threshold: float, checked: bool = False
) -> EpistemicState:
    """``_read_spectra`` of one matrix, as an epistemic state."""
    v, probs, counts, close = _read_spectra(mat[None], threshold, checked=checked)
    n = int(counts[0])
    clusters, mass = _degenerate_clusters(close[0]), float(probs[0, n:].sum())
    return EpistemicState(probs[0, :n], v[0, :, :n], layout, clusters, mass)


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0, 1): {threshold}")


def _read_spectra(
    mats: np.ndarray,
    threshold: float,
    mode: str = PERMISSIVE,
    where: Optional[Callable[[int], str]] = None,
    checked: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The epistemic reading of ``n`` density matrices ``(n, d, d)``.

    One ``eigh`` call decomposes them; unless they are ``checked`` records,
    ``_density_fault`` checks them on its eigenvalues ``w``. Returns ``(v,
    probs, counts, close)``: eigenvectors, descending; ``w`` with a nearly pure
    spectrum read as ``(1, 0, ..)``; kept prefix lengths; ``close[:, j]`` marks
    kept eigenvalues ``j`` and ``j + 1`` closer than ``DEGENERACY_GAP``. Errors
    come in stack order, as if each matrix were built as a record and read:
    the first that is no density matrix, keeps no eigenvalue (the threshold's
    fault, a ``ValueError``; its range is checked once a matrix passes) or in
    strict mode has close ones is refused, after ``where(k)`` naming matrix
    ``k``, required in strict mode."""
    w, v = linalg._ordered_eig(mats)
    fault = None if checked else _density_fault(mats, w)
    w = w if fault is None else w[: fault[0]]
    if len(w):
        _check_threshold(threshold)
    d = w.shape[1]
    pure = (w * w).sum(axis=1) > 1.0 - PURITY_SHORTCUT
    counts = np.where(pure, 1, (w >= threshold).sum(axis=1))
    probs = np.where(pure[:, None], np.arange(d) == 0, w)
    close = np.abs(np.diff(w, axis=1)) < DEGENERACY_GAP
    close &= np.arange(1, d) < counts[:, None]
    empty = counts == 0
    faults = empty | (close.any(axis=1) & (mode == STRICT))
    if faults.any():
        k = int(np.argmax(faults))
        if empty[k]:
            why = f"threshold {threshold:.15g} keeps no eigenvalue, the largest"
            why += f" being {w[k, 0]:.15g}"
            raise ValueError(f"{where(k)}: {why}" if where else why)
        _refuse_degeneracy(mode, _degenerate_clusters(close[k]), where(k))
    if fault is not None:
        raise InvalidDensityMatrixError(f"{where(len(w))}: {fault[1]}" if where else fault[1])
    return v, probs, counts, close


def _refuse_degeneracy(
    mode: str, clusters: tuple[tuple[int, ...], ...], what: str, index: Optional[int] = None
) -> None:
    """In strict mode, refuse a degenerate cluster of the reading ``what``: any
    (a table, a chain's grid point), or the one holding ``index`` (a query)."""
    if mode == STRICT and index is None and clusters:
        found = f"{what} has degenerate eigenvalue clusters {clusters}"
    elif mode == STRICT and any(index in c for c in clusters):
        found = f"{what} index {index} lies in a degenerate eigenvalue cluster"
    else:
        return
    raise DegenerateBasisError(
        f"{found}; rerun in permissive mode to answer against the canonical basis"
    )


def _degenerate_clusters(close: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Index groups of eigenvalues chained by close neighbours.

    ``close[j]`` marks eigenvalues ``j`` and ``j + 1`` as closer than
    ``DEGENERACY_GAP``; each run of marks joins its eigenvalues into a group.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close, [0])).astype(int)))
    return tuple(tuple(range(a, b + 1)) for a, b in zip(edges[::2], edges[1::2]))


def _conditional_kernel(
    stacks: Sequence[np.ndarray], bases: Sequence[np.ndarray], dims: tuple, order: tuple
) -> np.ndarray:
    """Unbounded ``probs[g, w, i_1..i_n] = sum_r |<b_1(i_1)..b_n(i_n)| A_gw[:, r]|^2``.

    ``stacks`` come from ``channels.amplitudes``, ``(d, G * W)``, grid point
    major, over factors ``dims``; ``bases[a]`` is block ``a``'s vectors
    ``(G, d_a, n_a)``, and ``order`` the blocks' factor positions in turn.
    One batched product per block: amplitudes left, conjugated bases right."""
    grid, n = len(bases[0]), len(dims)
    bras = [np.conj(b) for b in bases]
    probs = 0.0
    for amp in stacks:
        amp = amp.reshape(dims + (grid, -1)).transpose((n,) + order + (n + 1,))
        for bra in bras:
            amp = amp.reshape(grid, bra.shape[1], -1).transpose(0, 2, 1) @ bra
        probs = probs + (amp.real**2 + amp.imag**2)
    return probs.reshape((grid, -1) + tuple(b.shape[2] for b in bases))


def _check_bound(probs: np.ndarray, index: str, where: Optional[Callable] = None) -> None:
    """Refuse the first of a stack of ``_conditional_kernel`` results (tables,
    queries, chain rows) with a value over one. The error gives the result's
    largest value over ``1 + CLAMP_TOL`` and its index, with axes named by
    ``index``, after ``where(n)`` for result ``n`` (a chain's step) if given.
    A result holding NaN passes here; the table's value bounds and the
    chain's row sums refuse it."""
    peaks = probs.max(axis=tuple(range(1, probs.ndim)))
    over = np.flatnonzero(peaks > 1.0 + CLAMP_TOL)
    if over.size:
        n = over[0]
        at = np.unravel_index(int(np.argmax(probs[n])), probs.shape[1:])
        why = f"conditional probability {float(peaks[n]):.17g} at [{index}] "
        why += f"= {tuple(int(i) for i in at)} exceeds 1 + {CLAMP_TOL:g}"
        raise ProbabilityBoundsError(f"{where(n)}: {why}" if where else why)


def epistemic_to_density(e: EpistemicState) -> DensityMatrix:
    """Reassemble the density matrix of an epistemic state.

    Entries must be orthonormal (checked at EpistemicState construction) and
    the truncation mass below ``REASSEMBLY_MASS_TOL``; the missing mass is
    restored by renormalizing the trace.
    """
    if e.truncation_mass >= REASSEMBLY_MASS_TOL:
        raise ValueError(
            f"truncation mass {e.truncation_mass:.3e} too large to reassemble"
        )
    mat = (e.vectors * e.probabilities) @ e.vectors.conj().T
    mat = mat / np.real(np.trace(mat))
    return DensityMatrix(mat, e.layout)
