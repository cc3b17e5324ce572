"""Completely positive trace-preserving dynamics in three representations.

Kraus families, Lindblad generators, and superoperator matrices convert into
one another through the Choi matrix. Conventions used throughout:

* vectorization is row-major (``numpy`` C order), so ``vec(A rho B) =
  (A kron B^T) vec(rho)``;
* the Choi matrix is ``(E kron id)`` applied to the unnormalized maximally
  entangled pair ``sum_i |ii>``, i.e. ``Choi = sum_k vec(K_k) vec(K_k)^dag``
  for a Kraus family ``{K_k}``. Complete positivity is equivalent to this
  matrix being positive semidefinite, and trace preservation to its
  output-side partial trace equalling the identity.

Generators are exponentiated exactly (scaling-and-squaring ``expm``), never
time-stepped, so semigroup identities hold to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    CptVerificationError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
)
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-9
CHOI_EIG_CUTOFF = 1e-12
CPT_TOL = 1e-9
UNITARITY_TOL = 1e-10


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).reshape(-1)


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape(d, d)


@dataclass(frozen=True)
class KrausChannel:
    """CPT map presented as a Kraus family ``rho -> sum_k K_k rho K_k^dag``.

    Construction verifies the completeness relation
    ``||sum_k K_k^dag K_k - I||_F <= 1e-9``.
    """

    operators: tuple[np.ndarray, ...]
    dim: int = 0

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise CptVerificationError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatchError(
                    f"Kraus operator shapes disagree: {k.shape} vs {(d, d)}"
                )
        resid = completeness_residual(ops)
        if resid > COMPLETENESS_TOL:
            raise CptVerificationError(
                f"completeness residual {resid:.3e} exceeds {COMPLETENESS_TOL:.1e}"
            )
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "dim", d)

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Apply the map to an arbitrary operator (no state validation)."""
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator shape {mat.shape} does not match channel dim {self.dim}"
            )
        out = np.zeros_like(mat)
        for k in self.operators:
            out += k @ mat @ k.conj().T
        return out


@dataclass(frozen=True)
class LindbladGenerator:
    """Markovian generator data: Hamiltonian plus weighted jump operators.

    ``jumps`` is a sequence of ``(operator, rate)`` pairs with nonnegative
    rates; the generated motion is
    ``drho/dt = -i[H, rho] + sum_k rate_k (L rho L^dag - {L^dag L, rho}/2)``.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise NotHermitianError(f"Hamiltonian must be square, got {h.shape}")
        dev = np.abs(h - h.conj().T).max()
        if dev > 1e-10:
            raise NotHermitianError(
                f"Hamiltonian deviates from Hermitian by {dev:.3e}"
            )
        jumps = []
        for op, rate in self.jumps:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"jump operator shape {op.shape} does not match {h.shape}"
                )
            rate = float(rate)
            if rate < 0:
                raise ValueError(f"jump rate must be nonnegative: {rate}")
            jumps.append((op, rate))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix acting on row-major vectorized operators.

    ``kind`` distinguishes finished maps from generators, because the
    trace-preservation row condition differs: a map satisfies
    ``vec(I)^T S = vec(I)^T`` while a generator satisfies
    ``vec(I)^T L = 0`` (trace preserved infinitesimally).
    """

    matrix: np.ndarray
    dim: int
    kind: str = "map"

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = int(self.dim)
        if mat.shape != (d * d, d * d):
            raise DimensionMismatchError(
                f"superoperator shape {mat.shape} is not ({d * d}, {d * d})"
            )
        if self.kind not in ("map", "generator"):
            raise ValueError(f"kind must be 'map' or 'generator': {self.kind!r}")
        vec_i = np.eye(d, dtype=complex).reshape(-1)
        row = mat.T @ vec_i
        target = vec_i if self.kind == "map" else np.zeros_like(vec_i)
        resid = np.abs(row - target).max()
        if resid > COMPLETENESS_TOL:
            raise CptVerificationError(
                f"trace row condition violated by {resid:.3e} for kind={self.kind!r}"
            )
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dim", d)

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator shape {mat.shape} does not match superoperator dim {self.dim}"
            )
        return (self.matrix @ mat.reshape(-1)).reshape(self.dim, self.dim)


Channel = Union[KrausChannel, Superoperator]


@dataclass(frozen=True)
class CptReport:
    """Outcome of a CPT verification pass."""

    is_tp: bool
    is_cp: bool
    choi_min_eigenvalue: float
    completeness_residual: float


def completeness_residual(ops: Sequence[np.ndarray]) -> float:
    """Frobenius norm of ``sum K^dag K - I``."""
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    return float(np.linalg.norm(acc - np.eye(d)))


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """Wrap a unitary as a single-operator channel."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got {u.shape}")
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(f"||U^dag U - I|| = {dev:.3e} exceeds {UNITARITY_TOL:.1e}")
    return KrausChannel((u,))


def apply(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a density matrix, revalidating the output state."""
    if ch.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dim {ch.dim} does not match state dim {rho.dim}"
        )
    return DensityMatrix(ch.apply_matrix(rho.matrix), rho.layout)


def kraus_to_superoperator(ch: KrausChannel) -> Superoperator:
    d = ch.dim
    mat = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.operators:
        mat += np.kron(k, k.conj())
    return Superoperator(mat, d, kind="map")


def kraus_to_choi(ch: KrausChannel) -> np.ndarray:
    d = ch.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.operators:
        v = _vec(k)
        choi += np.outer(v, v.conj())
    return choi


def superoperator_to_choi(s: Superoperator) -> np.ndarray:
    d = s.dim
    return (
        s.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    )


def choi_to_kraus(
    choi: np.ndarray, dim: int, cutoff: float = CHOI_EIG_CUTOFF
) -> tuple[np.ndarray, ...]:
    """Extract Kraus operators from a Choi matrix eigendecomposition.

    Eigenvalues below ``cutoff`` are dropped; eigenvalues below ``-CPT_TOL``
    mean the map is not completely positive and raise.
    """
    choi = np.asarray(choi, dtype=complex)
    sym = 0.5 * (choi + choi.conj().T)
    w, v = np.linalg.eigh(sym)
    if w.min() < -CPT_TOL:
        raise CptVerificationError(
            f"Choi matrix has eigenvalue {w.min():.3e}; map is not CP"
        )
    ops = [
        np.sqrt(w[k]) * _unvec(v[:, k], dim)
        for k in range(len(w))
        if w[k] >= cutoff
    ]
    if not ops:
        raise CptVerificationError("Choi matrix has no eigenvalue above cutoff")
    return tuple(ops)


def _choi_output_trace(choi: np.ndarray, dim: int) -> np.ndarray:
    return np.einsum(choi.reshape(dim, dim, dim, dim), [0, 1, 0, 2], [1, 2])


def verify_kraus_operators(
    ops: Sequence[np.ndarray], tol: float = CPT_TOL
) -> CptReport:
    """CPT report for a raw Kraus family (no construction-time checks).

    The Choi matrix is built explicitly up to dim 64; beyond that the Kraus
    Gram matrix supplies the nonzero Choi spectrum so verification stays
    cheap for large unitaries.
    """
    ops = [np.asarray(k, dtype=complex) for k in ops]
    d = ops[0].shape[0]
    resid = completeness_residual(ops)
    if d <= 64:
        choi = np.zeros((d * d, d * d), dtype=complex)
        for k in ops:
            v = _vec(k)
            choi += np.outer(v, v.conj())
        choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    else:
        # Too large for an explicit Choi matrix. Kraus form is CP by
        # construction; with fewer operators than dim^2 the Choi matrix is
        # rank deficient, so its minimum eigenvalue is exactly zero.
        w_mat = np.column_stack([_vec(k) for k in ops])
        gram = w_mat.conj().T @ w_mat
        gmin = float(np.linalg.eigvalsh(gram).min())
        choi_min = min(0.0, gmin) if len(ops) < d * d else gmin
    return CptReport(
        is_tp=bool(resid <= tol),
        is_cp=bool(choi_min >= -tol),
        choi_min_eigenvalue=choi_min,
        completeness_residual=float(resid),
    )


def verify_superoperator_matrix(
    matrix: np.ndarray, dim: int, tol: float = CPT_TOL
) -> CptReport:
    """CPT report for a raw superoperator matrix (row-major vectorization)."""
    matrix = np.asarray(matrix, dtype=complex)
    d = int(dim)
    choi = matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    resid = float(np.linalg.norm(_choi_output_trace(choi, d) - np.eye(d)))
    return CptReport(
        is_tp=bool(resid <= tol),
        is_cp=bool(choi_min >= -tol),
        choi_min_eigenvalue=choi_min,
        completeness_residual=float(resid),
    )


def verify_cpt(ch: Channel, tol: float = CPT_TOL) -> CptReport:
    """Check complete positivity and trace preservation; never raises."""
    if isinstance(ch, KrausChannel):
        return verify_kraus_operators(ch.operators, tol)
    return verify_superoperator_matrix(ch.matrix, ch.dim, tol)


def lindblad_superoperator(g: LindbladGenerator) -> Superoperator:
    """Generator matrix on vectorized operators (not exponentiated)."""
    d = g.dim
    eye = np.eye(d, dtype=complex)
    h = g.hamiltonian
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in g.jumps:
        anti = op.conj().T @ op
        mat += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
        )
    return Superoperator(mat, d, kind="generator")


def evolve(g: LindbladGenerator, duration: float) -> KrausChannel:
    """Exact channel ``exp(L * duration)`` as a Kraus family.

    The exponential is taken in one scaling-and-squaring ``expm`` call. The
    Kraus family is renormalized to exact completeness when the residual is
    small; larger residuals raise.
    """
    from scipy.linalg import expm  # scipy.linalg is slow to import; only needed here

    duration = float(duration)
    if duration < 0:
        raise ValueError(f"duration must be nonnegative: {duration}")
    total = expm(lindblad_superoperator(g).matrix * duration)
    d = g.dim
    choi = total.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    ops = choi_to_kraus(choi, d)
    resid = completeness_residual(ops)
    if resid > COMPLETENESS_TOL:
        raise CptVerificationError(
            f"extracted Kraus family misses completeness by {resid:.3e}"
        )
    ops = _renormalize_completeness(ops)
    ch = KrausChannel(ops)
    report = verify_cpt(ch)
    if not (report.is_cp and report.is_tp):
        raise CptVerificationError(f"evolved channel failed verification: {report}")
    return ch


def _renormalize_completeness(
    ops: Sequence[np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Right-multiply by (sum K^dag K)^(-1/2) to pin completeness exactly."""
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    w, v = np.linalg.eigh(0.5 * (acc + acc.conj().T))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return tuple(k @ inv_sqrt for k in ops)


def compose(later: KrausChannel, earlier: KrausChannel) -> KrausChannel:
    """Channel applying ``earlier`` first, then ``later``."""
    if later.dim != earlier.dim:
        raise DimensionMismatchError(
            f"cannot compose dims {later.dim} and {earlier.dim}"
        )
    ops = tuple(
        a @ b for a in later.operators for b in earlier.operators
    )
    ch = KrausChannel(ops)
    report = verify_cpt(ch)
    if not (report.is_cp and report.is_tp):
        raise CptVerificationError(f"composed channel failed verification: {report}")
    return ch
