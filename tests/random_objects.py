"""Seeded random states, unitaries, channels and generators for the tests."""

from __future__ import annotations

import numpy as np

from modaldyn.channels import KrausChannel, LindbladGenerator
from modaldyn.linalg import SystemLayout
from modaldyn.states import DensityMatrix


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = _ginibre(rng, dim, 1).reshape(-1)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    return scale * 0.5 * (g + g.conj().T)


def random_density_matrix(
    layout: SystemLayout,
    rng: np.random.Generator,
    rank: int | None = None,
    min_eigenvalue_gap: float = 0.0,
) -> DensityMatrix:
    """Random full-rank (by default) density matrix on ``layout``.

    ``min_eigenvalue_gap`` rejects draws whose sorted spectrum has adjacent
    gaps below the bound, convenient for strict-mode tests.
    """
    d = layout.total_dim
    rank = d if rank is None else int(rank)
    while True:
        g = _ginibre(rng, d, rank)
        mat = g @ g.conj().T
        mat = mat / np.real(np.trace(mat))
        if min_eigenvalue_gap > 0:
            w = np.sort(np.linalg.eigvalsh(mat))
            if np.diff(w).min() < min_eigenvalue_gap:
                continue
        return DensityMatrix(mat, layout)


def random_kraus_channel(
    dim: int, n_operators: int, rng: np.random.Generator
) -> KrausChannel:
    """Random CPT channel from a Haar-ish isometry split into blocks."""
    n_operators = int(n_operators)
    iso = _ginibre(rng, dim * n_operators, dim)
    q, r = np.linalg.qr(iso)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return KrausChannel((q * phases).reshape(n_operators, dim, dim))


def random_lindblad(
    dim: int, n_jumps: int, rng: np.random.Generator, rate_scale: float = 1.0
) -> LindbladGenerator:
    jumps = tuple(
        (_ginibre(rng, dim, dim) / np.sqrt(dim), rate_scale * float(rng.uniform(0.1, 1.0)))
        for _ in range(int(n_jumps))
    )
    return LindbladGenerator(hamiltonian=random_hermitian(dim, rng), jumps=jumps)
