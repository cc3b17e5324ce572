"""Seeded random inputs for the benchmark, built without modaldyn.

Every mixed state is ``U diag(p) U^dag`` with an explicit spectrum whose
adjacent gaps are at least ``MIN_GAP``, so strict mode never meets a
degenerate cluster and no rejection loop is needed. The generator lives
here, not in ``modaldyn.random_objects``, so that a change to the package
cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MIN_GAP = 1e-4


def spectrum(rng: np.random.Generator, d: int) -> np.ndarray:
    """Descending probabilities with every adjacent gap >= MIN_GAP.

    Gaps are drawn in ``[g, 1.2 g]`` with ``g`` as large as lets the
    offsets use about half the unit mass; the rest is spread evenly.
    """
    g = max(MIN_GAP, 0.5 / (1.1 * d * (d - 1) / 2)) if d > 1 else 0.0
    gaps = g * (1.0 + 0.2 * rng.random(d - 1))
    offsets = np.concatenate(([0.0], np.cumsum(gaps)))
    floor = (1.0 - offsets.sum()) / d
    if floor <= 0.0:
        raise ValueError(f"no spectrum of dimension {d} has gaps >= {MIN_GAP}")
    return (floor + offsets)[::-1].copy()


def unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def mixed_state(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rho, U)`` with ``rho = U diag(spectrum) U^dag``.

    Column ``k`` of ``U`` is the eigenvector of the ``k``-th largest
    eigenvalue.
    """
    p = spectrum(rng, d)
    u = unitary(rng, d)
    rho = (u * p) @ u.conj().T
    return 0.5 * (rho + rho.conj().T), u


def kraus_family(rng: np.random.Generator, d: int, n_ops: int) -> list[np.ndarray]:
    """Kraus operators cut from a random isometry, so sum K^dag K = I."""
    z = rng.standard_normal((n_ops * d, d)) + 1j * rng.standard_normal((n_ops * d, d))
    v, _ = np.linalg.qr(z)
    return [v[k * d : (k + 1) * d, :] for k in range(n_ops)]


def lindblad_data(
    rng: np.random.Generator, d: int, n_jumps: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
    """Random Hamiltonian and jump operators of unit scale, rates in [0.2, 1]."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / (2.0 * np.sqrt(2.0 * d))
    jumps = []
    for _ in range(n_jumps):
        op = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(
            2.0 * d
        )
        jumps.append((op, float(0.2 + 0.8 * rng.random())))
    return h, jumps


def pairs(m: np.ndarray) -> list:
    """Row-major nested ``[re, im]`` lists, the package's matrix encoding."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def qubit_layout(n: int) -> dict:
    return {"dims": [2] * n, "labels": [f"Q{k}" for k in range(1, n + 1)]}


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def kraus_scenario_doc(name: str, rho: np.ndarray, ops: list[np.ndarray]) -> dict:
    n = int(round(np.log2(rho.shape[0])))
    return {
        "schema_version": 1,
        "kind": "scenario",
        "name": name,
        "layout": qubit_layout(n),
        "initial_state": pairs(rho),
        "dynamics": {"kind": "kraus", "operators": [pairs(k) for k in ops]},
    }


def lindblad_scenario_doc(
    name: str, rho: np.ndarray, h: np.ndarray, jumps: list[tuple[np.ndarray, float]]
) -> dict:
    n = int(round(np.log2(rho.shape[0])))
    return {
        "schema_version": 1,
        "kind": "scenario",
        "name": name,
        "layout": qubit_layout(n),
        "initial_state": pairs(rho),
        "dynamics": {
            "kind": "lindblad",
            "hamiltonian": pairs(h),
            "jumps": [{"operator": pairs(op), "rate": rate} for op, rate in jumps],
        },
    }


def kraus_channel_doc(ops: list[np.ndarray]) -> dict:
    return {"schema_version": 1, "kind": "kraus", "operators": [pairs(k) for k in ops]}


def lindblad_channel_doc(
    h: np.ndarray, jumps: list[tuple[np.ndarray, float]], duration: float
) -> dict:
    return {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": pairs(h),
        "jumps": [{"operator": pairs(op), "rate": rate} for op, rate in jumps],
        "duration": duration,
    }
