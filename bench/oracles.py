"""Checks of modaldyn CLI documents that share no code path with the package.

Expected values come from closed forms or from plain numpy on the
benchmark's own copy of the inputs. Every check raises ``CheckFailed`` (or
fails to parse, which the harness also counts) when an output is wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

ROW_TOL = 1e-8


class CheckFailed(Exception):
    """A CLI document disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual, expected, tol: float, what: str) -> None:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    require(a.shape == e.shape, f"{what}: shape {a.shape}, expected {e.shape}")
    dev = float(np.abs(a - e).max()) if a.size else 0.0
    require(dev <= tol, f"{what}: deviation {dev:.3e} exceeds {tol:.1e}")


def document(text: bytes, kind: str) -> dict:
    doc = json.loads(text)
    require(isinstance(doc, dict), "output is not a JSON object")
    require(doc.get("schema_version") == 1, "schema_version is not 1")
    require(doc.get("kind") == kind, f"kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


# ------------------------------------------------------------ references

def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out the factors not in ``keep`` one axis pair at a time."""
    n = len(dims)
    t = rho.reshape(tuple(dims) * 2)
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    k = int(np.prod([dims[i] for i in sorted(keep)]))
    return t.reshape(k, k)


def eig_desc(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return w[::-1], v[:, ::-1]


def record_eigenvalues(p: float, coupling: float, n_env: int) -> list[float]:
    """System+pointer eigenvalues after ``n_env`` environment records.

    The record's off-diagonal is suppressed by ``s = coupling ** n_env``,
    so its eigenvalues are ``(1 +- sqrt((p - q)^2 + 4 p q s^2)) / 2``.
    """
    q = 1.0 - p
    s = coupling**n_env
    g = math.sqrt((p - q) ** 2 + 4.0 * p * q * s * s)
    return [(1.0 + g) / 2.0, (1.0 - g) / 2.0]


def damping_branches(gamma: float, t: float) -> list[float]:
    """Amplitude damping from |1>: label 0 is |1>, label 1 is |0>."""
    e = math.exp(-gamma * t)
    return [e, 1.0 - e]


def dephasing_branches(gamma: float, t: float) -> list[float]:
    """Dephasing from |+>: label 0 is |+>, label 1 is |->."""
    e = math.exp(-2.0 * gamma * t)
    return [(1.0 + e) / 2.0, (1.0 - e) / 2.0]


# ------------------------------------------------------------- documents

def check_epistemic(text: bytes, expected, tol: float) -> None:
    doc = document(text, "epistemic")
    close(doc["probabilities"], expected, tol, "probabilities")


def _check_rows(probs: np.ndarray, parent: np.ndarray, blocks: list[np.ndarray]) -> None:
    """Rows sum to one and mixing the rows by the parent gives each block."""
    rows = probs.reshape(probs.shape[0], -1).sum(axis=1)
    close(rows, np.ones_like(rows), ROW_TOL, "row sums")
    n = len(blocks)
    for a, block in enumerate(blocks):
        axes = tuple(k + 1 for k in range(n) if k != a)
        marginal = parent @ (probs.sum(axis=axes) if axes else probs)
        close(marginal, block, ROW_TOL, f"block {a} marginal")


def check_table_json(
    text: bytes,
    parent,
    blocks: list,
    tol: float,
    samples: list[tuple[tuple[int, ...], float]] = (),
) -> None:
    """Check a conditional JSON document against expected spectra and entries."""
    doc = document(text, "conditional")
    close(doc["parent"]["probabilities"], parent, tol, "parent probabilities")
    require(len(doc["block_entries"]) == len(blocks), "wrong number of blocks")
    for a, (entry, expected) in enumerate(zip(doc["block_entries"], blocks)):
        close(entry["probabilities"], expected, tol, f"block {a} probabilities")
    require(doc["max_row_deviation"] <= ROW_TOL, "max_row_deviation too large")
    require(doc["max_marginal_deviation"] <= ROW_TOL, "max_marginal_deviation too large")
    probs = np.asarray(doc["probabilities"], dtype=float)
    shape = (len(parent),) + tuple(len(b) for b in blocks)
    require(probs.shape == shape, f"table shape {probs.shape}, expected {shape}")
    _check_rows(probs, np.asarray(parent), [np.asarray(b) for b in blocks])
    for index, value in samples:
        close(probs[index], value, tol, f"entry {index}")


def check_table_csv(
    text: bytes,
    parent,
    blocks: list,
    tol: float,
    samples: list[tuple[tuple[int, ...], float]] = (),
) -> None:
    """Check a conditional CSV table against expected spectra and entries."""
    lines = text.decode("utf-8").splitlines()
    require(lines[0] == "# schema_version: 1", "missing schema_version line")
    footer = {}
    shape = (len(parent),) + tuple(len(b) for b in blocks)
    probs = np.full(shape, np.nan)
    header = lines[1].split(",")
    require(len(header) == len(shape) + 1, f"header {lines[1]!r}")
    for line in lines[2:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            footer[key.strip()] = float(value)
            continue
        cells = line.split(",")
        probs[tuple(int(c) for c in cells[:-1])] = float(cells[-1])
    require(not np.isnan(probs).any(), "table rows missing from CSV")
    require(footer["max_row_deviation"] <= ROW_TOL, "max_row_deviation too large")
    require(footer["max_marginal_deviation"] <= ROW_TOL, "max_marginal_deviation too large")
    _check_rows(probs, np.asarray(parent), [np.asarray(b) for b in blocks])
    for index, value in samples:
        close(probs[index], value, tol, f"entry {index}")


def check_ensemble(text: bytes, n: int, base_seed: int, branches, tol: float) -> None:
    """Eigenvalues on the closed-form branches; frequencies within 2.5/sqrt(n).

    2.5/sqrt(n) is five standard deviations of a branch frequency at
    p = 1/2. A 4-sigma bound (2/sqrt(n)) was exceeded by 1 of 400 seeds of
    the 257-point dephasing ensemble, so a correct program would fail some
    seeds.
    """
    doc = document(text, "ensemble")
    require(doc["sample_count"] == n, "sample_count differs from --n")
    require(doc["base_seed"] == base_seed, "base_seed differs from --seed")
    times = np.asarray(doc["times"], dtype=float)
    eigs = np.asarray(doc["eigenvalues"], dtype=float)
    freqs = np.asarray(doc["frequencies"], dtype=float)
    close(eigs, [branches(t) for t in times], tol, "eigenvalue table")
    require(freqs.shape == eigs.shape, "frequency table shape")
    close(freqs.sum(axis=1), np.ones(len(times)), 1e-12, "frequency row sums")
    bound = 2.5 / math.sqrt(n)
    dev = float(np.abs(freqs - eigs).max())
    require(dev <= bound, f"frequencies deviate {dev:.3e} > 2.5/sqrt(n) = {bound:.3e}")
    close(doc["max_abs_deviation"], dev, 1e-12, "max_abs_deviation")


def check_damping_trajectory(text: bytes, seed: int, gamma: float, dt: float, tol: float) -> None:
    """Points sit on closed-form branches and never return to the excited one."""
    doc = document(text, "trajectory")
    require(doc["seed"] == seed, "seed differs from --seed")
    points = doc["points"]
    labels = [int(p[1]) for p in points]
    require(labels[0] == 0, "trajectory does not start on the excited branch")
    require(set(labels) <= {0, 1}, "unknown branch label")
    require(labels == sorted(labels), "trajectory returns to the excited branch")
    close([p[0] for p in points], dt * np.arange(len(points)), 1e-12, "grid times")
    close(
        [p[2] for p in points],
        [damping_branches(gamma, t)[lab] for (t, lab, _) in points],
        tol,
        "branch probabilities",
    )


def check_cpt(text: bytes, channel_kind: str) -> None:
    doc = document(text, "cpt_report")
    require(doc["channel_kind"] == channel_kind, "channel_kind differs")
    require(doc["is_cp"] is True, "channel reported not completely positive")
    require(doc["is_tp"] is True, "channel reported not trace preserving")
