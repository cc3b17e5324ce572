"""The benchmark's workloads: seeded inputs, CLI requests and their checks.

Each workload is a list of ``modaldyn`` CLI requests run one after another.
Inputs are written before any timing starts, and every expected value is
computed here, from the benchmark's own copy of the inputs, before the
program runs.

Every workload ends with the same three small requests (:func:`tail`): a d=8
von Neumann table, a short dephasing ensemble and a 2-qubit Lindblad channel
check. They make every end-to-end metric and every layer defined on every
workload (a table, an ensemble, a channel file and a composed schedule
each occur at least once), at about one import time each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

ENTRY_TOL = 1e-10
EVOLVE_TOL = 1e-9


@dataclass(frozen=True)
class Request:
    """One CLI call: ``python -m modaldyn.cli *argv`` and its output check.

    ``dense_bytes`` estimates the dense complex operators the program holds
    at once for this request; the harness refuses to launch a configuration
    above its budget, because the program has no size guard of its own.
    ``entries`` and ``trajectory_steps`` are the table entries and the
    n * steps of an ensemble that the request computes.
    """

    argv: tuple[str, ...]
    check: Callable[[bytes], None]
    dense_bytes: int
    entries: int = 0
    trajectory_steps: int = 0


def dense_bytes(dim: int, copies: int) -> int:
    """Bytes of ``copies`` dense complex ``dim x dim`` matrices."""
    return copies * 16 * dim * dim


# --------------------------------------------------------------- born-record

def _von_neumann(p: float, c: float, n_env: int) -> list[Request]:
    """Record spectrum and Born-weight table of the measurement chain."""
    common = (
        "--scenario", "von-neumann", "--alpha2", repr(p),
        "--coupling", repr(c), "--n-env", str(n_env),
    )
    record = oracles.record_eigenvalues(p, c, n_env)
    born = sorted((p, 1.0 - p), reverse=True)
    env = "+".join(f"E{k}" for k in range(1, n_env + 1))
    # one dense gate per schedule step plus the composed channel and states
    size = dense_bytes(2 ** (n_env + 2), n_env + 4)
    return [
        Request(
            ("epistemic", *common, "--subsystem", "S,P"),
            partial(oracles.check_epistemic, expected=record, tol=ENTRY_TOL),
            dense_bytes=size,
        ),
        Request(
            ("conditional", *common, "--blocks", f"S,P,{env}"),
            partial(
                oracles.check_table_json,
                parent=[1.0],
                blocks=[born, born, record],
                tol=ENTRY_TOL,
            ),
            dense_bytes=size,
            entries=8,
        ),
    ]


def born_record(rng: np.random.Generator, work: Path) -> list[Request]:
    p = round(0.2 + 0.2 * rng.random(), 6)
    c = round(0.3 + 0.2 * rng.random(), 6)
    requests = []
    for n_env in (5, 6, 7):
        requests += _von_neumann(p, c, n_env)
    return requests


# ---------------------------------------------------------------- cond-table

def _block_spectra(rho: np.ndarray, n: int, blocks: list[list[int]]):
    out = []
    for block in blocks:
        w, v = oracles.eig_desc(oracles.partial_trace(rho, [2] * n, block))
        out.append((w, v))
    return out


def _gapped(spectra) -> bool:
    return all(np.all(-np.diff(w) >= inputs.MIN_GAP) for w, _ in spectra)


def _sampled_entries(rng, amps, spectra, n_samples: int):
    """``p(i|w) = sum_k |<b_i| K_k |u_w>|^2`` for seeded indices (w, i)."""
    out = []
    for _ in range(n_samples):
        w = int(rng.integers(amps.shape[2]))
        idx = tuple(int(rng.integers(len(s[0]))) for s in spectra)
        b = spectra[0][1][:, idx[0]]
        for (_, v), i in zip(spectra[1:], idx[1:]):
            b = np.kron(b, v[:, i])
        value = float(np.sum(np.abs(b.conj() @ amps[:, :, w].T) ** 2))
        out.append(((w, *idx), value))
    return out


def cond_table(rng: np.random.Generator, work: Path) -> list[Request]:
    n, d = 7, 128
    rho, u = inputs.mixed_state(rng, d)
    singles = [[k] for k in range(n)]
    pairs = [[0, 1], [2, 3], [4, 5], [6]]
    while True:
        ops = inputs.kraus_family(rng, d, 4)
        out = sum(k @ rho @ k.conj().T for k in ops)
        spectra_a = _block_spectra(out, n, singles)
        spectra_b = _block_spectra(out, n, pairs)
        if _gapped(spectra_a) and _gapped(spectra_b):
            break
    scenario = work / "cond-table.scenario.json"
    channel = work / "cond-table.channel.json"
    inputs.write_json(scenario, inputs.kraus_scenario_doc("cond-table", rho, ops))
    inputs.write_json(channel, inputs.kraus_channel_doc(ops))
    parent = np.sort(np.real(np.diag(u.conj().T @ rho @ u)))[::-1]
    amps = np.stack([k @ u for k in ops])  # amps[k, :, w] = K_k |u_w>
    requests = []
    for spectra, blocks, fmt, check in (
        (spectra_a, ",".join(f"Q{k + 1}" for k in range(n)), "json", oracles.check_table_json),
        (spectra_b, "Q1+Q2,Q3+Q4,Q5+Q6,Q7", "csv", oracles.check_table_csv),
    ):
        entries = d * int(np.prod([len(w) for w, _ in spectra]))
        requests.append(
            Request(
                ("conditional", "--scenario", str(scenario), "--blocks", blocks, "--format", fmt),
                partial(
                    check,
                    parent=parent,
                    blocks=[w for w, _ in spectra],
                    tol=ENTRY_TOL,
                    samples=_sampled_entries(rng, amps, spectra, 64),
                ),
                dense_bytes=dense_bytes(d, 8),
                entries=entries,
            )
        )
    requests.append(
        Request(
            ("verify-channel", "--channel", str(channel)),
            partial(oracles.check_cpt, channel_kind="kraus"),
            dense_bytes=dense_bytes(d, 8),
        )
    )
    return requests


# --------------------------------------------------------------- open-evolve

def reference_evolve(rho: np.ndarray, h: np.ndarray, jumps, t: float) -> np.ndarray:
    """exp(t L) rho with L built on column-stacked vectors.

    The package vectorizes row-major and exponentiates with ``expm``; this
    reference stacks columns, ``vec(A X B) = (B^T kron A) vec(X)``, and uses
    ``expm_multiply`` on the one vector it needs.
    """
    from scipy.sparse.linalg import expm_multiply

    d = rho.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        ldl = op.conj().T @ op
        gen += rate * (
            np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
        )
    vec = expm_multiply(gen * t, rho.reshape(-1, order="F"))
    return vec.reshape(d, d, order="F")


def _lindblad_channel(rng: np.random.Generator, work: Path, name: str, n: int) -> Request:
    h, jumps = inputs.lindblad_data(rng, 2**n, 2)
    path = work / f"{name}.json"
    inputs.write_json(path, inputs.lindblad_channel_doc(h, jumps, 1.0))
    return Request(
        ("verify-channel", "--channel", str(path)),
        partial(oracles.check_cpt, channel_kind="lindblad"),
        # superoperator, its exponential, the Choi matrix and its eigenvectors
        dense_bytes=dense_bytes(4**n, 8),
    )


def open_evolve(rng: np.random.Generator, work: Path) -> list[Request]:
    n, d, t = 5, 32, 0.5
    rho, _ = inputs.mixed_state(rng, d)
    h, jumps = inputs.lindblad_data(rng, d, 3)
    scenario = work / "open-evolve.scenario.json"
    inputs.write_json(scenario, inputs.lindblad_scenario_doc("open-evolve", rho, h, jumps))
    final = reference_evolve(rho, h, jumps, t)
    expected, _ = oracles.eig_desc(oracles.partial_trace(final, [2] * n, [0, 1]))
    return [
        Request(
            ("epistemic", "--scenario", str(scenario), "--time", repr(t), "--subsystem", "Q1,Q2"),
            partial(oracles.check_epistemic, expected=expected, tol=EVOLVE_TOL),
            dense_bytes=dense_bytes(d * d, 8),
        ),
        _lindblad_channel(rng, work, "open-evolve.channel", 4),
    ]


# ------------------------------------------------------------------ ensemble

def _ensemble(rng, scenario: str, gamma: float, t: float, steps: int, n: int) -> Request:
    seed = int(rng.integers(2**31))
    argv = (
        "sample", "--scenario", scenario, "--gamma", repr(gamma), "--t", repr(t),
        "--steps", str(steps), "--n", str(n), "--seed", str(seed),
    )
    if n == 1:
        check = partial(
            oracles.check_damping_trajectory, seed=seed, gamma=gamma, dt=t / steps, tol=EVOLVE_TOL
        )
        return Request(argv, check, dense_bytes=dense_bytes(4, 8))
    branches = {"damping": oracles.damping_branches, "dephasing": oracles.dephasing_branches}
    check = partial(
        oracles.check_ensemble,
        n=n,
        base_seed=seed,
        branches=partial(branches[scenario], gamma),
        tol=EVOLVE_TOL,
    )
    return Request(argv, check, dense_bytes=dense_bytes(4, 8), trajectory_steps=n * steps)


def ensemble(rng: np.random.Generator, work: Path) -> list[Request]:
    return [
        _ensemble(rng, "damping", 1.0, 1.0, 64, 100_000),
        _ensemble(rng, "dephasing", 0.5, 2.0, 256, 20_000),
        _ensemble(rng, "damping", 1.0, 4.0, 4096, 1),
    ]


# ---------------------------------------------------------------------- tail

def tail(rng: np.random.Generator, work: Path) -> list[Request]:
    p = round(0.2 + 0.2 * rng.random(), 6)
    c = round(0.3 + 0.2 * rng.random(), 6)
    return [
        _von_neumann(p, c, 1)[1],
        _ensemble(rng, "dephasing", 0.5, 1.0, 16, 2000),
        _lindblad_channel(rng, work, "tail.channel", 2),
    ]


WORKLOADS = {
    "born-record": born_record,
    "cond-table": cond_table,
    "open-evolve": open_evolve,
    "ensemble": ensemble,
}


def build(name: str, seed: int, work: Path) -> list[Request]:
    """Write the inputs of workload ``name`` under ``work``; return its requests.

    ``work`` is relative to the checkout root, which is the working
    directory of every request, so the file names in the CLI documents are
    the same in every checkout.
    """
    work.mkdir(parents=True, exist_ok=True)
    index = list(WORKLOADS).index(name)
    main_rng, tail_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence([seed, index]).spawn(2)
    )
    return WORKLOADS[name](main_rng, work) + tail(tail_rng, work)


def corrupt(text: bytes) -> bytes:
    """``text`` with one output value changed, for the harness self-test.

    Handles the documents of :func:`tail`: a table, an ensemble and a CPT
    report.
    """
    doc = json.loads(text)
    if doc["kind"] == "cpt_report":
        doc["is_cp"] = False
    elif doc["kind"] == "ensemble":
        doc["eigenvalues"][-1][0] += 1e-3
    else:
        probs = doc["probabilities"]
        while isinstance(probs[0], list):
            probs = probs[0]
        probs[0] += 1e-3
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
