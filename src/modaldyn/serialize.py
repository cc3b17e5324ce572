"""Stable JSON/CSV encodings for every object that crosses the CLI boundary.

Conventions (see SCHEMA.md at the repository root):

* every JSON document carries a top-level ``schema_version`` (currently 1);
* complex scalars encode as two-element ``[re, im]`` arrays;
* matrices encode row-major as nested lists of ``[re, im]`` pairs;
* JSON is emitted with sorted keys and 2-space indent, CSV with ``repr``
  floats, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .channels import KrausChannel, LindbladGenerator, unitary_channel
from .conditional import ConditionalTable
from .errors import ModalDynError
from .linalg import SystemLayout, apply_local, check_memory
from .scenarios import Scenario
from .states import DensityMatrix, EpistemicState, PureState
from .trajectories import EnsembleReport, Trajectory

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


# ---------------------------------------------------------------- encoding

def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v).reshape(-1)]


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m)
    return [[complex_to_pair(z) for z in row] for row in m]


def pair_to_complex(pair: Any) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def pairs_to_matrix(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError("matrix must be a nonempty list of rows")
    return np.array(
        [[pair_to_complex(p) for p in row] for row in rows], dtype=complex
    )


def layout_payload(layout: SystemLayout) -> dict:
    return {"dims": list(layout.dims), "labels": list(layout.labels)}


def layout_from_payload(data: Any) -> SystemLayout:
    try:
        return SystemLayout(tuple(data["dims"]), tuple(data["labels"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad layout payload: {exc}") from exc


def dumps_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _f(x: float) -> str:
    return repr(float(x))


def _csv_lines(header: str) -> list[str]:
    # CSV outputs carry the schema version as a leading comment so they are
    # versioned like the JSON documents; gnuplot and friends skip # lines
    return [f"# schema_version: {SCHEMA_VERSION}", header]


# ------------------------------------------------------------- documents

def epistemic_payload(
    e: EpistemicState,
    scenario: str,
    subsystem: tuple[str, ...],
    time: float,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "epistemic",
        "scenario": scenario,
        "subsystem": list(subsystem),
        "time": float(time),
        "layout": layout_payload(e.layout),
        **_entries_summary(e),
        "vectors": [vector_to_pairs(v) for v in e.vectors.T],
    }


def epistemic_csv(e: EpistemicState) -> str:
    lines = _csv_lines("index,probability,degenerate")
    for i, p in enumerate(e.probabilities):
        lines.append(f"{i},{_f(p)},{int(e.is_degenerate(i))}")
    lines.append(f"# truncation_mass: {_f(e.truncation_mass)}")
    return "\n".join(lines) + "\n"


def _entries_summary(e: EpistemicState) -> dict:
    return {
        "probabilities": e.probabilities.tolist(),
        "degenerate_clusters": [list(c) for c in e.degenerate_clusters],
        "truncation_mass": float(e.truncation_mass),
    }


def table_payload(table: ConditionalTable, scenario: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "conditional",
        "scenario": scenario,
        "mode": table.mode,
        "channel_id": table.channel_id,
        "times": [float(t) for t in table.times],
        "blocks": [list(b) for b in table.partition.blocks],
        "parent": _entries_summary(table.parent),
        "block_entries": [_entries_summary(b) for b in table.blocks],
        "probabilities": table.probabilities.tolist(),
        "row_sums": table.row_sums.tolist(),
        "max_row_deviation": float(table.max_row_deviation),
        "max_marginal_deviation": float(table.max_marginal_deviation),
    }


def table_csv(table: ConditionalTable) -> str:
    n = table.partition.n_blocks
    header = "w," + ",".join(f"i{a + 1}" for a in range(n)) + ",probability"
    lines = _csv_lines(header)
    probs = table.probabilities
    for w in range(probs.shape[0]):
        for combo in np.ndindex(*probs.shape[1:]):
            cells = [str(w), *(str(i) for i in combo), _f(probs[(w, *combo)])]
            lines.append(",".join(cells))
    for w, s in enumerate(table.row_sums):
        lines.append(f"# row_sum w={w}: {_f(s)}")
    lines.append(f"# max_row_deviation: {_f(table.max_row_deviation)}")
    lines.append(f"# max_marginal_deviation: {_f(table.max_marginal_deviation)}")
    return "\n".join(lines) + "\n"


def trajectory_payload(traj: Trajectory, scenario: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "scenario": scenario,
        "seed": traj.seed,
        "points": [[float(t), int(i), float(p)] for t, i, p in traj.points],
    }


def trajectory_csv(traj: Trajectory) -> str:
    lines = _csv_lines("time,index,probability")
    for t, i, p in traj.points:
        lines.append(f"{_f(t)},{i},{_f(p)}")
    return "\n".join(lines) + "\n"


def ensemble_payload(report: EnsembleReport, scenario: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "scenario": scenario,
        "times": [float(t) for t in report.times],
        "frequencies": report.frequencies.tolist(),
        "eigenvalues": report.eigenvalues.tolist(),
        "max_abs_deviation": float(report.max_abs_deviation),
        "sample_count": int(report.sample_count),
        "base_seed": int(report.base_seed),
    }


def ensemble_csv(report: EnsembleReport) -> str:
    lines = _csv_lines("time,index,frequency,eigenvalue")
    n_times, n_labels = report.frequencies.shape
    for k in range(n_times):
        for lab in range(n_labels):
            lines.append(
                f"{_f(report.times[k])},{lab},"
                f"{_f(report.frequencies[k, lab])},{_f(report.eigenvalues[k, lab])}"
            )
    lines.append(f"# max_abs_deviation: {_f(report.max_abs_deviation)}")
    lines.append(f"# sample_count: {report.sample_count}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ input

def _require(data: dict, key: str) -> Any:
    if key not in data:
        raise SchemaError(f"missing required key {key!r}")
    return data[key]


def check_schema_version(data: dict) -> None:
    version = _require(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )


def load_channel_document(data: dict) -> dict:
    """Parse a channel file into raw arrays plus its kind.

    Returns a dict with ``kind`` and kind-specific entries. Construction of
    validated channel objects is left to the caller so that verification can
    report on maps that would fail construction.
    """
    if not isinstance(data, dict):
        raise SchemaError("channel document must be a JSON object")
    check_schema_version(data)
    kind = _require(data, "kind")
    out: dict[str, Any] = {"kind": kind}
    if kind == "kraus":
        ops = [pairs_to_matrix(m) for m in _require(data, "operators")]
        if not ops:
            raise SchemaError("kraus channel needs at least one operator")
        out["operators"] = ops
        out["dim"] = ops[0].shape[0]
    elif kind == "unitary":
        mat = pairs_to_matrix(_require(data, "matrix"))
        out["matrix"] = mat
        out["dim"] = mat.shape[0]
    elif kind == "superoperator":
        mat = pairs_to_matrix(_require(data, "matrix"))
        dim = int(round(np.sqrt(mat.shape[0])))
        if dim * dim != mat.shape[0] or mat.shape[0] != mat.shape[1]:
            raise SchemaError(
                f"superoperator shape {mat.shape} is not (d^2, d^2)"
            )
        out["matrix"] = mat
        out["dim"] = dim
    elif kind == "lindblad":
        out["hamiltonian"] = pairs_to_matrix(_require(data, "hamiltonian"))
        out["jumps"] = [
            (pairs_to_matrix(_require(j, "operator")), float(_require(j, "rate")))
            for j in data.get("jumps", [])
        ]
        out["duration"] = float(data.get("duration", 1.0))
        out["dim"] = out["hamiltonian"].shape[0]
    else:
        raise SchemaError(f"unknown channel kind {kind!r}")
    return out


def scenario_from_document(data: dict) -> Scenario:
    """Build a Scenario from its JSON document."""
    if not isinstance(data, dict):
        raise SchemaError("scenario document must be a JSON object")
    check_schema_version(data)
    if data.get("kind") != "scenario":
        raise SchemaError(f"expected kind 'scenario', got {data.get('kind')!r}")
    layout = layout_from_payload(_require(data, "layout"))
    initial = DensityMatrix(pairs_to_matrix(_require(data, "initial_state")), layout)
    every = tuple(range(layout.n_factors))
    dynamics = data.get("dynamics")
    generator = None
    schedule: tuple = ()
    if dynamics is not None:
        dkind = _require(dynamics, "kind")
        if dkind == "lindblad":
            generator = LindbladGenerator(
                hamiltonian=pairs_to_matrix(_require(dynamics, "hamiltonian")),
                jumps=tuple(
                    (pairs_to_matrix(_require(j, "operator")), float(_require(j, "rate")))
                    for j in dynamics.get("jumps", [])
                ),
            )
        elif dkind == "schedule":
            schedule = tuple(
                (every, unitary_channel(pairs_to_matrix(m)))
                for m in _require(dynamics, "unitaries")
            )
        elif dkind == "kraus":
            ops = tuple(pairs_to_matrix(m) for m in _require(dynamics, "operators"))
            schedule = ((every, KrausChannel(ops)),)
        else:
            raise SchemaError(f"unknown dynamics kind {dkind!r}")
    return Scenario(
        name=str(data.get("name", "file-scenario")),
        layout=layout,
        initial_state=initial,
        generator=generator,
        schedule=schedule,
    )


def _embed(
    op: np.ndarray, layout: SystemLayout, positions: tuple[int, ...]
) -> np.ndarray:
    """Dense operator on every factor for a step acting on ``positions``.

    The step is applied to the identity with the same kernel that applies it
    to states.
    """
    if positions == tuple(range(layout.n_factors)):
        return op
    d = layout.total_dim
    check_memory(d * d, "a dense schedule step")
    eye = np.eye(d, dtype=complex).reshape(layout.dims * 2)
    return apply_local(op, eye, positions).reshape(d, d)


def scenario_to_document(sc: Scenario) -> dict:
    """Serialize a Scenario (inverse of :func:`scenario_from_document`).

    Discrete schedules are stored through their Kraus operators, each
    embedded as a dense operator on every factor in layout order; a
    ``PureState`` is stored as its density matrix. Oracle callables are not
    serialized.
    """
    dynamics: Optional[dict] = None
    if sc.generator is not None:
        dynamics = {
            "kind": "lindblad",
            "hamiltonian": matrix_to_pairs(sc.generator.hamiltonian),
            "jumps": [
                {"operator": matrix_to_pairs(op), "rate": float(rate)}
                for op, rate in sc.generator.jumps
            ],
        }
    elif sc.schedule:
        steps = [
            [matrix_to_pairs(_embed(k, sc.layout, positions)) for k in ch.operators]
            for positions, ch in sc.schedule
        ]
        if all(len(ops) == 1 for ops in steps):
            dynamics = {"kind": "schedule", "unitaries": [ops[0] for ops in steps]}
        elif len(steps) == 1:
            dynamics = {"kind": "kraus", "operators": steps[0]}
        else:
            raise ModalDynError(
                "cannot serialize a multi-step schedule of non-unitary channels"
            )
    initial = sc.initial_state
    if isinstance(initial, PureState):
        initial = initial.reduce(sc.layout.labels)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scenario",
        "name": sc.name,
        "layout": layout_payload(sc.layout),
        "initial_state": matrix_to_pairs(initial.matrix),
        "dynamics": dynamics,
    }
