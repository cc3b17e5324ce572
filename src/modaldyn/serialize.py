"""Stable JSON/CSV encodings for every object that crosses the CLI boundary.

Conventions (see SCHEMA.md at the repository root):

* every JSON document carries a top-level ``schema_version`` (currently 1);
* complex scalars encode as two-element ``[re, im]`` arrays, and complex
  arrays of any shape (vectors, matrices, operator stacks) row-major as
  nested lists of them; one encoder and one decoder convert whole arrays;
* JSON is emitted with sorted keys and 2-space indent, CSV with ``repr``
  floats, so identical inputs produce byte-identical files.

The writer formats whole arrays: the payload functions hand it numeric
``ndarray`` values, and :func:`dumps_json` writes each as one join of
``float.__repr__`` texts, its bytes those of ``json.dumps(payload_as_lists,
indent=2, sort_keys=True) + "\n"``; the CSV writers build their lines
from the same ``repr`` texts, column by column where the data is stored
by column.
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from .channels import CptReport, KrausChannel, LindbladGenerator, amplitudes, unitary_channel
from .errors import LayoutMismatchError, ModalDynError
from .linalg import SystemLayout, check_finite, check_memory
from .scenarios import Scenario
from .states import DensityMatrix, EpistemicState, PureState

# Annotations only: the CLI loads these modules just for the subcommands that run them.
if TYPE_CHECKING:
    from .conditional import ConditionalTable
    from .trajectories import EnsembleReport, Trajectory

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


# ---------------------------------------------------------------- encoding

def _pair_array(a: Any) -> np.ndarray:
    """``a`` as floats, each complex entry its ``[re, im]`` pair on a new last axis."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def matrix_to_pairs(a: Any) -> list:
    """Nested lists of ``[re, im]`` pairs, one per entry of an array of any shape."""
    return _pair_array(a).tolist()


def pairs_to_matrix(data: Any, ndim: int = 2) -> np.ndarray:
    """The complex array that ``ndim`` axes of ``[re, im]`` pairs encode.

    The pairs are read bit for bit: each ``[re, im]`` becomes one complex
    entry through a view, so an infinite or NaN part stays in its place.
    """
    try:
        arr = np.array(data)
    except ValueError as exc:
        raise SchemaError(
            "expected a regular nested list of [re, im] pairs; "
            "rows differ in length or depth"
        ) from exc
    if arr.size == 0:
        raise SchemaError(
            f"expected [re, im] pairs, got an empty array of shape {arr.shape}"
        )
    if arr.dtype.kind not in "iuf":
        raise SchemaError(
            "[re, im] entries must be numbers, not null, booleans, strings, "
            "objects or integers wider than 64 bits"
        )
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise SchemaError(
            f"expected {ndim} axes of [re, im] pairs, got an array of shape {arr.shape}"
        )
    return arr.astype(float).view(complex)[..., 0]


def layout_payload(layout: SystemLayout) -> dict:
    return {"dims": list(layout.dims), "labels": list(layout.labels)}


def layout_from_payload(data: Any) -> SystemLayout:
    try:
        dims, labels = tuple(data["dims"]), tuple(data["labels"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad layout payload: {exc}") from exc
    for d in dims:
        if type(d) is not int or d < 1:
            raise SchemaError(f"layout dims must be positive integers, got {d!r}")
    try:
        return SystemLayout(dims, labels)
    except LayoutMismatchError as exc:
        raise SchemaError(f"bad layout: {exc}") from exc


def dumps_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, each
    ``ndarray`` in ``payload`` written as its ``tolist()`` would be.

    Keys, strings, ints, bools and empty containers go through
    ``json.dumps`` one at a time, and a float or record array is written
    whole: the standard library's indenting encoder is pure Python and
    makes several calls per number.
    """
    return _json(payload, "\n") + "\n"


def _json(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it
    where its lines start with ``newline``, a line break and an indent."""
    if isinstance(value, np.ndarray):
        if value.ndim and value.size and (value.dtype.kind == "f" or value.dtype.names):
            return _json_array(value, newline)
        value = value.tolist()
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_json(value[k], inner)}" for k in sorted(value)]
    elif isinstance(value, (list, tuple)) and value:
        items = [_json(v, inner) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _json_array(a: np.ndarray, newline: str) -> str:
    """A float array, or records of floats and ints (each a list of its
    fields), as :func:`_json` writes its ``tolist()``, in one join.

    Between two numbers the text depends only on how many trailing axes
    close there, so it is one of ``ndim`` strings, picked for every
    position at once; non-finite numbers take JSON's spellings.
    """
    leaves = _json_leaves(a)
    shape = a.shape + ((len(a.dtype.names),) if a.dtype.names else ())
    k = len(shape)
    pad = [newline + "  " * depth for depth in range(k + 1)]

    def opens(c: int) -> str:
        return "".join(pad[m] + "[" for m in range(k - c, k)) + pad[k]

    def closes(c: int) -> str:
        return "".join(pad[m] + "]" for m in reversed(range(k - c, k)))

    seps = [closes(c) + "," + opens(c) for c in range(k)]
    closing = np.zeros(len(leaves) - 1, dtype=np.intp)
    at = np.arange(1, len(leaves))
    for size in np.cumprod(shape[::-1])[:-1].tolist():
        closing += at % size == 0
    text = [""] * (2 * len(leaves) - 1)
    text[::2] = leaves
    text[1::2] = np.array(seps, dtype=object)[closing].tolist()
    return "[" + opens(k - 1) + "".join(text) + closes(k)


def _json_leaves(a: np.ndarray) -> list[str]:
    """JSON text of each number of a float, integer or record array,
    row-major, a record giving its fields in turn."""
    if a.dtype.names:
        columns = [_json_leaves(a[name]) for name in a.dtype.names]
        return list(itertools.chain.from_iterable(zip(*columns)))
    if a.dtype.kind != "f":
        return list(map(repr, a.ravel().tolist()))
    text = _floats(a)
    for j in np.flatnonzero(~np.isfinite(a.ravel())).tolist():
        text[j] = json.dumps(float(a.flat[j]))
    return text


def _floats(a: Any) -> list[str]:
    """``repr`` of each entry of ``a`` as a float, row-major."""
    return list(map(float.__repr__, np.asarray(a, dtype=float).ravel().tolist()))


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
        "vectors": _pair_array(e.vectors.T),
    }


def epistemic_csv(e: EpistemicState) -> str:
    lines = _csv_lines("index,probability,degenerate")
    n = len(e.probabilities)
    degenerate = np.zeros(n, dtype=int)
    degenerate[[i for c in e.degenerate_clusters for i in c]] = 1
    columns = (map(repr, range(n)), _floats(e.probabilities), map(repr, degenerate.tolist()))
    lines += map(",".join, zip(*columns))
    lines.append(f"# truncation_mass: {float(e.truncation_mass)!r}")
    return "\n".join(lines) + "\n"


def _entries_summary(e: EpistemicState) -> dict:
    return {
        "probabilities": e.probabilities,
        "degenerate_clusters": [list(c) for c in e.degenerate_clusters],
        "truncation_mass": float(e.truncation_mass),
    }


def table_payload(
    table: ConditionalTable,
    scenario: str,
    times: tuple[float, float],
    channel_id: str,
) -> dict:
    """The ``conditional`` document of a table taken at ``times[0]`` and
    read at ``times[1]``, across the dynamics ``channel_id`` names."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "conditional",
        "scenario": scenario,
        "mode": table.mode,
        "channel_id": channel_id,
        "times": [float(t) for t in times],
        "blocks": [list(b) for b in table.partition.blocks],
        "parent": _entries_summary(table.parent),
        "block_entries": [_entries_summary(b) for b in table.blocks],
        "probabilities": table.probabilities,
        "row_sums": table.row_sums,
        "max_row_deviation": float(table.max_row_deviation),
        "max_marginal_deviation": float(table.max_marginal_deviation),
    }


def table_csv(table: ConditionalTable) -> str:
    n = table.partition.n_blocks
    header = "w," + ",".join(f"i{a + 1}" for a in range(n)) + ",probability"
    lines = _csv_lines(header)
    probs = table.probabilities
    index = itertools.product(*(list(map(repr, range(n))) for n in probs.shape))
    lines += map(",".join, zip(map(",".join, index), _floats(probs)))
    lines += [f"# row_sum w={w}: {s}" for w, s in enumerate(_floats(table.row_sums))]
    lines.append(f"# max_row_deviation: {float(table.max_row_deviation)!r}")
    lines.append(f"# max_marginal_deviation: {float(table.max_marginal_deviation)!r}")
    return "\n".join(lines) + "\n"


def trajectory_payload(traj: Trajectory, scenario: str) -> dict:
    from .trajectories import RNG_CONTRACT

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "scenario": scenario,
        "seed": traj.seed,
        "rng": dict(RNG_CONTRACT),
        # records, which the writer lists as [time, index, probability]
        "points": np.array(
            list(traj.points),
            dtype=[("time", float), ("index", np.int64), ("probability", float)],
        ),
    }


def trajectory_csv(traj: Trajectory) -> str:
    # the points are stored as rows, and one f-string a row formats them
    # faster than a round trip through columns
    lines = _csv_lines("time,index,probability")
    lines += [f"{float(t)!r},{i},{float(p)!r}" for t, i, p in traj.points]
    return "\n".join(lines) + "\n"


def ensemble_payload(report: EnsembleReport, scenario: str) -> dict:
    from .trajectories import RNG_CONTRACT

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "scenario": scenario,
        "times": np.asarray(report.times, dtype=float),
        "frequencies": report.frequencies,
        "eigenvalues": report.eigenvalues,
        "max_abs_deviation": float(report.max_abs_deviation),
        "sample_count": int(report.sample_count),
        "base_seed": int(report.base_seed),
        "rng": dict(RNG_CONTRACT),
    }


def ensemble_csv(report: EnsembleReport) -> str:
    lines = _csv_lines("time,index,frequency,eigenvalue")
    n_times, n_labels = report.frequencies.shape
    columns = (
        _floats(np.repeat(report.times, n_labels)),
        map(repr, np.tile(np.arange(n_labels), n_times).tolist()),
        _floats(report.frequencies),
        _floats(report.eigenvalues),
    )
    lines += map(",".join, zip(*columns))
    lines.append(f"# max_abs_deviation: {float(report.max_abs_deviation)!r}")
    lines.append(f"# sample_count: {report.sample_count}")
    return "\n".join(lines) + "\n"


def cpt_report_payload(
    report: CptReport, channel_kind: str, dim: int, tol: float
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cpt_report",
        "channel_kind": channel_kind,
        "dim": int(dim),
        "tol": tol,
        "is_cp": report.is_cp,
        "is_tp": report.is_tp,
        "choi_min_eigenvalue": report.choi_min_eigenvalue,
        "completeness_residual": report.completeness_residual,
    }


def cpt_report_csv(payload: dict) -> str:
    """One ``field,value`` row per field of a ``cpt_report`` payload, sorted."""
    lines = _csv_lines("field,value")
    lines += [f"{key},{payload[key]}" for key in sorted(payload)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ input

def _require(data: Any, key: str) -> Any:
    if not isinstance(data, dict):
        raise SchemaError(
            f"expected a JSON object with key {key!r}, got {type(data).__name__}"
        )
    if key not in data:
        raise SchemaError(f"missing required key {key!r}")
    return data[key]


def _number(data: dict, key: str, default: Optional[float] = None) -> float:
    """``data[key]`` as a float; ``default`` when it is absent, if one is given."""
    value = _require(data, key) if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{key!r} is out of the float range: {exc}") from exc


def check_schema_version(data: dict) -> None:
    version = _require(data, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )


def _lindblad(data: dict) -> tuple[np.ndarray, tuple[tuple[np.ndarray, float], ...]]:
    """The raw Hamiltonian and ``(operator, rate)`` jumps of Lindblad data."""
    hamiltonian = pairs_to_matrix(_require(data, "hamiltonian"))
    jumps = data.get("jumps", [])
    if not isinstance(jumps, list):
        raise SchemaError(f"'jumps' must be a list, got {type(jumps).__name__}")
    return hamiltonian, tuple(
        (pairs_to_matrix(_require(j, "operator")), _number(j, "rate")) for j in jumps
    )


def _square(what: str, a: np.ndarray, d: Optional[int] = None, of: str = "") -> int:
    """The side of the matrices on ``a``'s last two axes, refused unless
    they are square, and ``d x d`` if ``d`` is given (``of`` says why)."""
    rows, cols = a.shape[-2:]
    if rows != cols or d not in (None, rows):
        want = "square" if d is None else f"{d} x {d}{of}"
        raise SchemaError(f"{what} must be {want}, got {rows} x {cols}")
    return rows


def load_channel_document(data: dict) -> dict:
    """Parse a channel file into raw arrays plus its kind.

    Returns a dict with ``kind``, ``dim`` and the kind's arrays: Kraus
    ``operators`` as one ``(n, d, d)`` stack (a unitary is its one
    operator), a superoperator ``matrix``, or a Lindblad ``hamiltonian``,
    ``jumps`` and ``duration``. Every matrix is checked to be square, each
    jump operator to have the Hamiltonian's shape, and Kraus, unitary and
    superoperator entries to be finite (``LindbladGenerator`` checks its
    own). Construction of validated channel objects is left to the caller
    so that verification can report on maps that would fail construction.
    """
    check_schema_version(data)
    kind = _require(data, "kind")
    out: dict[str, Any] = {"kind": kind}
    if kind == "kraus":
        ops = pairs_to_matrix(_require(data, "operators"), ndim=3)
        out["dim"] = _square("each of 'operators'", ops)
        check_finite(ops, "Kraus operator")
        out["operators"] = ops
    elif kind == "unitary":
        mat = pairs_to_matrix(_require(data, "matrix"))
        out["dim"] = _square("'matrix'", mat)
        check_finite(mat, "unitary")
        out["operators"] = mat[None]
    elif kind == "superoperator":
        mat = pairs_to_matrix(_require(data, "matrix"))
        dim = int(round(np.sqrt(mat.shape[0])))
        if dim * dim != mat.shape[0] or mat.shape[0] != mat.shape[1]:
            raise SchemaError(
                f"superoperator shape {mat.shape} is not (d^2, d^2)"
            )
        check_finite(mat, "superoperator")
        out["matrix"] = mat
        out["dim"] = dim
    elif kind == "lindblad":
        hamiltonian, jumps = _lindblad(data)
        d = _square("'hamiltonian'", hamiltonian)
        for i, (op, _) in enumerate(jumps):
            _square(f"jump {i} operator", op, d, " like 'hamiltonian'")
        out["hamiltonian"], out["jumps"] = hamiltonian, jumps
        out["duration"] = _number(data, "duration", 1.0)
        out["dim"] = d
    else:
        raise SchemaError(f"unknown channel kind {kind!r}")
    return out


def scenario_from_document(data: dict) -> Scenario:
    """Build a Scenario from its JSON document.

    Every matrix is checked to be ``d x d``, ``d`` the layout's dimension,
    and to have finite entries, before anything is built from it.
    """
    check_schema_version(data)
    if data.get("kind") != "scenario":
        raise SchemaError(f"expected kind 'scenario', got {data.get('kind')!r}")
    layout = layout_from_payload(_require(data, "layout"))
    d = layout.total_dim

    def square(what: str, a: np.ndarray) -> None:
        _square(what, a, d, f" for layout dims {list(layout.dims)}")

    state = pairs_to_matrix(_require(data, "initial_state"))
    square("'initial_state'", state)
    check_finite(state, "initial state")
    every = tuple(range(layout.n_factors))
    doc = data.get("dynamics")
    dynamics = None
    if doc is not None:
        dkind = _require(doc, "kind")
        if dkind == "lindblad":
            hamiltonian, jumps = _lindblad(doc)
            square("'hamiltonian'", hamiltonian)
            for i, (op, _) in enumerate(jumps):
                square(f"jump {i} operator", op)
            dynamics = LindbladGenerator(hamiltonian, jumps)
        elif dkind == "schedule":
            unitaries = pairs_to_matrix(_require(doc, "unitaries"), ndim=3)
            square("each of 'unitaries'", unitaries)
            check_finite(unitaries, "unitary")
            dynamics = tuple((every, unitary_channel(u)) for u in unitaries)
        elif dkind == "kraus":
            ops = pairs_to_matrix(_require(doc, "operators"), ndim=3)
            square("each of 'operators'", ops)
            check_finite(ops, "Kraus operator")
            dynamics = ((every, KrausChannel(ops)),)
        else:
            raise SchemaError(f"unknown dynamics kind {dkind!r}")
    return Scenario(
        name=str(data.get("name", "file-scenario")),
        initial_state=DensityMatrix(state, layout),
        dynamics=dynamics,
    )


def _embed(
    step: tuple[tuple[int, ...], KrausChannel], layout: SystemLayout
) -> Sequence[np.ndarray]:
    """Dense operators on every factor of a schedule step ``(positions, channel)``.

    The step acts on the identity through ``channels.amplitudes``, the kernel
    that applies it to states. A step on every factor is its own operators,
    so an entry ``-0.0`` is written as it is, not as a product's ``0.0``.
    """
    positions, ch = step
    if positions == tuple(range(layout.n_factors)):
        return ch.operators
    d = layout.total_dim
    check_memory(d * d, "a dense schedule step")
    return amplitudes((step,), np.eye(d, dtype=complex), layout)


def scenario_to_document(sc: Scenario) -> dict:
    """Serialize a Scenario (inverse of :func:`scenario_from_document`).

    Discrete schedules are stored through their Kraus operators, each
    embedded as a dense operator on every factor in layout order; a
    ``PureState`` is stored as its density matrix.
    """
    dynamics: Optional[dict] = None
    if isinstance(sc.dynamics, LindbladGenerator):
        dynamics = {
            "kind": "lindblad",
            "hamiltonian": matrix_to_pairs(sc.dynamics.hamiltonian),
            "jumps": [
                {"operator": matrix_to_pairs(op), "rate": float(rate)}
                for op, rate in sc.dynamics.jumps
            ],
        }
    elif sc.dynamics:
        steps = [
            [matrix_to_pairs(op) for op in _embed(step, sc.layout)]
            for step in sc.dynamics
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
