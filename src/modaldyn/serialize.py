"""Stable JSON/CSV encodings for every object that crosses the CLI boundary.

Conventions (see SCHEMA.md at the repository root):

* every JSON document carries a top-level ``schema_version`` (currently 1);
* complex scalars encode as two-element ``[re, im]`` arrays, and complex
  arrays of any shape (vectors, matrices, operator stacks) row-major as
  nested lists of them; one encoder and one decoder convert whole arrays;
* JSON is emitted with sorted keys and 2-space indent, CSV with ``repr``
  floats, so identical inputs produce byte-identical files.

The writer formats whole arrays: the payload functions hand it numeric
``ndarray`` values, and :func:`dumps_json` joins the ``float.__repr__``
texts of each one axis at a time, innermost first, its bytes those of
``json.dumps(payload_as_lists, indent=2, sort_keys=True) + "\n"``. The
CSV writers hand :func:`_csv`, the one CSV layout, their columns of the
same ``repr`` texts and their comment lines.
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

import numpy as np

from .channels import CptReport, KrausChannel, LindbladGenerator, unitary_channel
from .errors import LayoutMismatchError
from .linalg import SystemLayout, check_finite
from .scenarios import Scenario
from .states import DensityMatrix, EpistemicState

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
    Regular nested lists of floats are read level by level, and their
    entries in one pass; numpy reads any other input. A boolean is refused.
    """
    level, lengths = [data], []
    try:
        for _ in range(ndim + 1):
            lengths.append(set(map(len, level)))
            level = list(itertools.chain.from_iterable(level))
        types = set(map(type, level))
    except TypeError:  # a number or null above the entries
        types = set()
    if types == {float} and all(len(n) == 1 for n in lengths):
        arr = np.fromiter(level, float, len(level)).reshape([n.pop() for n in lengths])
    else:
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
    if bool in types or arr.dtype.kind not in "iuf":
        raise SchemaError(
            "[re, im] entries must be numbers, not null, booleans, strings, "
            "objects or integers wider than 64 bits"
        )
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise SchemaError(
            f"expected {ndim} axes of [re, im] pairs, got an array of shape {arr.shape}"
        )
    return arr.astype(float, copy=False).view(complex)[..., 0]


def layout_payload(layout: SystemLayout) -> dict:
    return {"dims": list(layout.dims), "labels": list(layout.labels)}


def layout_from_payload(data: Any) -> SystemLayout:
    try:
        dims, labels = data["dims"], data["labels"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad layout payload: {exc}") from exc
    rules = (("dims", dims, int, "positive integers"), ("labels", labels, str, "strings"))
    for key, items, kind, what in rules:
        if type(items) is not list:
            raise SchemaError(f"'{key}' must be a list, got {type(items).__name__}")
        for x in items:
            if type(x) is not kind or (kind is int and x < 1):
                raise SchemaError(f"layout {key} must be {what}, got {x!r}")
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
    fields), as :func:`_json` writes its ``tolist()``.

    The number texts are joined one axis at a time, innermost first: each
    run of ``shape[depth]`` texts becomes one list at that depth's indent.
    Non-finite numbers take JSON's spellings.
    """
    items = _json_leaves(a)
    shape = a.shape + ((len(a.dtype.names),) if a.dtype.names else ())
    for depth in reversed(range(len(shape))):
        inner, outer = newline + "  " * (depth + 1), newline + "  " * depth
        runs, sep = zip(*[iter(items)] * shape[depth]), "," + inner
        items = [f"[{inner}{sep.join(run)}{outer}]" for run in runs]
    return items[0]


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


def _csv(
    header: str, columns: Sequence[Iterable[str]], comments: Iterable[str] = ()
) -> str:
    """The one CSV layout: the schema comment, ``header``, one line per row
    of ``columns`` (each the texts of one column), a ``# `` line per
    comment, and a final newline."""
    # CSV outputs carry the schema version as a leading comment so they are
    # versioned like the JSON documents; gnuplot and friends skip # lines
    lines = [f"# schema_version: {SCHEMA_VERSION}", header]
    lines += map(",".join, zip(*columns))
    lines += (f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


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
    n = len(e.probabilities)
    degenerate = np.zeros(n, dtype=int)
    degenerate[[i for c in e.degenerate_clusters for i in c]] = 1
    columns = (map(repr, range(n)), _floats(e.probabilities), map(repr, degenerate.tolist()))
    comment = f"truncation_mass: {float(e.truncation_mass)!r}"
    return _csv("index,probability,degenerate", columns, [comment])


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
    probs = table.probabilities
    index = itertools.product(*(list(map(repr, range(n))) for n in probs.shape))
    comments = [f"row_sum w={w}: {s}" for w, s in enumerate(_floats(table.row_sums))]
    comments.append(f"max_row_deviation: {float(table.max_row_deviation)!r}")
    comments.append(f"max_marginal_deviation: {float(table.max_marginal_deviation)!r}")
    return _csv(header, (map(",".join, index), _floats(probs)), comments)


def trajectory_payload(traj: Trajectory, scenario: str) -> dict:
    from .trajectories import RNG_CONTRACT

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "scenario": scenario,
        "seed": traj.seed,
        "rng": dict(RNG_CONTRACT),
        # the sampled records, which the writer lists as [time, index, probability]
        "points": traj.points,
    }


def trajectory_csv(traj: Trajectory) -> str:
    p = traj.points
    columns = (_floats(p["time"]), map(repr, p["index"].tolist()), _floats(p["probability"]))
    return _csv("time,index,probability", columns)


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
    n_times, n_labels = report.frequencies.shape
    columns = (
        _floats(np.repeat(report.times, n_labels)),
        map(repr, np.tile(np.arange(n_labels), n_times).tolist()),
        _floats(report.frequencies),
        _floats(report.eigenvalues),
    )
    comments = (
        f"max_abs_deviation: {float(report.max_abs_deviation)!r}",
        f"sample_count: {report.sample_count}",
    )
    return _csv("time,index,frequency,eigenvalue", columns, comments)


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
    keys = sorted(payload)
    return _csv("field,value", (keys, [f"{payload[k]}" for k in keys]))


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


def _square(what: str, a: np.ndarray, d: Optional[int] = None, of: str = "") -> None:
    """Refuse ``a`` unless the matrices on its last two axes are square, and
    ``d x d`` if ``d`` is given (``of`` says why)."""
    rows, cols = a.shape[-2:]
    if rows != cols or d not in (None, rows):
        want = "square" if d is None else f"{d} x {d}{of}"
        raise SchemaError(f"{what} must be {want}, got {rows} x {cols}")


def _matrix(
    data: Any, key: str, name: str, ndim: int = 2, d: Optional[int] = None, of: str = ""
) -> np.ndarray:
    """The matrix under ``key``, or with ``ndim=3`` the stack of matrices,
    refused unless square (``d x d`` if ``d`` is given, ``of`` saying why)
    and finite (``name`` names its entries in the message)."""
    a = pairs_to_matrix(_require(data, key), ndim)
    _square(("each of " if ndim == 3 else "") + repr(key), a, d, of)
    check_finite(a, name)
    return a


def _lindblad(
    data: dict, d: Optional[int] = None, of: str = ""
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, float], ...]]:
    """The raw Hamiltonian and ``(operator, rate)`` jumps of Lindblad data, their
    shapes checked as :func:`_matrix` checks one (each jump like the Hamiltonian);
    their entries are left to ``LindbladGenerator``."""
    hamiltonian = pairs_to_matrix(_require(data, "hamiltonian"))
    jumps = data.get("jumps", [])
    if not isinstance(jumps, list):
        raise SchemaError(f"'jumps' must be a list, got {type(jumps).__name__}")
    jumps = tuple(
        (pairs_to_matrix(_require(j, "operator")), _number(j, "rate")) for j in jumps
    )
    _square("'hamiltonian'", hamiltonian, d, of)
    for i, (op, _) in enumerate(jumps):
        _square(f"jump {i} operator", op, len(hamiltonian), of or " like 'hamiltonian'")
    return hamiltonian, jumps


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
        ops = _matrix(data, "operators", "Kraus operator", ndim=3)
        out["operators"], out["dim"] = ops, ops.shape[-1]
    elif kind == "unitary":
        mat = _matrix(data, "matrix", "unitary")
        out["operators"], out["dim"] = mat[None], len(mat)
    elif kind == "superoperator":
        mat = pairs_to_matrix(_require(data, "matrix"))
        dim = int(round(np.sqrt(mat.shape[0])))
        if dim * dim != mat.shape[0] or mat.shape[0] != mat.shape[1]:
            raise SchemaError(f"superoperator shape {mat.shape} is not (d^2, d^2)")
        check_finite(mat, "superoperator")
        out["matrix"], out["dim"] = mat, dim
    elif kind == "lindblad":
        out["hamiltonian"], out["jumps"] = _lindblad(data)
        out["duration"] = _number(data, "duration", 1.0)
        out["dim"] = len(out["hamiltonian"])
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
    d, of = layout.total_dim, f" for layout dims {list(layout.dims)}"
    state = _matrix(data, "initial_state", "initial state", d=d, of=of)
    every = tuple(range(layout.n_factors))
    doc = data.get("dynamics")
    dynamics = None
    if doc is not None:
        dkind = _require(doc, "kind")
        if dkind == "lindblad":
            dynamics = LindbladGenerator(*_lindblad(doc, d, of))
        elif dkind == "schedule":
            unitaries = _matrix(doc, "unitaries", "unitary", 3, d, of)
            dynamics = tuple((every, unitary_channel(u)) for u in unitaries)
        elif dkind == "kraus":
            ops = _matrix(doc, "operators", "Kraus operator", 3, d, of)
            dynamics = ((every, KrausChannel(ops)),)
        else:
            raise SchemaError(f"unknown dynamics kind {dkind!r}")
    return Scenario(
        name=str(data.get("name", "file-scenario")),
        initial_state=DensityMatrix(state, layout),
        dynamics=dynamics,
    )
