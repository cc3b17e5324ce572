import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modaldyn import (
    DensityMatrix,
    LindbladGenerator,
    Partition,
    PureState,
    Scenario,
    SystemLayout,
    conditional_table,
    dephasing_qubit,
    epr_bohm,
    extract_epistemic,
    ghz_mermin,
    von_neumann_measurement,
)
from modaldyn.serialize import (
    SCHEMA_VERSION,
    SchemaError,
    cpt_report_payload,
    dumps_json,
    ensemble_csv,
    ensemble_payload,
    epistemic_csv,
    epistemic_payload,
    layout_from_payload,
    layout_payload,
    load_channel_document,
    matrix_to_pairs,
    pairs_to_matrix,
    scenario_from_document,
    table_csv,
    table_payload,
    trajectory_csv,
    trajectory_payload,
)
from modaldyn.channels import CptReport
from modaldyn.trajectories import POINT, EnsembleReport, Trajectory

from oracles import per_element_pairs, per_entry_csv_rows, scenario_document
from random_objects import random_density_matrix, random_kraus_channel


def test_complex_pair_roundtrip():
    zs = [0.0, 1.0, -2.5 + 0.75j, 1e-30j]
    for z in zs:
        assert pairs_to_matrix(matrix_to_pairs(z), ndim=0).item() == complex(z)
    m = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    assert np.array_equal(pairs_to_matrix(matrix_to_pairs(m)), m)


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5e-310, 1e308]


@st.composite
def complex_or_int_arrays(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, shape))
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    parts = draw(hnp.arrays(np.float64, shape + (2,), elements=floats))
    # joined through a view, so a NaN keeps its payload and sign
    return parts.view(complex)[..., 0]


@settings(max_examples=60, deadline=None)
@given(complex_or_int_arrays())
@example(np.array([-0.0, complex(0.0, math.inf), complex(math.nan, -0.0)]))
@example(np.array([[1, -2], [3, 2**62]]))
def test_array_codec_matches_per_element_encoding_and_round_trips(a):
    pairs = matrix_to_pairs(a)
    assert json.dumps(pairs) == json.dumps(per_element_pairs(a))
    back = pairs_to_matrix(pairs, ndim=a.ndim)
    want = np.asarray(a, dtype=complex)
    assert back.shape == want.shape
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "data, ndim, message",
    [
        ([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], 2, "regular nested list"),
        ([], 2, "empty array of shape (0,)"),
        ([[]], 2, "empty array of shape (1, 0)"),
        ([[[1.0, None]]], 2, "must be numbers"),
        ([[[1.0, {}]]], 2, "must be numbers"),
        ([[["1", 0.0]]], 2, "must be numbers"),
        ([[[True, False]]], 2, "must be numbers"),
        ([[[1.0, True], [0.0, 0.0]], [[0.0, 0.0], [False, 0.0]]], 2, "must be numbers"),
        ([[[1, 0], [0, True]]], 2, "must be numbers"),
        (5, 3, "3 axes of [re, im] pairs, got an array of shape ()"),
        ([[[1.0, 0.0, 0.0]]], 2, "got an array of shape (1, 1, 3)"),
    ],
    ids=[
        "ragged", "empty", "empty-row", "null", "object", "string", "bool",
        "bool-among-floats", "bool-among-ints", "scalar", "triple",
    ],
)
def test_pairs_to_matrix_refuses_what_is_not_an_array_of_pairs(data, ndim, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        pairs_to_matrix(data, ndim=ndim)


def test_layout_roundtrip():
    layout = SystemLayout(dims=(2, 3), labels=("A", "B"))
    assert layout_from_payload(layout_payload(layout)) == layout


def test_json_output_is_stable():
    payload = {"b": 1.0, "a": [1, 2], "nested": {"y": 0.1, "x": True}}
    s1 = dumps_json(payload)
    s2 = dumps_json(json.loads(s1))
    assert s1 == s2
    assert s1.endswith("\n")
    # keys are sorted so insertion order cannot leak into the bytes
    assert s1.index('"a"') < s1.index('"b"')


def test_epistemic_payload_and_csv():
    sc = epr_bohm()
    e = extract_epistemic(sc.initial_state.reduce(("A",)))
    payload = epistemic_payload(e, "epr-bohm", ("A",), 0.0)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["kind"] == "epistemic"
    assert payload["degenerate_clusters"] == [[0, 1]]
    assert len(payload["probabilities"]) == 2
    text = epistemic_csv(e)
    lines = text.strip().splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == "index,probability,degenerate"
    assert lines[-1].startswith("# truncation_mass:")


def test_table_payload_and_csv():
    sc = ghz_mermin()
    part = Partition(sc.layout, (("A",), ("B",), ("C",)))
    table = conditional_table(sc.initial_state, None, part, mode="permissive")
    payload = table_payload(table, "ghz-mermin", (0.0, 0.5), "test-channel")
    assert payload["kind"] == "conditional"
    assert payload["mode"] == "permissive"
    assert (payload["times"], payload["channel_id"]) == ([0.0, 0.5], "test-channel")
    probs = np.asarray(payload["probabilities"])
    assert probs.shape == (1, 2, 2, 2)
    text = table_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == "w,i1,i2,i3,probability"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 8


def test_channel_document_kinds():
    k0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8366600265340756, 0.0]]]
    doc = {
        "schema_version": 1,
        "kind": "kraus",
        "operators": [k0],
    }
    out = load_channel_document(doc)
    assert out["kind"] == "kraus"
    assert out["dim"] == 2
    assert len(out["operators"]) == 1

    sup = {
        "schema_version": 1,
        "kind": "superoperator",
        "matrix": matrix_to_pairs(np.eye(4)),
    }
    out = load_channel_document(sup)
    assert out["dim"] == 2

    lind = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(np.zeros((2, 2))),
        "jumps": [{"operator": matrix_to_pairs(np.diag([1.0, -1.0])), "rate": 0.5}],
        "duration": 2.0,
    }
    out = load_channel_document(lind)
    assert out["duration"] == 2.0
    assert out["jumps"][0][1] == 0.5


def test_channel_document_rejects_bad_input():
    with pytest.raises(SchemaError):
        load_channel_document({"kind": "kraus"})  # no schema_version
    with pytest.raises(SchemaError):
        load_channel_document({"schema_version": 99, "kind": "kraus"})
    with pytest.raises(SchemaError):
        load_channel_document({"schema_version": 1, "kind": "nonsense"})
    with pytest.raises(SchemaError):
        load_channel_document(
            {
                "schema_version": 1,
                "kind": "superoperator",
                "matrix": matrix_to_pairs(np.eye(3)),  # 3 is not a square
            }
        )


def test_scenario_document_roundtrip():
    layout = SystemLayout.qubits(("Q",))
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), layout)
    doc = {
        "schema_version": 1,
        "kind": "scenario",
        "name": "custom",
        "layout": layout_payload(layout),
        "initial_state": matrix_to_pairs(rho.matrix),
        "dynamics": {
            "kind": "lindblad",
            "hamiltonian": matrix_to_pairs(np.zeros((2, 2))),
            "jumps": [
                {"operator": matrix_to_pairs(np.diag([1.0, -1.0])), "rate": 1.0}
            ],
        },
    }
    sc = scenario_from_document(doc)
    assert sc.name == "custom"
    assert isinstance(sc.dynamics, LindbladGenerator)
    doc2 = scenario_document(sc)
    assert scenario_from_document(doc2).layout == sc.layout
    assert np.array_equal(
        scenario_from_document(doc2).initial_state.matrix, sc.initial_state.matrix
    )


def test_scenario_document_static_and_schedule():
    layout = SystemLayout.qubits(("Q",))
    base = {
        "schema_version": 1,
        "kind": "scenario",
        "layout": layout_payload(layout),
        "initial_state": matrix_to_pairs(np.diag([1.0, 0.0])),
    }
    static = scenario_from_document(dict(base, dynamics=None))
    assert static.dynamics is None
    had = dict(
        base,
        dynamics={
            "kind": "schedule",
            "unitaries": [matrix_to_pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))],
        },
    )
    flip = scenario_from_document(had)
    assert len(flip.dynamics) == 1
    after = flip.state_at(0)
    assert np.abs(after.matrix - np.diag([0.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize(
    "dims, kind", [({"2": 0}, "dict"), ("2", "str"), (5, "int")], ids=["dict", "str", "int"]
)
def test_layout_dims_that_are_not_a_list_are_refused(dims, kind):
    # an object's keys or a string's characters are not read as dimensions
    doc = scenario_document(dephasing_qubit(gamma=0.5))
    doc["layout"] = {"dims": dims, "labels": ["Q"]}
    with pytest.raises(SchemaError) as info:
        scenario_from_document(doc)
    assert info.value.args[0] == f"'dims' must be a list, got {kind}"


def test_von_neumann_document_round_trip():
    sc = von_neumann_measurement(np.sqrt(0.3), np.sqrt(0.7), n_env=2)
    doc = json.loads(dumps_json(scenario_document(sc)))
    assert len(doc["dynamics"]["unitaries"]) == 3
    back = scenario_from_document(doc)
    assert back.layout == sc.layout
    want = sc.state_at(0).reduce(("S", "P")).matrix
    got = back.state_at(0).reduce(("S", "P")).matrix
    assert np.abs(got - want).max() < 1e-12


# a scenario name json.dumps must escape: a quote, a backslash, a control
# character and non-ASCII text
ESCAPED_NAME = 'psi "\u03c8" \\ tab\t \u2603'
SPECIAL_ENTRIES = [math.nan, math.inf, -math.inf, -0.0]


def _as_lists(value):
    """``value`` with every array in it replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def _with_special_entries(value):
    """``value`` with the first entries of each float array, and each float,
    replaced by NaN, infinities and -0.0 in turn."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        out = value.copy()
        flat = out.reshape(-1)
        n = min(flat.size, len(SPECIAL_ENTRIES))
        flat[:n] = SPECIAL_ENTRIES[:n]
        return out
    if isinstance(value, float):
        return SPECIAL_ENTRIES[len(repr(value)) % len(SPECIAL_ENTRIES)]
    if isinstance(value, dict):
        return {k: _with_special_entries(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_with_special_entries(v) for v in value]
    return value


def _trajectories():
    points = np.array(
        [(0.0, 0, 1.0), (0.5, 1, math.nan), (math.inf, 3, -0.0), (-math.inf, 2**40, 5e-324)],
        dtype=POINT,
    )
    return [Trajectory(points, 7), Trajectory(points[:1], 0), Trajectory(points[:0], 1)]


def _ensembles():
    rng = np.random.default_rng(3)
    return [
        EnsembleReport(np.array([0.0, 0.5]), rng.random((2, 3)), rng.random((2, 3)), 0.25, 10, 1),
        EnsembleReport(np.array([1.0]), np.ones((1, 1)), np.full((1, 1), -0.0), math.inf, 1, 2),
        EnsembleReport(np.array([0.0, 0.5]), np.zeros((2, 0)), np.zeros((2, 0)), math.nan, 3, 4),
        EnsembleReport(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)), 0.0, 5, 6),
    ]


def _documents():
    """One payload or more of every document kind the CLI writes, and the
    scenario files the tests write through ``oracles.scenario_document``."""
    ghz = ghz_mermin()
    table = conditional_table(
        ghz.initial_state, None, Partition(ghz.layout, (("A",), ("B",), ("C",))), mode="permissive"
    )
    rng = np.random.default_rng(5)
    layout = SystemLayout((2, 3), ("A", "B"))
    mixed = random_density_matrix(layout, rng)
    mixed_table = conditional_table(mixed, random_kraus_channel(6, 3, rng), Partition(layout, (("B",), ("A",))))
    pure = Scenario(ESCAPED_NAME, PureState(np.array([0.6, 0.8j]), SystemLayout.qubits(("Q",))))
    return {
        "epistemic": [
            epistemic_payload(extract_epistemic(ghz.initial_state.reduce(("A",))), ESCAPED_NAME, ("A",), 0.0),
            epistemic_payload(extract_epistemic(mixed), "mixed", ("A", "B"), 0.25),
        ],
        "conditional": [
            table_payload(table, ESCAPED_NAME, (0.0, 0.5), "c"),
            table_payload(mixed_table, "mixed", (0.0, 1.0), "kraus"),
        ],
        "trajectory": [trajectory_payload(t, ESCAPED_NAME) for t in _trajectories()],
        "ensemble": [ensemble_payload(r, ESCAPED_NAME) for r in _ensembles()],
        "cpt_report": [
            cpt_report_payload(CptReport(True, False, -1.5e-17, 2.0e-16), "kraus", 2, 1e-9),
            cpt_report_payload(CptReport(False, True, math.nan, math.inf), "lindblad", 4, 0.0),
        ],
        "scenario": [
            scenario_document(dephasing_qubit(gamma=0.5)),
            scenario_document(pure),
            scenario_document(von_neumann_measurement(np.sqrt(0.3), np.sqrt(0.7), n_env=1)),
        ],
    }


@pytest.mark.parametrize("kind", sorted(_documents()))
def test_the_writer_gives_the_bytes_of_json_dumps_on_every_document_kind(kind):
    for payload in _documents()[kind]:
        assert payload["kind"] == kind
        for doc in (payload, _with_special_entries(payload)):
            want = json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
            assert dumps_json(doc) == want


RECORDS = np.array([(0.5, -3, 1.0)], dtype=[("t", float), ("i", np.int64), ("p", float)])
FIXED_SHAPES = {
    "empty": np.zeros(0),
    "empty_rows": np.zeros((2, 0)),
    "empty_first": np.zeros((0, 3)),
    "ones": np.full((1, 1, 1), -0.0),
    "scalar": np.array(2.5),
    "mixed": np.arange(24.0).reshape(2, 1, 3, 4) - 11.5,
    "records": RECORDS,
    "no_records": RECORDS[:0],
    "ints": np.arange(3),
    "nested": [{"a": np.array([math.inf, -math.inf, math.nan])}, [], {}],
}


@st.composite
def float_or_record_arrays(draw):
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    if draw(st.booleans()):
        shape = hnp.array_shapes(min_dims=1, max_dims=8, min_side=1, max_side=3)
        return draw(hnp.arrays(np.float64, shape, elements=floats))
    shape = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3)
    fields = st.tuples(floats, st.integers(-(2**63), 2**63 - 1), floats)
    return draw(hnp.arrays(RECORDS.dtype, shape, elements=fields))


@settings(max_examples=60, deadline=None)
@given(float_or_record_arrays())
@example(FIXED_SHAPES)
@example(np.arange(2.0**8).reshape((2,) * 8))
def test_the_writer_handles_any_shape_of_float_and_record_array(value):
    doc = {"value": value}
    assert dumps_json(doc) == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"


def test_the_writer_keeps_few_bytes_per_point():
    import tracemalloc

    from modaldyn import TimeGrid, amplitude_damping_qubit, build_step_chain, evolve

    # the texts of a 20,001-point trajectory, joined one axis at a time,
    # peak at 318 bytes per point (325 at 100,001 points); a separator
    # table and a text list that interleaved separators with the numbers
    # took 428 (438)
    sc = amplitude_damping_qubit(1.0)
    grid = TimeGrid(1.0 / 20000, 20000)
    chain = build_step_chain(evolve(sc.dynamics, grid.dt), sc.initial_state, grid)
    payload = trajectory_payload(chain.sample(1), "damping")
    dumps_json(payload)
    tracemalloc.start()
    try:
        dumps_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 380 * chain.n_times


def test_every_csv_writer_formats_each_entry_as_its_repr():
    rng = np.random.default_rng(9)
    probs = rng.random((2, 1, 3))
    probs.reshape(-1)[:4] = SPECIAL_ENTRIES
    table = SimpleNamespace(
        partition=SimpleNamespace(n_blocks=2),
        probabilities=probs,
        row_sums=np.array([math.nan, -0.0]),
        max_row_deviation=math.inf,
        max_marginal_deviation=np.float64(1e-17),
    )
    ghz = ghz_mermin()
    real_table = conditional_table(
        ghz.initial_state, None, Partition(ghz.layout, (("A",), ("B",), ("C",))), mode="permissive"
    )
    epistemic = [
        extract_epistemic(epr_bohm().initial_state.reduce(("A",))),
        SimpleNamespace(
            probabilities=np.array([0.5, math.nan, -0.0, math.inf]),
            degenerate_clusters=((1, 3),),
            truncation_mass=np.float64(-math.inf),
        ),
    ]
    cases = (
        [("epistemic", e, epistemic_csv) for e in epistemic]
        + [("table", t, table_csv) for t in (table, real_table)]
        + [("trajectory", t, trajectory_csv) for t in _trajectories()]
        + [("ensemble", r, ensemble_csv) for r in _ensembles()]
    )
    for kind, obj, writer in cases:
        lines = writer(obj).split("\n")
        assert lines[0] == "# schema_version: 1"
        assert lines[2:-1] == per_entry_csv_rows(kind, obj)
        assert lines[-1] == ""
