"""The contract every record of the package keeps: keyword construction by
field name, fields that cannot be rebound or deleted, arrays that refuse
writes, and repr over the fields in declaration order. A record that holds
an array is equal only to itself and hashes by identity; the records that
hold none compare and hash by value."""

import importlib
import pkgutil

import numpy as np
import pytest

import modaldyn
from modaldyn import (
    ConditionalTable,
    CptReport,
    DensityMatrix,
    EnsembleReport,
    EpistemicState,
    GeneratorFlow,
    KrausChannel,
    LindbladGenerator,
    Partition,
    PureState,
    Scenario,
    StepChain,
    Superoperator,
    SystemLayout,
    TimeGrid,
    Trajectory,
    build_step_chain,
    conditional_table,
    dephasing_qubit,
    evolve,
    extract_epistemic,
    run_ensemble,
    verify_cpt,
)
from modaldyn.linalg import Record, Value

QUBIT = SystemLayout.qubits(("Q",))
PAIR = SystemLayout.qubits(("A", "B"))


def _records():
    """One record of each class, with its constructor's keyword names; the
    fields it derives itself follow them."""
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), PAIR)
    part = Partition(PAIR, (("A",), ("B",)))
    table = conditional_table(rho, None, part)
    scenario = dephasing_qubit(0.5)
    step = evolve(scenario.dynamics, 0.1)
    chain = build_step_chain(step, scenario.initial_state, TimeGrid(0.1, 3), mode="permissive")
    made = [
        PAIR,
        rho,
        PureState(np.array([0.6, 0.8]), QUBIT),
        extract_epistemic(rho),
        step,
        scenario.dynamics,
        GeneratorFlow(scenario.dynamics, 0.5),
        Superoperator(np.eye(4), 2),
        verify_cpt(step),
        scenario,
        part,
        table,
        chain.grid,
        chain.sample(3),
        run_ensemble(chain, 16, 5),
        chain,
    ]
    names = {
        SystemLayout: ("dims", "labels"),
        DensityMatrix: ("matrix", "layout"),
        PureState: ("vector", "layout"),
        EpistemicState: (
            "probabilities", "vectors", "layout", "degenerate_clusters", "truncation_mass",
        ),
        KrausChannel: ("operators",),
        LindbladGenerator: ("hamiltonian", "jumps"),
        GeneratorFlow: ("generator", "duration"),
        Superoperator: ("matrix", "dim"),
        CptReport: ("is_tp", "is_cp", "choi_min_eigenvalue", "completeness_residual"),
        Scenario: ("name", "initial_state", "dynamics"),
        Partition: ("layout", "blocks"),
        ConditionalTable: ("parent", "blocks", "partition", "probabilities", "mode"),
        TimeGrid: ("dt", "n_steps"),
        Trajectory: ("points", "seed"),
        EnsembleReport: (
            "times", "frequencies", "eigenvalues", "max_abs_deviation", "sample_count",
            "base_seed",
        ),
        StepChain: ("grid", "counts", "probs", "vectors", "labels", "rows", "cum", "n_labels"),
    }
    derived = {
        KrausChannel: ("dim",),
        ConditionalTable: ("row_sums", "max_row_deviation", "max_marginal_deviation"),
    }
    assert [type(r) for r in made] == list(names)
    return {
        type(r).__name__: (r, names[type(r)], names[type(r)] + derived.get(type(r), ()))
        for r in made
    }


RECORDS = _records()
VALUES = ("SystemLayout", "GeneratorFlow", "CptReport", "Scenario", "Partition", "TimeGrid")
ARRAYS = [name for name in RECORDS if name not in VALUES]


def _rebuilt(name):
    record, keywords, _ = RECORDS[name]
    return record, type(record)(**{k: getattr(record, k) for k in keywords})


def _arrays(value):
    """The arrays in ``value``, and in the tuples it holds, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_the_contract_table_names_every_record_class():
    for module in pkgutil.iter_modules(modaldyn.__path__):
        importlib.import_module(f"modaldyn.{module.name}")
    found, todo = set(), [Record]
    while todo:
        subclasses = todo.pop().__subclasses__()
        todo += subclasses
        found.update(c for c in subclasses if c.__module__.startswith("modaldyn."))
    found.discard(Value)
    assert {type(r) for r, _, _ in RECORDS.values()} == found


@pytest.mark.parametrize("name", list(RECORDS))
def test_a_record_is_built_by_keyword_and_keeps_its_fields(name):
    record, keywords, fields = RECORDS[name]
    again = type(record)(**{k: getattr(record, k) for k in keywords})
    assert list(vars(again)) == list(fields)
    for field in fields:
        value = getattr(again, field)
        with pytest.raises(AttributeError):
            setattr(again, field, value)
        with pytest.raises(AttributeError):
            delattr(again, field)
        assert getattr(again, field) is value


@pytest.mark.parametrize("name", list(RECORDS))
def test_a_record_equals_itself_and_hashes(name):
    record = RECORDS[name][0]
    assert record == record and not record != record
    assert {record: name}[record] == name


@pytest.mark.parametrize("name", ARRAYS)
def test_a_record_that_holds_arrays_is_equal_only_to_itself(name):
    record, again = _rebuilt(name)
    assert not isinstance(record, Value)
    assert record != again and hash(record) == object.__hash__(record)
    assert len({record, again}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_a_record_that_holds_no_array_equals_its_rebuilt_self(name):
    record, again = _rebuilt(name)
    assert isinstance(record, Value)
    assert record is not again and record == again and hash(record) == hash(again)
    assert not list(_arrays(tuple(vars(record).values())))


@pytest.mark.parametrize("name", list(RECORDS))
def test_every_array_a_record_holds_refuses_writes(name):
    record, again = _rebuilt(name)
    arrays = [a for r in (record, again) for a in _arrays(tuple(vars(r).values()))]
    assert bool(arrays) == (name in ARRAYS)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


@pytest.mark.parametrize("name", ["Trajectory", "EnsembleReport", "StepChain"])
def test_a_record_keeps_read_only_views_of_the_arrays_it_is_given(name):
    record, keywords, _ = RECORDS[name]
    given = {k: getattr(record, k) for k in keywords}
    given.update((k, v.copy()) for k, v in given.items() if isinstance(v, np.ndarray))
    again = type(record)(**given)
    for k, v in given.items():
        if isinstance(v, np.ndarray):
            kept = getattr(again, k)
            assert kept.base is v and not kept.flags.writeable and v.flags.writeable


@pytest.mark.parametrize(
    "make, same, other",
    [
        (
            lambda: SystemLayout((2, 3), ("A", "B")),
            lambda: SystemLayout([np.int64(2), 3.0], ["A", "B"]),
            lambda: SystemLayout((2, 3), ("A", "C")),
        ),
        (
            lambda: TimeGrid(0.25, 4),
            lambda: TimeGrid(np.float64(0.25), np.int64(4)),
            lambda: TimeGrid(0.25, 5),
        ),
        (
            lambda: Partition(PAIR, (("A",), ("B",))),
            lambda: Partition(SystemLayout.qubits(["A", "B"]), [["A"], ["B"]]),
            lambda: Partition(PAIR, (("B",), ("A",))),
        ),
    ],
    ids=["layout", "grid", "partition"],
)
def test_small_records_compare_and_hash_by_value(make, same, other):
    a, b, c = make(), same(), other()
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert a != tuple(vars(a).values())


def test_a_record_repr_lists_its_fields_in_order():
    assert repr(SystemLayout.qubits(("A", "B"))) == "SystemLayout(dims=(2, 2), labels=('A', 'B'))"
    assert repr(TimeGrid(0.5, 2)) == "TimeGrid(dt=0.5, n_steps=2)"
