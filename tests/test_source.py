"""Checks on the package source itself; no linter is assumed to be installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modaldyn"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, Union\n"
        "x: Optional[int] = None\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: Union"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """Top-level packages the module imports, wherever the import stands."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_check_finds_a_deferred_import():
    source = (
        "import numpy as np\n"
        "from . import linalg\n"
        "def f():\n"
        "    from scipy.linalg import expm\n"
        "    return expm\n"
    )
    assert imported_packages(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy.linalg alone takes about a quarter second to import
    assert "scipy" not in imported_packages(path.read_text(encoding="utf-8"))


def test_the_check_finds_a_dataclasses_import():
    sources = [
        "from dataclasses import dataclass, field\n",
        "import dataclasses as dc\n",
        "def fields_of(x):\n    from dataclasses import fields\n    return fields(x)\n",
    ]
    assert ["dataclasses" in imported_packages(s) for s in sources] == [True] * 3
    assert "dataclasses" not in imported_packages("from .linalg import Record\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # a frozen dataclass exec-compiles its generated methods as its module
    # loads: with the import, 6 to 10 ms of every command-line process
    assert "dataclasses" not in imported_packages(path.read_text(encoding="utf-8"))


def eager_imports(source: str) -> set[str]:
    """Modules that executing the source as a module imports.

    Imports inside functions and under ``if TYPE_CHECKING:`` do not count.
    A module of this package is named relative to it, as ``.conditional``.
    """
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                if node.module is None:
                    found.update(base + alias.name for alias in node.names)
                else:
                    found.add(base)
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(source).body)
    return {"." + m[len("modaldyn."):] if m.startswith("modaldyn.") else m for m in found}


def test_the_check_finds_an_eager_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import serialize, trajectories as tr\n"
        "if TYPE_CHECKING:\n"
        "    from .conditional import ConditionalTable\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    from modaldyn.states import STRICT\n"
        "def run():\n"
        "    from .conditional import conditional_table\n"
        "class Box:\n"
        "    from .linalg import expm\n"
    )
    assert eager_imports(source) == {
        "typing", ".serialize", ".trajectories", "json", ".states", ".linalg"
    }


@pytest.mark.parametrize("name", ["cli.py", "serialize.py"])
def test_the_table_and_chain_modules_load_only_where_they_run(name):
    # the CLI imports them inside the subcommands that use them
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert eager_imports(source) & {".conditional", ".trajectories"} == set()


def test_the_chain_module_does_not_load_the_table_module():
    # the helpers both kernels share live in ``states``; importing
    # ``conditional`` took about 6 ms of every ``sample`` process
    source = (PACKAGE / "trajectories.py").read_text(encoding="utf-8")
    assert ".conditional" not in eager_imports(source)


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions that no module reads.

    A name counts as read where it is loaded as a name or as an attribute
    (``module._name``) in any of ``sources``, a map of file name to source.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{name} line {node.lineno}: {t}"
                for t in targets
                if t.startswith("_") and not t.startswith("__") and t not in read
            ]
    return dead


def test_the_check_finds_a_dead_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SEEN: int = 0\ndef _helper():\n    return _LIMIT\n",
        "b.py": "from . import a\nclass _Box:\n    pass\nvalue = a._helper()\n",
    }
    assert dead_private_names(sources) == ["a.py line 2: _SEEN", "b.py line 2: _Box"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def rng_constructors(sources: dict[str, str]) -> list[str]:
    """``file: function`` for each function that constructs a ``PCG64``.

    A construction is a call of ``PCG64`` by name or as an attribute
    (``np.random.PCG64``); one at module level counts as ``<module>``.
    ``sources`` maps file name to source.
    """
    found = []

    def visit(node, file, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name == "PCG64" and f"{file}: {function}" not in found:
                found.append(f"{file}: {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, file, function)

    for file, source in sources.items():
        visit(ast.parse(source), file, "<module>")
    return found


def test_the_check_finds_a_second_rng_construction():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "def _draw(seed):\n"
            "    bits = np.random.PCG64(seed)\n"
            "    return np.random.Generator(np.random.PCG64([seed, 1])), bits\n"
        ),
        "b.py": (
            "from numpy.random import PCG64\n"
            "DEFAULT = PCG64(0)\n"
            "class Walker:\n"
            "    def draw(self):\n"
            "        return PCG64(1)\n"
        ),
    }
    assert rng_constructors(sources) == ["a.py: _draw", "b.py: <module>", "b.py: draw"]


def test_the_rng_contract_is_constructed_in_one_function():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert rng_constructors(sources) == ["trajectories.py: _uniforms"]


TOLERANCE_SUFFIXES = ("_TOL", "_GAP", "_CUTOFF", "_THRESHOLD", "_SHORTCUT")


def stray_tolerances(sources: dict[str, str]) -> list[str]:
    """Tolerances stated outside ``tolerances.py``.

    Two kinds are found: a module-level assignment to a name ending in one
    of ``TOLERANCE_SUFFIXES`` (an import of such a name does not count), and
    a float literal other than ``0.0`` and ``1.0``, signed or not, as an
    operand of a comparison. ``sources`` maps file name to source.
    """
    found = []

    def is_stray(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and type(node.value) is float
            and node.value not in (0.0, 1.0)
        )

    for file, source in sources.items():
        if file == "tolerances.py":
            continue
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    f"{file} line {node.lineno}: {name.id}"
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id.endswith(TOLERANCE_SUFFIXES)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                found += [
                    f"{file} line {node.lineno}: {ast.unparse(operand)}"
                    for operand in (node.left, *node.comparators)
                    if is_stray(operand)
                ]
    return found


def test_the_check_finds_a_stray_tolerance():
    sources = {
        "a.py": (
            "from .tolerances import CPT_TOL\n"
            "LIMIT_TOL = 1e-9\n"
            "GAP: float = 0.5\n"
            "SPLIT_GAP: float = 0.5\n"
            "def f(x, y):\n"
            "    BIG_CUTOFF = 3.0\n"
            "    return x > 1e-12 or 0.0 <= y <= 1.0 or y >= -2.5 or x < CPT_TOL\n"
        ),
        "b.py": "PURITY_SHORTCUT, DEFAULT_THRESHOLD = 1, 2\nok = 2 < 3\n",
        "tolerances.py": "CPT_TOL = 1e-9\nCHECK = 1e-9 < CPT_TOL\n",
    }
    assert stray_tolerances(sources) == [
        "a.py line 2: LIMIT_TOL",
        "a.py line 4: SPLIT_GAP",
        "a.py line 7: 1e-12",
        "a.py line 7: -2.5",
        "b.py line 1: PURITY_SHORTCUT",
        "b.py line 1: DEFAULT_THRESHOLD",
    ]


def test_every_tolerance_is_stated_in_the_tolerance_module():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert stray_tolerances(sources) == []


# Names that act with dynamics, and the modules that may use each:
# ``channels`` is the one module that acts with dynamics; ``conditional``
# and ``trajectories`` take the amplitudes of kets under it through
# ``channels.amplitudes``, and ``trajectories`` its grid states through
# ``channels.iterate``.
DYNAMICS_NAMES = {
    "flow": {"channels.py"},
    "_flow_plan": {"channels.py"},
    "_run_flow": {"channels.py"},
    "apply_local": {"channels.py"},
    "amplitudes": {"channels.py", "conditional.py", "trajectories.py"},
    "iterate": {"channels.py", "trajectories.py"},
}


def dynamics_outside_channels(sources: dict[str, str]) -> list[str]:
    """Uses of ``DYNAMICS_NAMES`` outside the modules allowed each.

    A use is an import of the name, or a read of it as a name or as an
    attribute (``channels.flow``), which a call is. A definition is not a
    use. ``sources`` maps file name to source.
    """
    found = []
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            else:
                continue
            found += [
                f"{file} line {node.lineno}: {name}"
                for name in names
                if name in DYNAMICS_NAMES and file not in DYNAMICS_NAMES[name]
            ]
    return sorted(set(found))


def test_the_check_finds_dynamics_acted_outside_channels():
    sources = {
        "a.py": "from .channels import GeneratorFlow, flow\n",
        "b.py": (
            "from . import channels\n"
            "def f(g, flow_steps):\n"
            "    return channels._flow_plan(g, flow_steps)\n"
        ),
        "c.py": "from .linalg import apply_local\n",
        "d.py": "def go(x):\n    return x.flow + flow(x)\n",
        "channels.py": (
            "from .linalg import apply_local\n"
            "def flow(f, m):\n"
            "    return _flow_plan(f, len(m)), apply_local\n"
        ),
        "serialize.py": (
            "from .linalg import apply_local, check_finite\n"
            "from .channels import KrausChannel, amplitudes\n"
        ),
        "trajectories.py": "from .channels import amplitudes, iterate\n",
        "conditional.py": "from .channels import amplitudes, iterate\n",
    }
    assert dynamics_outside_channels(sources) == [
        "a.py line 1: flow",
        "b.py line 3: _flow_plan",
        "c.py line 1: apply_local",
        "conditional.py line 1: iterate",
        "d.py line 2: flow",
        "serialize.py line 1: apply_local",
        "serialize.py line 2: amplitudes",
    ]


def test_only_channels_acts_with_dynamics():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dynamics_outside_channels(sources) == []


def kraus_arithmetic_outside_channels(sources: dict[str, str]) -> list[str]:
    """Reads of an ``.operators`` attribute outside ``channels.py`` other than
    as the one argument of ``len(...)``.

    A Kraus array computed with anywhere else (a product, a sum, an index)
    would be a second Kraus contraction; counting the operators, as a memory
    estimate does, is not. ``sources`` maps file name to source.
    """
    found = []
    for file, source in sources.items():
        if file == "channels.py":
            continue
        tree = ast.parse(source)
        counted = {
            id(node.args[0])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "len"
            and len(node.args) == 1
        }
        found += [
            f"{file} line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == "operators"
            and id(node) not in counted
        ]
    return sorted(found)


def test_the_check_finds_kraus_arithmetic_outside_channels():
    sources = {
        "a.py": (
            "def f(ch, rho):\n"
            "    ops = ch.operators\n"
            "    return len(ch.operators), ops @ rho\n"
        ),
        "b.py": (
            "def g(step):\n"
            "    step.operators = None\n"
            "    return len(step.operators[0]), sum(step.operators)\n"
        ),
        "channels.py": "def h(ch, rho):\n    return ch.operators @ rho\n",
    }
    assert kraus_arithmetic_outside_channels(sources) == [
        "a.py line 2: ch.operators",
        "b.py line 3: step.operators",
        "b.py line 3: step.operators",
    ]


def test_only_channels_computes_with_kraus_arrays():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert kraus_arithmetic_outside_channels(sources) == []


def json_writers(sources: dict[str, str]) -> list[str]:
    """Uses of ``json.dump`` or ``json.dumps`` outside ``serialize.py``.

    A use is an import of either name from ``json`` or a read of it as an
    attribute of the name ``json``. ``sources`` maps file name to source.
    """
    found = []
    for file, source in sources.items():
        if file == "serialize.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                names = [node.attr]
            else:
                continue
            found += [
                f"{file} line {node.lineno}: json.{name}"
                for name in names
                if name in ("dump", "dumps")
            ]
    return sorted(found)


def test_the_check_finds_a_document_formatted_outside_serialize():
    sources = {
        "a.py": "import json\ndef f(x):\n    return json.dumps(x, indent=2)\n",
        "b.py": "from json import dump, load\n",
        "c.py": "import json\ndef g(fh):\n    return json.load(fh), json.loads('1')\n",
        "serialize.py": "import json\ndef dumps_json(p):\n    return json.dumps(p)\n",
    }
    assert json_writers(sources) == ["a.py line 3: json.dumps", "b.py line 1: json.dump"]


def test_documents_are_formatted_only_in_serialize():
    # so the writer's byte-identity test covers every byte the CLI prints
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert json_writers(sources) == []


# file -> (the calls that write a document, the one function that makes them)
ONE_WAY_OUT = {
    "cli.py": ({"dumps_json", "_write"}, "_emit"),
    "serialize.py": ({"'\\n'.join"}, "_csv"),
}


def second_ways_out(sources: dict[str, str]) -> list[str]:
    """Calls named in ``ONE_WAY_OUT`` outside the one function allowed them.

    A call is named by its callee's name or attribute (``serialize.dumps_json``
    is ``dumps_json``), or, for a method of a string constant, as
    ``'\\n'.join``. A call in a lambda counts for the enclosing function.
    ``sources`` maps file name to source; other files are not read.
    """
    found = []

    def visit(node, file, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Constant):
                name = f"{callee.value.value!r}.{callee.attr}"
            else:
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            names, home = ONE_WAY_OUT[file]
            if name in names and function != home:
                found.append(f"{file} line {node.lineno}: {name} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, file, function)

    for file, source in sources.items():
        if file in ONE_WAY_OUT:
            visit(ast.parse(source), file, "<module>")
    return found


def test_the_check_finds_a_second_way_out():
    sources = {
        "cli.py": (
            "from . import serialize\n"
            "def _emit(args, document, table):\n"
            "    _write(serialize.dumps_json(document()), args.output)\n"
            "def _cmd(args):\n"
            "    _write(serialize.dumps_json({}), None)\n"
            "    return _emit(args, lambda: {}, lambda: serialize.dumps_json({}))\n"
        ),
        "serialize.py": (
            "def _csv(header, columns):\n"
            "    return '\\n'.join([header, *columns]) + '\\n'\n"
            "def table_csv(rows):\n"
            "    return '\\n'.join(rows) + ','.join(rows) + ' '.join(rows)\n"
            "TEXT = '\\n'.join(['a', 'b'])\n"
        ),
        "other.py": "def f(x):\n    return '\\n'.join(x), _write(x), dumps_json(x)\n",
    }
    assert second_ways_out(sources) == [
        "cli.py line 5: _write in _cmd",
        "cli.py line 5: dumps_json in _cmd",
        "cli.py line 6: dumps_json in _cmd",
        "serialize.py line 4: '\\n'.join in table_csv",
        "serialize.py line 5: '\\n'.join in <module>",
    ]


def test_one_emitter_writes_every_document_and_one_builder_lays_out_every_csv():
    # every subcommand's --format choice and write go through cli._emit,
    # and every CSV document's lines through serialize._csv
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert second_ways_out(sources) == []


def degeneracy_refusals(sources: dict[str, str]) -> list[str]:
    """Raises of ``DegenerateBasisError`` outside ``states.py``.

    A raise names the class as its exception or as the callee that makes it
    (``DegenerateBasisError(...)``, ``errors.DegenerateBasisError(...)``); a
    bare re-raise names nothing. ``sources`` maps file name to source.
    """
    found = []
    for file, source in sources.items():
        if file == "states.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name == "DegenerateBasisError":
                    found.append(f"{file} line {node.lineno}")
    return found


def test_the_check_finds_a_degeneracy_refusal_outside_states():
    sources = {
        "a.py": (
            "from .errors import DegenerateBasisError\n"
            "def f(e):\n"
            "    raise DegenerateBasisError(f'{e} is degenerate')\n"
        ),
        "b.py": (
            "from . import errors\n"
            "def g(e):\n"
            "    try:\n"
            "        h(e)\n"
            "    except errors.DegenerateBasisError:\n"
            "        raise\n"
            "    raise errors.DegenerateBasisError from None\n"
        ),
        "states.py": "def _refuse(x):\n    raise DegenerateBasisError(x)\n",
    }
    assert degeneracy_refusals(sources) == ["a.py line 3", "b.py line 7"]


def test_the_strict_mode_refusal_is_raised_only_in_states():
    # tables, scalar queries and chains refuse a degenerate cluster through
    # states._refuse_degeneracy, so its message is stated once
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert degeneracy_refusals(sources) == []


def stray_range_bounds(sources: dict[str, str]) -> list[str]:
    """Reads of the seed bound or the sample-count bound outside ``trajectories.py``.

    A read is the name ``SEED_BOUND``, imported, loaded bare or read as an
    attribute, or the number 2^63, written as a literal, as ``2**63`` or as
    ``1 << 63``. ``sources`` maps file name to source; results are sorted.
    """
    spellings = {(ast.Pow, 2, 63), (ast.LShift, 1, 63)}
    found = []
    for file, source in sources.items():
        if file == "trajectories.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.alias):
                name = node.name
            else:
                name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.BinOp):
                operands = (getattr(node.left, "value", None), getattr(node.right, "value", None))
                bound = (type(node.op), *operands) in spellings
            else:
                bound = isinstance(node, ast.Constant) and node.value == 2**63
            if name == "SEED_BOUND" or bound:
                found.append(f"{file} line {node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_the_check_finds_a_range_bound_outside_trajectories():
    sources = {
        "a.py": "from .trajectories import SEED_BOUND\nLIMIT = 1 << 63\n",
        "b.py": (
            "from . import trajectories\n"
            "def f(n):\n"
            "    return n < 2**63 and n < trajectories.SEED_BOUND\n"
            "big = 9223372036854775808\n"
            "ok = 2**62 + 1 << 32, 2**64, 1 << 62\n"
        ),
        "trajectories.py": "SEED_BOUND = 1 << 32\ndef g(n):\n    return n < 2**63\n",
    }
    assert stray_range_bounds(sources) == [
        "a.py line 1: SEED_BOUND",
        "a.py line 2: 1 << 63",
        "b.py line 3: 2 ** 63",
        "b.py line 3: trajectories.SEED_BOUND",
        "b.py line 4: 9223372036854775808",
    ]


def test_the_seed_and_sample_count_ranges_are_read_only_in_trajectories():
    # cli judges --seed, MODALDYN_SEED and --n through trajectories._check_seed
    # and _check_samples, so each range is stated once
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert stray_range_bounds(sources) == []
