"""Batch command-line front end.

Subcommands: ``epistemic``, ``conditional``, ``sample``, ``verify-channel``.
Every flag is declared once, in :func:`build_parser`; ``scenarios.SCENARIOS``
says which scenario takes which scenario flag, its default, and whether it
carries a generator to sample. Each
``_cmd_*`` does its work on arguments that :func:`_config_from_args` has
judged, then hands its document and its CSV writer to
:func:`_emit`, the one place that makes the ``--format`` choice and writes.
Exit codes are a stable contract: 0 success, 2 configuration or parse
problems (including a ``--rho0`` that is not a state, a scenario flag the
scenario does not take, and problems too large for the memory budget), 3
numerical invariant failures, 4 strict-mode degeneracy refusals, 5 channel
verification failures. Outputs are deterministic: the
same configuration and seed produce byte-identical files on the same numpy,
BLAS library and BLAS thread count; another thread count may round a float
differently in its last bits.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # Objects made at import live until exit; the collector need not walk
    # them while they are made. entry() freezes them before main() runs.
    gc.disable()

import argparse
import errno
import json
import math
import os
import sys
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import channels as channels_mod
from . import serialize
from .errors import (
    CptVerificationError,
    DegenerateBasisError,
    InvalidDensityMatrixError,
    LayoutMismatchError,
    ModalDynError,
    ProblemTooLargeError,
    UnknownLabelError,
)
from .scenarios import KET_ONE, KET_PLUS, KET_ZERO, QUBIT, SCENARIOS, Scenario
from .serialize import SchemaError
from .states import PERMISSIVE, STRICT, DensityMatrix, _check_threshold, extract_block
from .tolerances import CPT_TOL, DEFAULT_THRESHOLD

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DEGENERATE = 4
EXIT_CHANNEL = 5

SEED_ENV_VAR = "MODALDYN_SEED"

_NAMED_RHO0 = {"plus": KET_PLUS, "zero": KET_ZERO, "one": KET_ONE}

# Scenario parameter -> (flag, type, help); SCENARIOS says who takes it.
_SCENARIO_FLAGS = {
    "gamma": ("--gamma", float, "jump rate"),
    "rho0": ("--rho0", str, "qubit state: plus, zero, one, diag:p0,p1 (None: its own)"),
    "alpha2": ("--alpha2", float, "|alpha|^2 of the measured qubit"),
    "n_env": ("--n-env", int, "environment qubits that read the pointer"),
    "coupling": ("--coupling", float, "overlap of an environment qubit's two records"),
}


class ConfigError(ValueError):
    """Bad command-line configuration; maps to exit code 2."""


def _load_json(path: str, what: str, parse: Callable, bad: str):
    """``parse`` of the JSON document at ``path``: ``what`` names the file if it
    cannot be read, and ``bad`` heads a schema fault that ``parse`` finds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"cannot read {what}: JSON nested too deeply") from exc
    try:
        return parse(data)
    except SchemaError as exc:
        raise ConfigError(f"{bad}: {exc}") from exc


def _rho0(text: Optional[str]) -> Optional[DensityMatrix]:
    """The qubit state ``--rho0`` names, or ``None`` for the scenario's own."""
    if text is None:
        return None
    if text in _NAMED_RHO0:
        return DensityMatrix.from_vector(_NAMED_RHO0[text], QUBIT)
    if not text.startswith("diag:"):
        raise ConfigError(
            f"unknown --rho0 {text!r}; use plus, zero, one, or diag:p0,p1"
        )
    try:
        entries = [float(x) for x in text[len("diag:") :].split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --rho0 {text!r}: {exc}") from exc
    if len(entries) != 2:
        raise ConfigError("--rho0 diag: expects two comma-separated weights")
    try:
        return DensityMatrix(np.diag(entries).astype(complex), QUBIT)
    except InvalidDensityMatrixError as exc:
        raise ConfigError(f"bad --rho0 {text!r}: {exc}") from exc


def _scenario(args: argparse.Namespace) -> Callable[[], Scenario]:
    """What builds the scenario ``--scenario`` names from the scenario flags it
    takes, or reads its file; the name and the flags are judged now."""
    source = args.scenario
    given = dict(vars(args), rho0=_rho0(args.rho0))
    if source in SCENARIOS:
        build, params, _ = SCENARIOS[source]
    elif source.endswith(".json") or os.path.isfile(source):
        what, bad = f"scenario file {source!r}", f"bad scenario document {source!r}"
        build = partial(_load_json, source, what, serialize.scenario_from_document, bad)
        params = {}
    else:
        raise ConfigError(
            f"unknown scenario {source!r}; names: {', '.join(SCENARIOS)}, "
            "or a .json scenario file"
        )
    for param, (flag, _, _) in _SCENARIO_FLAGS.items():
        if getattr(args, param) is not None and param not in params:
            raise ConfigError(f"{flag} does not apply to scenario {source!r}")
    kwargs = {p: d if given[p] is None else given[p] for p, d in params.items()}
    return partial(build, **kwargs)


def _factor_lists(text: str, flag: str, sep: str, list_sep: Optional[str] = None) -> tuple:
    """``flag``'s ``text`` split at ``list_sep`` into lists (one list if
    ``None``), each at ``sep`` into factor labels; an empty label exits 2."""
    parts = text.split(list_sep) if list_sep else (text,)
    lists = tuple(tuple(s.strip() for s in part.split(sep)) for part in parts)
    if not all(map(all, lists)):
        raise ConfigError(f"empty label in {flag} {text!r}")
    return lists


def _check_sampled(scenario: str, generator: bool) -> None:
    if not generator:
        raise ConfigError(f"scenario {scenario!r} has no generator dynamics to sample")


def _resolve_seed(arg_seed: Optional[int]) -> int:
    from .trajectories import _check_seed

    if arg_seed is not None:
        seed, source = arg_seed, "--seed"
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            raise ConfigError(
                f"sampling needs --seed or the {SEED_ENV_VAR} environment variable"
            )
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from exc
    _check_seed(seed, source)
    return seed


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write --output {path!r}: {exc.strerror or exc}")


def _emit(
    args: argparse.Namespace, document: Callable[[], dict], table: Callable[[], str]
) -> None:
    """Write a result in the ``--format`` asked for: the JSON of
    ``document()``, or the CSV text ``table()``; only that one is built."""
    text = table() if args.format == "csv" else serialize.dumps_json(document())
    _write(text, args.output)


# ----------------------------------------------------------------- commands

def _cmd_epistemic(args: argparse.Namespace) -> int:
    sc = args.make_scenario()
    labels = args.subsystem or sc.layout.labels
    try:
        sc.layout.positions(labels)
    except (LayoutMismatchError, UnknownLabelError) as exc:
        raise ConfigError(f"bad --subsystem: {exc}") from exc
    e = extract_block(sc.state_at(args.time), labels, args.threshold)
    _emit(
        args,
        lambda: serialize.epistemic_payload(e, args.scenario, labels, args.time),
        lambda: serialize.epistemic_csv(e),
    )
    return EXIT_OK


def _cmd_conditional(args: argparse.Namespace) -> int:
    from .conditional import Partition, conditional_table

    sc = args.make_scenario()
    try:
        part = Partition(sc.layout, args.blocks)
    except (LayoutMismatchError, UnknownLabelError) as exc:
        raise ConfigError(f"bad --blocks: {exc}") from exc
    channel, channel_id = sc.dynamics_to(args.time)
    table = conditional_table(
        sc.initial_state, channel, part, mode=args.mode, threshold=args.threshold
    )
    _emit(
        args,
        lambda: serialize.table_payload(table, args.scenario, (0.0, args.time), channel_id),
        lambda: serialize.table_csv(table),
    )
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from .trajectories import TimeGrid, build_step_chain, run_ensemble

    sc = args.make_scenario()
    _check_sampled(args.scenario, isinstance(sc.dynamics, channels_mod.LindbladGenerator))
    grid = TimeGrid(args.t / args.steps, args.steps)
    step = channels_mod.evolve(sc.dynamics, grid.dt)
    # each branch lets the chain go before its document is written
    inputs = (step, sc.initial_state, grid, args.threshold, args.mode)
    if args.n == 1:
        result = build_step_chain(*inputs).sample(args.seed)
        payload, csv = serialize.trajectory_payload, serialize.trajectory_csv
    else:
        result = run_ensemble(build_step_chain(*inputs), args.n, args.seed)
        payload, csv = serialize.ensemble_payload, serialize.ensemble_csv
    _emit(args, lambda: payload(result, args.scenario), lambda: csv(result))
    return EXIT_OK


def _cmd_verify_channel(args: argparse.Namespace) -> int:
    doc = _load_json(
        args.channel, "channel file", serialize.load_channel_document, "bad channel document"
    )
    kind, tol = doc["kind"], args.tol
    try:
        if kind == "superoperator":
            report = channels_mod.verify_superoperator_matrix(
                doc["matrix"], doc["dim"], tol
            )
        elif kind == "lindblad":
            gen = channels_mod.LindbladGenerator(doc["hamiltonian"], doc["jumps"])
            matrix = channels_mod.generator_map(gen, doc["duration"])
            report = channels_mod.verify_superoperator_matrix(matrix, doc["dim"], tol)
        else:  # kraus or unitary: a stack of Kraus operators
            report = channels_mod.verify_kraus_operators(doc["operators"], tol)
    except ProblemTooLargeError:
        raise
    except ModalDynError as exc:
        sys.stderr.write(f"channel rejected: {exc}\n")
        return EXIT_CHANNEL
    payload = serialize.cpt_report_payload(report, kind, doc["dim"], tol)
    _emit(args, lambda: payload, lambda: serialize.cpt_report_csv(payload))
    return EXIT_OK if (report.is_cp and report.is_tp) else EXIT_CHANNEL


# ------------------------------------------------------------------ parsing

def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_common(p: argparse.ArgumentParser, with_mode: bool) -> None:
    _add_output(p)
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="eigenvalue retention threshold",
    )
    if with_mode:
        p.add_argument(
            "--mode",
            choices=(STRICT, PERMISSIVE),
            default=STRICT,
            help="degeneracy policy",
        )


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario",
        required=True,
        help=f"scenario name ({', '.join(SCENARIOS)}) or path to a scenario .json file",
    )
    for param, (flag, kind, text) in _SCENARIO_FLAGS.items():
        takers = ", ".join(
            f"{name} (default: {params[param]})"
            for name, (_, params, _) in SCENARIOS.items()
            if param in params
        )
        p.add_argument(flag, dest=param, type=kind, help=f"{text}; taken by {takers}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modaldyn",
        description=(
            "Spectral epistemic states, conditional probabilities, trajectory "
            "sampling, and channel verification for finite quantum systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_epi = sub.add_parser("epistemic", help="eigenvalues/eigenstates of a subsystem")
    _add_scenario_args(p_epi)
    p_epi.add_argument(
        "--subsystem", default=None, help="comma-separated factor labels (default all)"
    )
    p_epi.add_argument("--time", type=float, default=0.0)
    _add_common(p_epi, with_mode=False)

    p_cond = sub.add_parser("conditional", help="conditional probability table")
    _add_scenario_args(p_cond)
    p_cond.add_argument(
        "--blocks",
        required=True,
        help="partition blocks, e.g. 'A,B' or 'A+B,C' (labels joined by +)",
    )
    p_cond.add_argument("--time", type=float, default=0.0)
    _add_common(p_cond, with_mode=True)

    p_samp = sub.add_parser("sample", help="sample ontic trajectories")
    _add_scenario_args(p_samp)
    p_samp.add_argument("--t", type=float, required=True, help="total duration")
    p_samp.add_argument("--steps", type=int, required=True, help="grid steps")
    p_samp.add_argument("--n", type=int, default=1, help="number of trajectories")
    p_samp.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"base seed (falls back to {SEED_ENV_VAR})",
    )
    _add_common(p_samp, with_mode=True)

    p_ver = sub.add_parser("verify-channel", help="CPT verification report")
    p_ver.add_argument("--channel", required=True, help="channel .json file")
    p_ver.add_argument("--tol", type=float, default=CPT_TOL)
    _add_output(p_ver)

    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """``args`` once every check that needs no built scenario passes; then
    ``make_scenario()`` builds it; ``subsystem``, ``blocks`` and ``seed`` hold values."""
    if args.command == "verify-channel":
        channels_mod._check_tol(args.tol, "--tol")
    elif args.command == "sample":
        if not 0.0 < args.t < math.inf:
            raise ConfigError(f"--t must be finite and > 0: {args.t}")
    elif not 0.0 <= args.time < math.inf:
        raise ConfigError(f"--time must be finite and >= 0: {args.time}")
    if args.command != "verify-channel":
        _check_threshold(args.threshold)
    # _write's refusals, before the work: "", a directory, or a parent "p/" that cannot stat
    if args.output is not None:
        try:
            if not args.output:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
            if args.output.endswith(os.sep) or os.path.isdir(args.output):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            os.stat(os.path.join(os.path.dirname(args.output) or ".", ""))
        except OSError as exc:
            raise _unwritable(args.output, exc) from exc
    if args.command == "verify-channel":
        return args
    args.make_scenario = _scenario(args)
    if args.command == "epistemic" and args.subsystem is not None:
        (args.subsystem,) = _factor_lists(args.subsystem, "--subsystem", ",")
    elif args.command == "conditional":
        args.blocks = _factor_lists(args.blocks, "--blocks", "+", ",")
    elif args.command == "sample":
        from .trajectories import _check_samples

        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1: {args.steps}")
        _check_samples(args.n, "--n")
        args.seed = _resolve_seed(args.seed)
        if args.scenario in SCENARIOS:  # a file's dynamics are known once it is read
            _check_sampled(args.scenario, SCENARIOS[args.scenario][2])
    return args


_DISPATCH = {
    "epistemic": _cmd_epistemic,
    "conditional": _cmd_conditional,
    "sample": _cmd_sample,
    "verify-channel": _cmd_verify_channel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _config_from_args(args)
        return _DISPATCH[args.command](args)
    except (ConfigError, ProblemTooLargeError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except DegenerateBasisError as exc:
        sys.stderr.write(f"degeneracy refusal: {exc}\n")
        return EXIT_DEGENERATE
    except CptVerificationError as exc:
        sys.stderr.write(f"channel verification failure: {exc}\n")
        return EXIT_CHANNEL
    except IndexError as exc:
        sys.stderr.write(f"index error: {exc}\n")
        return EXIT_CONFIG
    except ModalDynError as exc:
        sys.stderr.write(f"numerical invariant failure: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


def entry() -> int:
    """``main()`` for a command-line process.

    Objects that exist now, mostly made by imports, live until exit, so they
    are frozen out of every later collection, interpreter exit included.
    ``main()`` itself leaves the collector alone, for callers in a library.
    """
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
