"""Batch command-line front end.

Subcommands: ``epistemic``, ``conditional``, ``sample``, ``verify-channel``.
Every flag is declared once, in :func:`build_parser`; ``scenarios.SCENARIOS``
says which scenario takes which scenario flag, and its default. Each
``_cmd_*`` reads the parsed arguments and resolves its own scenario, blocks,
subsystem and seed. Exit codes are a stable contract: 0 success, 2
configuration or parse problems (including a ``--rho0`` that is not a state,
a scenario flag the scenario does not take, and problems too large for the
memory budget), 3 numerical invariant failures, 4 strict-mode degeneracy
refusals, 5 channel verification failures. Outputs are deterministic: the
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
import json
import math
import os
import sys
from typing import Optional, Sequence

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
from .linalg import SystemLayout
from .scenarios import SCENARIOS, Scenario
from .serialize import SchemaError
from .states import PERMISSIVE, STRICT, DensityMatrix, extract_epistemic
from .tolerances import CPT_TOL, DEFAULT_THRESHOLD

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DEGENERATE = 4
EXIT_CHANNEL = 5

SEED_ENV_VAR = "MODALDYN_SEED"

_NAMED_RHO0 = {
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "zero": np.diag([1.0, 0.0]).astype(complex),
    "one": np.diag([0.0, 1.0]).astype(complex),
}

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


def _load_json(path: str, what: str):
    """The JSON document at ``path``; ``what`` names the file if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"cannot read {what}: JSON nested too deeply") from exc


def _rho0(text: Optional[str]) -> Optional[DensityMatrix]:
    """The qubit state ``--rho0`` names, or ``None`` for the scenario's own."""
    if text is None:
        return None
    if text in _NAMED_RHO0:
        matrix = _NAMED_RHO0[text]
    elif text.startswith("diag:"):
        try:
            entries = [float(x) for x in text[len("diag:") :].split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --rho0 {text!r}: {exc}") from exc
        if len(entries) != 2:
            raise ConfigError("--rho0 diag: expects two comma-separated weights")
        matrix = np.diag(entries).astype(complex)
    else:
        raise ConfigError(
            f"unknown --rho0 {text!r}; use plus, zero, one, or diag:p0,p1"
        )
    try:
        return DensityMatrix(matrix, SystemLayout.qubits(("Q",)))
    except InvalidDensityMatrixError as exc:
        raise ConfigError(f"bad --rho0 {text!r}: {exc}") from exc


def _scenario(args: argparse.Namespace) -> Scenario:
    """The scenario ``--scenario`` names, built from the scenario flags it takes."""
    source = args.scenario
    given = dict(vars(args), rho0=_rho0(args.rho0))
    if source in SCENARIOS:
        build, params = SCENARIOS[source]
    elif source.endswith(".json") or os.path.isfile(source):
        build, params = None, {}
    else:
        raise ConfigError(
            f"unknown scenario {source!r}; names: {', '.join(SCENARIOS)}, "
            "or a .json scenario file"
        )
    for param, (flag, _, _) in _SCENARIO_FLAGS.items():
        if getattr(args, param) is not None and param not in params:
            raise ConfigError(f"{flag} does not apply to scenario {source!r}")
    if build is None:
        data = _load_json(source, f"scenario file {source!r}")
        try:
            return serialize.scenario_from_document(data)
        except SchemaError as exc:
            raise ConfigError(f"bad scenario document {source!r}: {exc}") from exc
    return build(**{p: d if given[p] is None else given[p] for p, d in params.items()})


def _parse_blocks(text: str) -> tuple[tuple[str, ...], ...]:
    blocks = []
    for chunk in text.split(","):
        labels = tuple(s.strip() for s in chunk.split("+") if s.strip())
        if not labels:
            raise ConfigError(f"empty block in --blocks {text!r}")
        blocks.append(labels)
    return tuple(blocks)


def _resolve_seed(arg_seed: Optional[int]) -> int:
    from .trajectories import SEED_BOUND

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
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0: {seed}")
    if seed >= SEED_BOUND:
        raise ConfigError(f"{source} must be below {SEED_BOUND}: {seed}")
    return seed


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------- commands

def _cmd_epistemic(args: argparse.Namespace) -> int:
    sc = _scenario(args)
    labels = tuple(s.strip() for s in (args.subsystem or "").split(",") if s.strip())
    unknown = set(labels) - set(sc.layout.labels)
    if unknown:
        raise ConfigError(
            f"--subsystem labels {sorted(unknown)} not in layout {sc.layout.labels}"
        )
    repeated = {s for s in labels if labels.count(s) > 1}
    if repeated:
        raise ConfigError(f"--subsystem labels {sorted(repeated)} named more than once")
    labels = labels or sc.layout.labels
    state = sc.state_at(args.time)
    if set(labels) != set(sc.layout.labels):
        state = state.reduce(labels)
    e = extract_epistemic(state, args.threshold)
    if args.format == "csv":
        text = serialize.epistemic_csv(e)
    else:
        text = serialize.dumps_json(
            serialize.epistemic_payload(e, args.scenario, labels, args.time)
        )
    _write(text, args.output)
    return EXIT_OK


def _cmd_conditional(args: argparse.Namespace) -> int:
    from .conditional import Partition, conditional_table

    sc = _scenario(args)
    blocks = _parse_blocks(args.blocks)
    try:
        part = Partition(sc.layout, blocks)
    except (LayoutMismatchError, UnknownLabelError) as exc:
        raise ConfigError(f"bad --blocks: {exc}") from exc
    channel, channel_id = sc.dynamics_to(args.time)
    table = conditional_table(
        sc.initial_state, channel, part, mode=args.mode, threshold=args.threshold
    )
    if args.format == "csv":
        text = serialize.table_csv(table)
    else:
        text = serialize.dumps_json(
            serialize.table_payload(table, args.scenario, (0.0, args.time), channel_id)
        )
    _write(text, args.output)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from .trajectories import TimeGrid, build_step_chain, run_ensemble

    sc = _scenario(args)
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1: {args.steps}")
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1: {args.n}")
    seed = _resolve_seed(args.seed)
    if not isinstance(sc.dynamics, channels_mod.LindbladGenerator):
        raise ConfigError(
            f"scenario {args.scenario!r} has no generator dynamics to sample"
        )
    grid = TimeGrid(args.t / args.steps, args.steps)
    step = channels_mod.evolve(sc.dynamics, grid.dt)
    chain = build_step_chain(step, sc.initial_state, grid, args.threshold, args.mode)
    if args.n == 1:
        traj = chain.sample(seed)
        if args.format == "csv":
            text = serialize.trajectory_csv(traj)
        else:
            text = serialize.dumps_json(
                serialize.trajectory_payload(traj, args.scenario)
            )
    else:
        report = run_ensemble(chain, args.n, seed)
        if args.format == "csv":
            text = serialize.ensemble_csv(report)
        else:
            text = serialize.dumps_json(
                serialize.ensemble_payload(report, args.scenario)
            )
    _write(text, args.output)
    return EXIT_OK


def _cmd_verify_channel(args: argparse.Namespace) -> int:
    data = _load_json(args.channel, "channel file")
    try:
        doc = serialize.load_channel_document(data)
    except SchemaError as exc:
        raise ConfigError(f"bad channel document: {exc}") from exc
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
    if args.format == "csv":
        text = serialize.cpt_report_csv(payload)
    else:
        text = serialize.dumps_json(payload)
    _write(text, args.output)
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
            for name, (_, params) in SCENARIOS.items()
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
    """``args`` once the numeric checks argparse cannot make have passed."""
    if args.command == "verify-channel":
        if not 0.0 <= args.tol < math.inf:
            raise ConfigError(f"--tol must be finite and >= 0: {args.tol}")
    elif args.command == "sample":
        if not 0.0 < args.t < math.inf:
            raise ConfigError(f"--t must be finite and > 0: {args.t}")
    elif not 0.0 <= args.time < math.inf:
        raise ConfigError(f"--time must be finite and >= 0: {args.time}")
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
