"""In-process traced run of modaldyn CLI requests.

Started by ``bench/run.py --trace 1`` as ``python3 bench/trace.py SPEC`` from
the checkout root with ``PYTHONPATH=src``. It times ``import modaldyn.cli``,
then runs the requests through ``modaldyn.cli.main``: one warm-up pass, then
rounds of a pass with spans around the calls into each package module and
an untraced pass. The rebinding happens in this process only; no package
file changes. Besides the package modules' public functions, the CLI's own
stages (argument parsing, configuration, output writing) get spans, so the
time left to ``cli.main`` itself is only dispatch.

A span is ``[name, start, end, parent, request, counts]``. Spans stay in
memory; those of the last round are written when the run ends. A span's self time is its
duration minus the time its child spans cover. Per-layer metrics are the
medians over rounds; ``tracing.overhead_s`` is traced minus untraced pass
wall time, and ``tracing.coverage`` the smallest share of a request's wall
time that the spans under ``cli.main`` cover.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

STATE_SPANS = ("states.validate", "states.extract")


class Tracer:
    """Wraps package functions in spans and counts numpy eigensolver calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.eigh: list[tuple[int, bool]] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return spanned

    def _counted_eigh(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            in_state = any(self.spans[i][0] in STATE_SPANS for i in self._stack)
            self.eigh.append((int(a.shape[-1]), in_state))
            return fn(a, *args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every module-level name that refers to a traced function."""
        import numpy

        from modaldyn import channels, cli, conditional, linalg, scenarios, serialize, states
        from modaldyn import trajectories

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "modaldyn"]
        def dump_bytes(args, result):
            return len(result.encode("utf-8"))

        functions = [
            (scenarios, "von_neumann_measurement", "scenarios.build", None),
            (scenarios, "epr_bohm", "scenarios.build", None),
            (scenarios, "ghz_mermin", "scenarios.build", None),
            (scenarios, "dephasing_qubit", "scenarios.build", None),
            (scenarios, "amplitude_damping_qubit", "scenarios.build", None),
            (serialize, "scenario_from_document", "serialize.load", None),
            (serialize, "load_channel_document", "serialize.load", None),
            (serialize, "epistemic_payload", "serialize.dump", None),
            (serialize, "table_payload", "serialize.dump", None),
            (serialize, "trajectory_payload", "serialize.dump", None),
            (serialize, "ensemble_payload", "serialize.dump", None),
            (serialize, "dumps_json", "serialize.dump", dump_bytes),
            (serialize, "epistemic_csv", "serialize.dump", dump_bytes),
            (serialize, "table_csv", "serialize.dump", dump_bytes),
            (serialize, "trajectory_csv", "serialize.dump", dump_bytes),
            (serialize, "ensemble_csv", "serialize.dump", dump_bytes),
            (states, "extract_epistemic", "states.extract", None),
            (linalg, "hermitian_eig", "linalg.hermitian_eig", None),
            (linalg, "partial_trace", "linalg.partial_trace", None),
            (channels, "apply", "channels.apply", None),
            (channels, "compose", "channels.compose", None),
            (channels, "evolve", "channels.evolve", lambda a, r: len(r.operators)),
            # the checks themselves; verify_cpt only dispatches to them
            (channels, "completeness_residual", "channels.verify", None),
            (channels, "verify_kraus_operators", "channels.verify", None),
            (channels, "verify_superoperator_matrix", "channels.verify", None),
            (channels, "unitary_channel", "channels.verify", None),
            (conditional, "conditional_table", "conditional.table", lambda a, r: r.probabilities.size),
            (trajectories, "build_step_chain", "trajectories.chain_build", lambda a, r: r.grid.n_steps),
            (
                trajectories,
                "run_ensemble",
                "trajectories.ensemble",
                lambda a, r: r.sample_count * (len(r.times) - 1),
            ),
        ]
        methods = [
            (states.DensityMatrix, "__post_init__", "states.validate", None),
            (channels.KrausChannel, "__post_init__", "channels.construct", None),
            (channels.Superoperator, "__post_init__", "channels.construct", None),
            (trajectories.StepChain, "sample", "trajectories.ensemble", lambda a, r: len(r.points) - 1),
        ]
        for module, attr, name, counts in functions:
            original = getattr(module, attr)
            spanned = self.wrap(original, name, counts)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, spanned)
        for cls, attr, name, counts in methods:
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name, counts))
        for attr in ("eigh", "eigvalsh"):
            self._set(numpy.linalg, attr, self._counted_eigh(getattr(numpy.linalg, attr)))
        self._set(cli, "json", _JsonShim(self.wrap(json.load, "serialize.load", _file_bytes)))
        for attr, name in (
            ("build_parser", "cli.parse"),
            ("_config_from_args", "cli.config"),
            ("_write", "cli.write"),
        ):
            self._set(cli, attr, self.wrap(getattr(cli, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _JsonShim:
    """``json`` as the CLI sees it, with ``load`` spanned."""

    def __init__(self, load) -> None:
        self.load = load

    def __getattr__(self, name: str):
        return getattr(json, name)


def _file_bytes(args, result) -> int:
    return os.fstat(args[0].fileno()).st_size


def run_request(main, argv: list[str]) -> tuple[object, str, float, str | None]:
    """``(exit code, stdout, wall seconds, traceback or None)`` of one call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, failure = main(argv), None
        except Exception:  # a crash is this request's failure, not the run's
            code, failure = None, traceback.format_exc(limit=3)
    wall = perf_counter() - start
    return code, out.getvalue(), wall, failure or (err.getvalue().strip() or None)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, import_s: float) -> dict:
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    coverage = []
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        self_s[name] += (end - start) - covered[i]
        inclusive[name] += end - start
        calls[name] += 1
        counts[name] += count or 0
        if parent is None:
            coverage.append(covered[i] / (end - start))
    dims = [d for d, _ in tracer.eigh]
    in_states = sum(1 for _, s in tracer.eigh if s)
    table_s = inclusive["conditional.table"]
    return {
        "cli.import_s": (import_s, "s"),
        "scenarios.build_s": (self_s["scenarios.build"], "s"),
        "serialize.load_s": (self_s["serialize.load"], "s"),
        "serialize.load_bytes": (counts["serialize.load"], "bytes"),
        "serialize.dump_s": (self_s["serialize.dump"], "s"),
        "serialize.dump_bytes": (counts["serialize.dump"], "bytes"),
        "states.validate_s": (self_s["states.validate"], "s"),
        "states.validate_calls": (calls["states.validate"], "count"),
        "states.extract_s": (self_s["states.extract"], "s"),
        "states.extract_calls": (calls["states.extract"], "count"),
        "linalg.hermitian_eig_s": (self_s["linalg.hermitian_eig"], "s"),
        "linalg.partial_trace_s": (self_s["linalg.partial_trace"], "s"),
        "linalg.eigh_calls": (len(dims), "count"),
        "linalg.eigh_calls.d_le_16": (sum(1 for d in dims if d <= 16), "count"),
        "linalg.eigh_calls.d_17_256": (sum(1 for d in dims if 16 < d <= 256), "count"),
        "linalg.eigh_calls.d_gt_256": (sum(1 for d in dims if d > 256), "count"),
        "linalg.eigh_per_state": (in_states / max(calls["states.validate"], 1), "ratio"),
        "channels.apply_s": (self_s["channels.apply"], "s"),
        "channels.apply_calls": (calls["channels.apply"], "count"),
        "channels.compose_s": (self_s["channels.compose"], "s"),
        "channels.evolve_s": (self_s["channels.evolve"], "s"),
        "channels.kraus_operators": (counts["channels.evolve"], "count"),
        "channels.verify_s": (self_s["channels.verify"], "s"),
        "channels.verify_calls": (calls["channels.verify"], "count"),
        "channels.checks_per_channel": (
            calls["channels.verify"] / max(calls["channels.construct"], 1),
            "ratio",
        ),
        "conditional.table_s": (self_s["conditional.table"], "s"),
        "conditional.entries": (counts["conditional.table"], "count"),
        "conditional.entries_per_s": (counts["conditional.table"] / table_s if table_s else 0.0, "1/s"),
        "trajectories.chain_build_s": (self_s["trajectories.chain_build"], "s"),
        "trajectories.chain_steps": (counts["trajectories.chain_build"], "count"),
        "trajectories.ensemble_s": (self_s["trajectories.ensemble"], "s"),
        "trajectories.trajectory_steps": (counts["trajectories.ensemble"], "count"),
        "tracing.overhead_s": (traced_s - untraced_s, "s"),
        "tracing.coverage": (min(coverage), "fraction"),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = perf_counter()
    import modaldyn.cli as cli

    import_s = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path("src").resolve()):
        print(f"modaldyn imported from {cli.__file__}, not ./src", file=sys.stderr)
        return 2
    out_dir = Path(spec["out_dir"])
    requests = spec["requests"]
    rounds = []
    window = perf_counter()
    # The first pass fills allocator and library caches and gives the
    # reference outputs; it is not timed against the traced passes.
    reference = [run_request(cli.main, argv) for argv in requests]
    while True:
        round_start = perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            for i, argv in enumerate(requests):
                tracer.request = i
                traced.append(run_request(tracer.wrap(cli.main, "cli.main"), argv))
        finally:
            tracer.uninstall()
        untraced = [run_request(cli.main, argv) for argv in requests]
        outcomes = []
        for i, ((code0, text0, _, _), (code, text, wall, failure)) in enumerate(zip(reference, traced)):
            (out_dir / f"{i:02d}.out").write_text(text, encoding="utf-8")
            error = None
            if code != 0:
                last = (failure or "").strip().splitlines()
                error = f"exit code {code}: {last[-1] if last else ''}"
            elif text != text0 or code0 != code:
                error = "traced output differs from untraced output"
            outcomes.append(
                {
                    "index": i,
                    "wall_s": wall,
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                    "error": error,
                }
            )
        metrics = layer_metrics(
            tracer,
            sum(w for _, _, w, _ in untraced),
            sum(w for _, _, w, _ in traced),
            import_s,
        )
        rounds.append({"metrics": metrics, "requests": outcomes})
        took = perf_counter() - round_start
        if perf_counter() - window + took > spec["seconds"]:
            break
    Path(spec["spans"]).write_text(
        json.dumps({"spans": tracer.spans, "eigh": tracer.eigh}), encoding="utf-8"
    )
    result = {
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name][0] for r in rounds), "unit": unit}
            for name, (_, unit) in rounds[0]["metrics"].items()
        },
        "requests": [o for r in rounds for o in r["requests"]],
        "rounds": len(rounds),
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
