#!/usr/bin/env python3
"""Benchmark of the modaldyn command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload born-record --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's requests as real ``python -m modaldyn.cli``
processes from one client in a closed loop (one request in flight), checks
every output, and prints the end-to-end metrics. ``--trace 1`` runs the same
requests in one process (``bench/trace.py``) with spans around the calls
into each package module and prints the per-layer metrics.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The environment, each request's times, exit code, check result
and stdout sha256, and the spans of a traced run are written under
``.bench_work/results/``. ``--self-test`` instead shows that a single
corrupted output value is counted as a failed request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Set before numpy loads its BLAS, here and in every request process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "modaldyn"
WORK = Path(".bench_work")

REQUEST_TIMEOUT_S = 60.0
# No request starts later than this into a run; a run must end within 180 s.
RUN_LIMIT_S = 150.0
# Dense operators a request may hold at once; the program itself has no guard.
DENSE_BUDGET_BYTES = 512 * 2**20
# About what calibrate() takes on a 2-vCPU Intel Xeon VM (see timed_run).
CALIBRATION_REF_S = 0.04

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "table_entries_per_s": "1/s",
    "trajectory_steps_per_s": "1/s",
}


# ------------------------------------------------------------------ processes

def request_env() -> dict:
    """Environment of every request process: one BLAS thread, this checkout."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MODALDYN_SEED")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    return env


def launch(argv: list[str], env: dict, stdout: Path, timeout: float) -> dict:
    """Run one process to completion; wall, CPU and max RSS from ``wait4``.

    The process is killed when ``timeout`` passes. The wall clock stops when
    the process exits, before it is reaped, so the deadline timer can never
    signal a reused pid.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "timed_out": fired.is_set(),
    }


def stderr_tail(stdout: Path) -> str:
    lines = stdout.with_suffix(".err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def judge(request, text: bytes) -> str | None:
    """None when the output passes the request's check, else the reason."""
    try:
        request.check(text)
    except (oracles.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def run_request(request, index: int, env: dict, out_dir: Path, deadline: float, mutate=None) -> dict:
    """Run one request process and check its output.

    ``mutate(index, text)`` may alter the output before it is checked; only
    the self-test uses it.
    """
    remaining = deadline - time.perf_counter()
    if remaining < 1.0:
        return {"index": index, "error": "not started: run time limit"}
    stdout = out_dir / f"{index:02d}.out"
    argv = [sys.executable, "-m", "modaldyn.cli", *request.argv]
    result = launch(argv, env, stdout, min(REQUEST_TIMEOUT_S, remaining))
    text = stdout.read_bytes()
    if mutate is not None:
        text = mutate(index, text)
    if result["timed_out"]:
        error = "timeout"
    elif result["exit_code"] != 0:
        error = f"exit code {result['exit_code']}: {stderr_tail(stdout)}"
    else:
        error = judge(request, text)
    result.update(index=index, sha256=hashlib.sha256(text).hexdigest(), error=error)
    return result


def import_sample(env: dict, out_dir: Path, deadline: float) -> dict:
    """One fresh ``python -c "import modaldyn.cli"`` process."""
    stdout = out_dir / "import.out"
    timeout = max(1.0, min(REQUEST_TIMEOUT_S, deadline - time.perf_counter()))
    result = launch([sys.executable, "-c", "import modaldyn.cli"], env, stdout, timeout)
    if result["exit_code"] != 0:
        raise SystemExit(f"import modaldyn.cli failed: {stderr_tail(stdout)}")
    return result


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter and BLAS work."""
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    a = _CALIBRATION_MATRIX
    for _ in range(100):
        a = np.tanh(a @ _CALIBRATION_MATRIX)
    np.linalg.eigvalsh(a + a.T)
    return time.perf_counter() - start


_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((128, 128)) / np.sqrt(128)


# -------------------------------------------------------------------- metrics

def _median(values: list[float]) -> float:
    """Median, or 0 for a request that never ran (it is counted as failed)."""
    return statistics.median(values) if values else 0.0


def end_to_end(requests, imports: list[dict], samples: list[list[dict]], scaled: bool = True) -> dict:
    """Metrics from per-request medians; ``samples[i]`` are request i's runs.

    ``wall_s`` and ``cpu_s`` add up each request's median, so a request
    sampled more often does not weigh more. With ``scaled``, every time is
    first multiplied by its sample's ``speed`` (see ``timed_run``).
    """

    def times(group: list[dict], key: str) -> list[float]:
        return [o[key] * (o.get("speed", 1.0) if scaled else 1.0) for o in group if key in o]

    wall = [_median(times(s, "wall_s")) for s in samples]
    cpu = [_median(times(s, "cpu_s")) for s in samples]
    attempted = sum(len(s) for s in samples)
    failed = sum(1 for s in samples for o in s if o["error"])

    def rate(field: str) -> float:
        picked = [i for i, r in enumerate(requests) if getattr(r, field)]
        spent = sum(wall[i] for i in picked)
        return sum(getattr(requests[i], field) for i in picked) / spent if spent else 0.0

    rss = [o["max_rss_mb"] for s in samples for o in s if "max_rss_mb" in o]
    return {
        "setup_s": _median(times(imports, "wall_s")),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(rss, default=0.0),
        "success_rate": (attempted - failed) / attempted,
        "table_entries_per_s": rate("entries"),
        "trajectory_steps_per_s": rate("trajectory_steps"),
    }


# ----------------------------------------------------------------------- runs

def timed_run(requests, env: dict, seconds: int, run_dir: Path, deadline: float) -> dict:
    """Untraced run: one pass over the requests, then more samples.

    After a warm-up import, every request and one fresh import are sampled
    once. The rest of the ``seconds`` window goes to further samples, each
    time to the item with the least wall time spent on it so far among those
    whose last sample still fits. Cheap requests thus get several samples
    spread over the run, and the run measures at most ``seconds`` unless the
    first pass alone is longer.

    The speed of a shared machine drifts by itself, by up to 2x over tens of
    seconds, and that drift would swamp any change to the program. So
    ``calibrate()`` runs before and after every sample, and each sample
    carries ``speed = CALIBRATION_REF_S / mean(calibration around it)``:
    its times multiplied by ``speed`` are what they would have been on a
    machine where the calibration takes ``CALIBRATION_REF_S``. The reported
    times are those scaled times; the measured ones are kept alongside.
    """
    import_sample(env, run_dir, deadline)
    end = time.perf_counter() + seconds
    imports: list[dict] = []
    samples: list[list[dict]] = [[] for _ in requests]
    before = calibrate()

    def take(i: int) -> None:
        nonlocal before
        if i < 0:
            result = import_sample(env, run_dir, deadline)
        else:
            result = run_request(requests[i], i, env, run_dir, deadline)
        after = calibrate()
        result["speed"] = CALIBRATION_REF_S / ((before + after) / 2.0)
        before = after
        (imports if i < 0 else samples[i]).append(result)

    for i in range(-1, len(requests)):
        take(i)
    while True:
        remaining = min(end, deadline) - time.perf_counter()
        items = {-1: imports, **dict(enumerate(samples))}
        fits = [i for i, s in items.items() if s[-1].get("wall_s", math.inf) <= remaining]
        if not fits:
            break
        take(min(fits, key=lambda k: (sum(o.get("wall_s", 0.0) for o in items[k]), k)))
    metrics = end_to_end(requests, imports, samples)
    attempted = sum(len(s) for s in samples)
    failed = sum(1 for s in samples for o in s if o["error"])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "detail": {
            "measured": end_to_end(requests, imports, samples, scaled=False),
            "imports": imports,
            "requests": [o for s in samples for o in s],
        },
    }


def traced_run(requests, env: dict, seconds: int, run_dir: Path, deadline: float) -> dict:
    """Traced run: ``bench/trace.py`` drives ``modaldyn.cli.main`` in process."""
    spec = {
        "requests": [list(r.argv) for r in requests],
        "seconds": seconds,
        "out_dir": str(run_dir / "traced"),
        "result": str(run_dir / "trace-result.json"),
        "spans": str(run_dir / "spans.json"),
    }
    Path(spec["out_dir"]).mkdir(parents=True, exist_ok=True)
    spec_path = run_dir / "trace-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result = launch(
        [sys.executable, str(Path(__file__).with_name("trace.py")), str(spec_path)],
        env,
        run_dir / "trace.out",
        max(1.0, deadline - time.perf_counter()),
    )
    if result["timed_out"] or result["exit_code"] != 0:
        raise SystemExit(f"traced run failed: {stderr_tail(run_dir / 'trace.out')}")
    traced = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    failed = 0
    for outcome in traced["requests"]:
        if outcome["error"] is None:
            text = (Path(spec["out_dir"]) / f"{outcome['index']:02d}.out").read_bytes()
            outcome["error"] = judge(requests[outcome["index"]], text)
        failed += outcome["error"] is not None
    return {
        "attempted": len(traced["requests"]),
        "failed": failed,
        "metrics": traced["metrics"],
        "detail": {"requests": traced["requests"], "rounds": traced["rounds"]},
    }


# ------------------------------------------------------------------ recording

def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    # A checkout that is not a git repository has no commit; do not let git
    # report the commit of a repository that happens to enclose it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=git_env
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: "1" for var in THREAD_VARS},
        "clients": 1,
        "in_flight": 1,
    }


def refuse_oversized(requests) -> None:
    for req in requests:
        if req.dense_bytes > DENSE_BUDGET_BYTES:
            raise SystemExit(
                f"refusing {' '.join(req.argv[:3])}: dense operators need about "
                f"{req.dense_bytes / 2**20:.0f} MiB, budget {DENSE_BUDGET_BYTES / 2**20:.0f} MiB"
            )


# ----------------------------------------------------------------------- main

def self_test(seed: int) -> int:
    """Corrupt one output value at a time and show it is counted as failed."""
    work = WORK / "self-test"
    work.mkdir(parents=True, exist_ok=True)
    requests = workloads.tail(np.random.default_rng(seed), work)
    env = request_env()
    deadline = time.perf_counter() + RUN_LIMIT_S
    for target in [None, *range(len(requests))]:
        def mutate(i, text, target=target):
            return workloads.corrupt(text) if i == target else text

        outcomes = [
            run_request(r, i, env, work, deadline, mutate) for i, r in enumerate(requests)
        ]
        failed = [o["index"] for o in outcomes if o["error"]]
        rate = 1.0 - end_to_end(requests, [], [[o] for o in outcomes])["success_rate"]
        print(f"self-test: corrupted request {target}: failed {failed}, error_rate {rate:.4f}")
        expected = [] if target is None else [target]
        if failed != expected or abs(rate - len(expected) / len(requests)) > 1e-12:
            print("self-test: FAILED", file=sys.stderr)
            return 1
    print("self-test: ok")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def _terminate(signum, frame) -> None:
    # Raising here unwinds through launch(), which kills and reaps the child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE}/cli.py not found; run from a modaldyn checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.self_test:
        return self_test(args.seed)
    work = WORK / args.workload
    requests = workloads.build(args.workload, args.seed, work)
    refuse_oversized(requests)
    run_dir = work / ("traced" if args.trace else "timed")
    run_dir.mkdir(parents=True, exist_ok=True)
    env = request_env()
    deadline = started + RUN_LIMIT_S
    # One vCPU for this process, its calibration and every request process,
    # so the calibration measures the core the requests run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = traced_run if args.trace else timed_run
    summary = run(requests, env, args.seconds, run_dir, deadline)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": [list(r.argv) for r in requests],
        "environment": environment(),
        **summary,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for key, metric in summary["metrics"].items():
        print(f"{key:32s} {metric['value']:>16.6g} {metric['unit']}")
    measured = summary["detail"].get("measured", {})
    for key in ("setup_s", "wall_s", "cpu_s"):
        if key in measured:
            print(f"{key + ' (measured)':32s} {measured[key]:>16.6g} s")
    print(f"{'error_rate':32s} {summary['failed'] / summary['attempted']:>16.6g} fraction")
    for outcome in summary["detail"]["requests"]:
        if outcome["error"]:
            print(f"request {outcome['index']} failed: {outcome['error']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
