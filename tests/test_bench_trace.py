"""The per-layer benchmark harness still runs against this checkout.

``bench/trace.py`` rebinds ``modaldyn`` functions by name (among them
``cli.build_parser``, ``cli._config_from_args``, ``cli._write`` and
``cli.json``), so a rename in ``src/`` would break it without failing any
other test. This runs it on one tiny request per subcommand.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from modaldyn.serialize import matrix_to_pairs

ROOT = Path(__file__).resolve().parent.parent


def test_trace_harness_runs_one_request_per_subcommand(tmp_path):
    channel = tmp_path / "channel.json"
    doc = {"schema_version": 1, "kind": "kraus", "operators": [matrix_to_pairs(np.eye(2))]}
    channel.write_text(json.dumps(doc), encoding="utf-8")
    requests = [
        ["epistemic", "--scenario", "epr-bohm", "--subsystem", "A"],
        ["conditional", "--scenario", "ghz", "--blocks", "A,B+C", "--mode", "permissive"],
        ["sample", "--scenario", "dephasing", "--t", "1", "--steps", "4", "--n", "3",
         "--seed", "1"],
        ["verify-channel", "--channel", str(channel)],
    ]
    spec = {
        "requests": requests,
        "seconds": 0,  # one traced round
        "out_dir": str(tmp_path),
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    env.pop("MODALDYN_SEED", None)
    proc = subprocess.run(
        [sys.executable, "bench/trace.py", str(spec_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [r["error"] for r in result["requests"]] == [None] * len(requests)
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))["spans"]
    names = {span[0] for span in spans}
    # builders reached through scenarios.SCENARIOS must still be spanned
    assert {
        "cli.parse",
        "cli.config",
        "cli.write",
        "serialize.load",
        "scenarios.build",
        "channels.evolve",
    } <= names
