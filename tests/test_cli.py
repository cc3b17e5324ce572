import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from modaldyn.cli import main
from modaldyn.serialize import matrix_to_pairs

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_epistemic_json(capsys):
    code, out, _ = run(capsys, "epistemic", "--scenario", "epr-bohm", "--subsystem", "A")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "epistemic"
    assert payload["probabilities"] == pytest.approx([0.5, 0.5])
    assert payload["degenerate_clusters"] == [[0, 1]]


def test_epistemic_unknown_scenario(capsys):
    code, _, err = run(capsys, "epistemic", "--scenario", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_epistemic_unknown_subsystem(capsys):
    code, _, err = run(
        capsys, "epistemic", "--scenario", "epr-bohm", "--subsystem", "Z"
    )
    assert code == 2


def test_conditional_strict_refuses_epr(capsys):
    code, _, err = run(
        capsys, "conditional", "--scenario", "epr-bohm", "--blocks", "A,B"
    )
    assert code == 4
    assert "degenera" in err.lower()


def test_conditional_permissive_epr(capsys):
    code, out, _ = run(
        capsys,
        "conditional",
        "--scenario",
        "epr-bohm",
        "--blocks",
        "A,B",
        "--mode",
        "permissive",
    )
    assert code == 0
    payload = json.loads(out)
    probs = np.asarray(payload["probabilities"])
    assert probs.shape == (1, 2, 2)
    assert probs[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert probs[0, 0, 1] == pytest.approx(0.5, abs=1e-12)


def test_conditional_bad_blocks(capsys):
    code, _, err = run(
        capsys,
        "conditional",
        "--scenario",
        "epr-bohm",
        "--blocks",
        "A",  # does not cover B
        "--mode",
        "permissive",
    )
    assert code == 2


def test_sample_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("MODALDYN_SEED", raising=False)
    code, _, err = run(
        capsys, "sample", "--scenario", "damping", "--t", "1.0", "--steps", "4"
    )
    assert code == 2
    assert "seed" in err.lower()


def test_sample_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("MODALDYN_SEED", "777")
    code, out, _ = run(
        capsys, "sample", "--scenario", "damping", "--t", "1.0", "--steps", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 777


def test_sample_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("MODALDYN_SEED", "777")
    code, out, _ = run(
        capsys,
        "sample",
        "--scenario",
        "damping",
        "--t",
        "1.0",
        "--steps",
        "4",
        "--seed",
        "5",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 5


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (("--seed", "-1"), "7", "--seed must be >= 0: -1"),
        ((), "-3", "MODALDYN_SEED must be >= 0: -3"),
    ],
    ids=["flag", "env"],
)
def test_a_negative_seed_exits_2_before_the_chain_is_built(
    capsys, monkeypatch, flag, env, message
):
    from modaldyn import trajectories

    def build_step_chain(*args, **kwargs):
        raise AssertionError("the chain was built")

    # sample imports build_step_chain from its module when it runs
    monkeypatch.setattr(trajectories, "build_step_chain", build_step_chain)
    monkeypatch.setenv("MODALDYN_SEED", env)
    code, out, err = run(
        capsys, "sample", "--scenario", "damping", "--t", "1", "--steps", "20000",
        "--n", "2", *flag,
    )
    assert (code, out) == (2, "")
    assert err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (("--seed", "4294967296"), "7", "--seed must be below 4294967296: 4294967296"),
        ((), "12884901899", "MODALDYN_SEED must be below 4294967296: 12884901899"),
    ],
    ids=["flag", "env"],
)
def test_a_seed_of_2_to_the_32_or_more_exits_2(capsys, monkeypatch, flag, env, message):
    # numpy ignores a seed's trailing zero 32-bit words: block 0 of seed
    # 3 * 2^32 + 11 would draw what block 3 of seed 11 draws
    monkeypatch.setenv("MODALDYN_SEED", env)
    argv = ("sample", "--scenario", "damping", "--t", "1", "--steps", "4", "--n", "2")
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (2, "")
    assert err == f"configuration error: {message}\n"
    code, out, _ = run(capsys, *argv, "--seed", "4294967295")
    assert code == 0
    assert json.loads(out)["base_seed"] == 4294967295


@pytest.mark.parametrize("n", ["1", "3"])
def test_sample_documents_name_their_rng_contract(capsys, n):
    code, out, _ = run(
        capsys, "sample", "--scenario", "damping", "--t", "1", "--steps", "4",
        "--n", n, "--seed", "5",
    )
    assert code == 0
    rng = {"algorithm": "PCG64", "block_size": 4096, "contract_version": 2}
    assert json.loads(out)["rng"] == rng


def test_sample_static_scenario_rejected(capsys):
    code, _, err = run(
        capsys,
        "sample",
        "--scenario",
        "epr-bohm",
        "--t",
        "1.0",
        "--steps",
        "4",
        "--seed",
        "1",
    )
    assert code == 2
    assert "generator" in err


def test_outputs_are_byte_identical(capsys):
    cases = [
        ("epistemic", "--scenario", "ghz-mermin", "--subsystem", "A,B"),
        (
            "conditional",
            "--scenario",
            "ghz-mermin",
            "--blocks",
            "A,B+C",
            "--mode",
            "permissive",
            "--format",
            "csv",
        ),
        (
            "sample",
            "--scenario",
            "damping",
            "--t",
            "1.0",
            "--steps",
            "8",
            "--n",
            "50",
            "--seed",
            "2024",
        ),
        (
            "sample",
            "--scenario",
            "dephasing",
            "--rho0",
            "diag:0.6,0.4",
            "--t",
            "0.5",
            "--steps",
            "3",
            "--seed",
            "9",
            "--format",
            "csv",
        ),
    ]
    for argv in cases:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1


# The CSV form of a document: its header, its rows and its "# key: value"
# comments, each value written as the CSV writer writes it (repr floats).
def _epistemic_csv(doc):
    probs, clusters = doc["probabilities"], doc["degenerate_clusters"]
    rows = [
        [str(i), repr(p), str(int(any(i in c for c in clusters)))]
        for i, p in enumerate(probs)
    ]
    comments = {"truncation_mass": repr(doc["truncation_mass"])}
    return ["index", "probability", "degenerate"], rows, comments


def _ensemble_csv(doc):
    rows = [
        [repr(t), str(lab), repr(f), repr(e)]
        for t, fs, es in zip(doc["times"], doc["frequencies"], doc["eigenvalues"])
        for lab, (f, e) in enumerate(zip(fs, es))
    ]
    comments = {
        "max_abs_deviation": repr(doc["max_abs_deviation"]),
        "sample_count": str(doc["sample_count"]),
    }
    return ["time", "index", "frequency", "eigenvalue"], rows, comments


def _report_csv(doc):
    return ["field", "value"], [[key, str(doc[key])] for key in sorted(doc)], {}


@pytest.mark.parametrize(
    "argv, csv_of",
    [
        (("epistemic", "--scenario", "dephasing", "--time", "0.3"), _epistemic_csv),
        (("epistemic", "--scenario", "epr-bohm", "--subsystem", "A"), _epistemic_csv),
        (
            ("sample", "--scenario", "damping", "--t", "1", "--steps", "4")
            + ("--n", "50", "--seed", "3"),
            _ensemble_csv,
        ),
        (("verify-channel", "--channel", "kraus.json"), _report_csv),
    ],
    ids=["epistemic", "epistemic-degenerate", "sample", "verify-channel"],
)
def test_a_csv_document_carries_the_values_of_its_json_document(
    capsys, tmp_path, monkeypatch, argv, csv_of
):
    ops = [np.diag([1.0, np.sqrt(0.6)]), np.array([[0.0, np.sqrt(0.4)], [0.0, 0.0]])]
    doc = {"schema_version": 1, "kind": "kraus", "operators": matrix_to_pairs(ops)}
    (tmp_path / "kraus.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, text, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "# schema_version: 1"
    comments = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    del comments["schema_version"]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert (header, rows, comments) == csv_of(json.loads(out))


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "epistemic", "--scenario", "epr-bohm")
    code2 = main(
        ["epistemic", "--scenario", "epr-bohm", "--output", str(target)]
    )
    capsys.readouterr()
    assert code == code2 == 0
    assert target.read_text(encoding="utf-8") == out


def test_verify_channel_accepts_valid_kraus(capsys, tmp_path):
    p = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]])
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])
    doc = {
        "schema_version": 1,
        "kind": "kraus",
        "operators": [matrix_to_pairs(k0), matrix_to_pairs(k1)],
    }
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-channel", "--channel", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_cp"] and payload["is_tp"]


def test_verify_channel_rejects_transpose_map(capsys, tmp_path):
    d = 2
    s = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            s[d * j + i, d * i + j] = 1.0
    doc = {"schema_version": 1, "kind": "superoperator", "matrix": matrix_to_pairs(s)}
    path = tmp_path / "transpose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-channel", "--channel", str(path))
    assert code == 5
    payload = json.loads(out)
    assert payload["is_tp"] is True
    assert payload["is_cp"] is False
    assert payload["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)


def test_verify_channel_flags_completeness_residual(capsys, tmp_path):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]])
    k1 = np.array([[0.0, np.sqrt(0.3 + 1e-6)], [0.0, 0.0]])
    doc = {
        "schema_version": 1,
        "kind": "kraus",
        "operators": [matrix_to_pairs(k0), matrix_to_pairs(k1)],
    }
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-channel", "--channel", str(path))
    assert code == 5
    payload = json.loads(out)
    assert payload["is_tp"] is False
    assert payload["completeness_residual"] > 1e-7


def test_verify_channel_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify-channel", "--channel", str(path))
    assert code == 2


def _lindblad_channel_file(
    tmp_path, n_qubits: int, seed: int, duration: float, n_jumps=3, rate_scale=1.0
) -> str:
    """A random generator on n qubits and a duration, as a file."""
    from random_objects import random_lindblad

    g = random_lindblad(2**n_qubits, n_jumps, np.random.default_rng(seed), rate_scale)
    doc = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(g.hamiltonian),
        "jumps": [{"operator": matrix_to_pairs(op), "rate": rate} for op, rate in g.jumps],
        "duration": duration,
    }
    path = tmp_path / f"lindblad-channel-{n_qubits}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_verify_channel_on_a_long_lindblad_duration(capsys, tmp_path):
    # the map takes 17 squarings here
    path = _lindblad_channel_file(tmp_path, 2, 45, 1e4)
    code, out, _ = run(capsys, "verify-channel", "--channel", path)
    payload = json.loads(out)
    assert code == 0
    assert (payload["is_cp"], payload["is_tp"]) == (True, True)


@pytest.mark.parametrize("duration", [1e7, 1e12])
@pytest.mark.parametrize("n_qubits", [2, 3])
def test_a_dense_generator_is_verified_over_any_duration(capsys, tmp_path, n_qubits, duration):
    # without the trace projection, 2^q squarings drift the map's eigenvalue
    # 1: a Kraus family extracted from it missed completeness by 5.8e-9
    # (2 qubits, 1e7) to 1.5e-3 (3 qubits, 1e12), and the check exited 5
    path = _lindblad_channel_file(tmp_path, n_qubits, 0, duration)
    code, out, err = run(capsys, "verify-channel", "--channel", path)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["is_cp"], payload["is_tp"]) == (True, True)


@pytest.mark.parametrize("rate", [1e8, 1e12, 1e30, 1e100])
def test_a_generator_with_fast_rates_is_verified(capsys, tmp_path, rate):
    # plain squaring missed completeness by 1.9e-8 at 1e8 and by 1.7e-3 at
    # 1e12; at 1e30 and 1e100 it overflowed, with numpy warnings, into a
    # Choi matrix LAPACK could not decompose
    doc = json.loads(Path(_lindblad_channel_file(tmp_path, 2, 1, 1.0, n_jumps=2)).read_text())
    for jump in doc["jumps"]:
        jump["rate"] = rate
    path = tmp_path / "fast-rates.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify-channel", "--channel", str(path))
    assert (code, err, caught) == (0, "", [])
    payload = json.loads(out)
    assert (payload["is_cp"], payload["is_tp"]) == (True, True)


def test_a_lindblad_report_measures_the_map_itself(capsys, tmp_path):
    # the report reads exp(t L) as generator_map forms it, not a Kraus
    # family extracted from it and renormalized
    from modaldyn import generator_map
    from random_objects import random_lindblad

    path = _lindblad_channel_file(tmp_path, 2, 48, 0.7)
    code, out, _ = run(capsys, "verify-channel", "--channel", path)
    payload = json.loads(out)
    assert code == 0
    d = 4
    x = generator_map(random_lindblad(d, 3, np.random.default_rng(48)), 0.7)
    # Choi[(i, k), (j, l)] = X[(i, j), (k, l)]; its output-side partial trace
    # is the map's trace row, sum_i X[(i, i), :]
    choi = x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    choi_min = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min()
    trace_row = sum(x[i * d + i] for i in range(d)).reshape(d, d)
    residual = np.linalg.norm(trace_row - np.eye(d))
    assert payload["choi_min_eigenvalue"] == pytest.approx(choi_min, rel=0, abs=1e-15)
    assert payload["completeness_residual"] == pytest.approx(residual, rel=0, abs=1e-15)


def test_a_fast_generator_is_sampled_and_verified(capsys, tmp_path):
    # rates 2.2e6 and 7.0e6: the generator matrix's trace row holds 3.8e-9
    # of round-off, which no check may take for a defect
    from modaldyn import Scenario, SystemLayout
    from random_objects import random_density_matrix, random_lindblad
    from modaldyn.serialize import scenario_to_document

    channel = _lindblad_channel_file(tmp_path, 2, 0, 1e-7, n_jumps=2, rate_scale=1e7)
    code, out, err = run(capsys, "verify-channel", "--channel", channel)
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["is_cp"], payload["is_tp"]) == (True, True)

    g = random_lindblad(4, 2, np.random.default_rng(0), rate_scale=1e7)
    layout = SystemLayout.qubits(("A", "B"))
    sc = Scenario("fast", random_density_matrix(layout, np.random.default_rng(1)), g)
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(scenario_to_document(sc)), encoding="utf-8")
    argv = ("--t", "1e-6", "--steps", "10", "--n", "100", "--seed", "1")
    code, _, err = run(capsys, "sample", "--scenario", str(path), *argv)
    assert code == 0, err


def test_verify_channel_lindblad_document(capsys, tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(np.zeros((2, 2))),
        "jumps": [{"operator": matrix_to_pairs(np.diag([1.0, -1.0])), "rate": 1.0}],
        "duration": 0.5,
    }
    path = tmp_path / "lind.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-channel", "--channel", str(path))
    assert code == 0
    assert json.loads(out)["is_cp"] is True


def test_verify_channel_rejects_a_non_hermitian_hamiltonian_without_a_report(
    capsys, tmp_path
):
    doc = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "jumps": [],
    }
    path = tmp_path / "lind.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify-channel", "--channel", str(path))
    assert (code, out) == (5, "")
    assert err == "channel rejected: Hamiltonian deviates from Hermitian by 1.000e+00\n"


@pytest.mark.parametrize(
    "matrix, code, is_tp",
    [(np.array([[0.0, 1.0], [1.0, 0.0]]), 0, True), (np.diag([2.0, 1.0]), 5, False)],
    ids=["unitary", "not-unitary"],
)
def test_verify_channel_unitary_document(capsys, tmp_path, matrix, code, is_tp):
    doc = {"schema_version": 1, "kind": "unitary", "matrix": matrix_to_pairs(matrix)}
    path = tmp_path / "unitary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, out, _ = run(capsys, "verify-channel", "--channel", str(path))
    payload = json.loads(out)
    assert got == code
    assert (payload["channel_kind"], payload["dim"]) == ("unitary", 2)
    assert payload["is_cp"] is True
    assert payload["is_tp"] is is_tp


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_channel_tol_must_be_finite_and_nonnegative(capsys, tmp_path, tol):
    doc = {"schema_version": 1, "kind": "kraus", "operators": [matrix_to_pairs(np.eye(2))]}
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify-channel", "--channel", str(path), "--tol", tol)
    assert code == 2
    assert out == ""
    assert f"--tol must be finite and >= 0: {float(tol)}" in err


def test_scenario_file_source(capsys, tmp_path):
    from modaldyn import dephasing_qubit
    from modaldyn.serialize import scenario_to_document

    doc = scenario_to_document(dephasing_qubit(gamma=0.5))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "sample",
        "--scenario",
        str(path),
        "--t",
        "1.0",
        "--steps",
        "2",
        "--seed",
        "3",
        "--mode",
        "permissive",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "trajectory"


def test_argparse_errors_exit_2(capsys):
    assert main(["conditional", "--scenario", "epr-bohm"]) == 2  # missing --blocks
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    # a channel check reads no spectrum, so it takes no threshold
    assert main(["verify-channel", "--channel", "c.json", "--threshold", "0.7"]) == 2
    assert "unrecognized arguments: --threshold 0.7" in capsys.readouterr().err


def _scenario_file(tmp_path, **changes):
    # json.dumps writes NaN as the bare literal, which json.load accepts
    from modaldyn import dephasing_qubit
    from modaldyn.serialize import scenario_to_document

    doc = scenario_to_document(dephasing_qubit(gamma=0.5))
    doc.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_nan_initial_state_is_rejected(capsys, tmp_path):
    # refused as the file is read, before a state check turns it into NaN
    # and numpy warnings
    for bad in (np.nan, np.inf):
        rho = np.diag([bad, 0.5])
        path = _scenario_file(tmp_path, initial_state=matrix_to_pairs(rho))
        for argv in (
            ("epistemic", "--scenario", path),
            ("sample", "--scenario", path, "--t", "1", "--steps", "2", "--seed", "1"),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, err)
            message = f"initial state entries must be finite: ({bad}+0j)"
            assert err == f"configuration error: {message}\n"
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "kind, key, what",
    [("kraus", "operators", "Kraus operator"), ("schedule", "unitaries", "unitary")],
)
@pytest.mark.parametrize(
    "argv", [("epistemic",), ("conditional", "--blocks", "Q")], ids=lambda a: a[0]
)
def test_non_finite_scenario_dynamics_entries_are_rejected(
    capsys, tmp_path, bad, kind, key, what, argv
):
    # refused as the file is read, before a completeness or unitarity check
    # does arithmetic on it
    op = np.diag([1.0, bad])
    dynamics = {"kind": kind, key: [matrix_to_pairs(op)]}
    path = _scenario_file(tmp_path, dynamics=dynamics)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--scenario", path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"configuration error: {what} entries must be finite: ({bad}+0j)\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_non_hermitian_initial_state_is_rejected(capsys, tmp_path):
    rho = np.array([[0.5, 0.5], [0.0, 0.5]])
    path = _scenario_file(tmp_path, initial_state=matrix_to_pairs(rho))
    code, out, _ = run(capsys, "epistemic", "--scenario", path)
    assert code == 3
    assert out == ""


def test_a_file_does_not_shadow_a_scenario_name(capsys, tmp_path, monkeypatch):
    from modaldyn import epr_bohm
    from modaldyn.serialize import dumps_json, scenario_to_document

    argv = ("epistemic", "--scenario", "damping", "--gamma", "2", "--time", "0.5")
    want = run(capsys, *argv)
    assert want[0] == 0
    (tmp_path / "damping").write_text(dumps_json(scenario_to_document(epr_bohm())))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == want
    # a path still reads the file
    code, out, _ = run(capsys, "epistemic", "--scenario", "./damping", "--subsystem", "A")
    assert code == 0
    assert json.loads(out)["probabilities"] == pytest.approx([0.5, 0.5])


def test_nan_kraus_dynamics_is_rejected(capsys, tmp_path):
    # a bad document (exit 2), refused before the completeness check (exit 5)
    k0 = np.array([[1.0, 0.0], [0.0, np.nan]])
    k1 = np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]])
    dynamics = {"kind": "kraus", "operators": [matrix_to_pairs(k0), matrix_to_pairs(k1)]}
    path = _scenario_file(tmp_path, dynamics=dynamics)
    code, out, err = run(capsys, "conditional", "--scenario", path, "--blocks", "Q")
    assert (code, out) == (2, "")
    assert err == "configuration error: Kraus operator entries must be finite: (nan+0j)\n"


def test_a_nan_unitary_schedule_exits_2_and_a_non_unitary_one_exits_3(capsys, tmp_path):
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad, code in ((np.diag([np.nan, 1.0]), 2), (np.diag([2.0, 1.0]), 3)):
        dynamics = {"kind": "schedule", "unitaries": [matrix_to_pairs(flip), matrix_to_pairs(bad)]}
        path = _scenario_file(tmp_path, dynamics=dynamics)
        assert run(capsys, "conditional", "--scenario", path, "--blocks", "Q")[:2] == (code, "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["conditional", "--scenario", "damping", "--blocks", "Q", "--time", "nan"], "--time"),
        (["conditional", "--scenario", "damping", "--blocks", "Q", "--time", "-1"], "--time"),
        (["epistemic", "--scenario", "damping", "--time", "nan"], "--time"),
        (["epistemic", "--scenario", "damping", "--time", "inf"], "--time"),
        (["sample", "--scenario", "damping", "--t", "nan", "--steps", "4", "--seed", "1"], "--t"),
    ],
    ids=["conditional-nan", "conditional-negative", "epistemic-nan", "epistemic-inf", "sample-nan"],
)
def test_non_finite_or_negative_times_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{flag} must be finite" in err


def test_von_neumann_state_vector_over_budget_exits_2(capsys):
    argv = ["epistemic", "--scenario", "von-neumann", "--n-env", "40", "--subsystem", "S,P"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "70368744177664 bytes" in err and "budget" in err


def test_dense_reduced_matrix_over_budget_exits_2(capsys):
    # the E block's reduced matrix would be 2^16 x 2^16 complex: 64 GiB
    env = "+".join(f"E{k}" for k in range(1, 17))
    argv = ["conditional", "--scenario", "von-neumann", "--n-env", "16", "--blocks", f"S,P,{env}"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "68719476736 bytes" in err and "budget" in err


def test_sample_grid_over_budget_exits_2(capsys):
    # 5,000,001 grid states of 2 x 2 complex entries: 320 MB in one stack
    argv = ["sample", "--scenario", "damping", "--t", "1", "--steps", "5000000"]
    code, out, err = run(capsys, *argv, "--n", "1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "320000064 bytes" in err and "budget" in err


def _error_inputs(tmp_path):
    from modaldyn import dephasing_qubit
    from modaldyn.serialize import scenario_to_document

    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    doc = scenario_to_document(dephasing_qubit(gamma=0.5))
    (tmp_path / "dephasing.json").write_text(json.dumps(doc), encoding="utf-8")
    del doc["layout"]
    (tmp_path / "nolayout.json").write_text(json.dumps(doc), encoding="utf-8")
    bogus = {"schema_version": 1, "kind": "bogus"}
    (tmp_path / "bogus.json").write_text(json.dumps(bogus), encoding="utf-8")
    for prefix, docs in (("channel", _bad_channels()), ("scenario", _bad_scenarios())):
        for name, bad in docs.items():
            path = tmp_path / f"{prefix}-{name}.json"
            path.write_text(json.dumps(bad), encoding="utf-8")


def _with_entry(value):
    """The 2x2 identity as [re, im] pairs, with one imaginary part replaced."""
    pairs = matrix_to_pairs(np.eye(2))
    pairs[0][0][1] = value
    return pairs


def _bad_channels() -> dict:
    z = matrix_to_pairs(np.diag([1.0, -1.0]))
    lindblad = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(np.zeros((2, 2))),
        "jumps": [{"operator": z, "rate": 1.0}],
        "duration": 0.5,
    }
    kraus = {"schema_version": 1, "kind": "kraus"}
    wide = matrix_to_pairs(np.eye(2, 3))
    return {
        "jumps-entry-int": dict(lindblad, jumps=[5]),
        "jumps-int": dict(lindblad, jumps=5),
        "rate-null": dict(lindblad, jumps=[{"operator": z, "rate": None}]),
        "rate-bool": dict(lindblad, jumps=[{"operator": z, "rate": True}]),
        "duration-null": dict(lindblad, duration=None),
        "duration-string": dict(lindblad, duration="1"),
        "entry-null": dict(kraus, operators=[_with_entry(None)]),
        "entry-object": dict(kraus, operators=[_with_entry({})]),
        "entry-numeric-string": dict(kraus, operators=[_with_entry("0")]),
        "operators-int": dict(kraus, operators=5),
        "kraus-unequal-shapes": dict(
            kraus, operators=[matrix_to_pairs(np.eye(2)), matrix_to_pairs(np.eye(1))]
        ),
        "kraus-not-square": dict(kraus, operators=[wide]),
        "unitary-not-square": {"schema_version": 1, "kind": "unitary", "matrix": wide},
        "hamiltonian-not-square": dict(lindblad, hamiltonian=wide),
        "jump-not-hamiltonian-size": dict(lindblad, jumps=[{"operator": wide, "rate": 1.0}]),
    }


def _bad_scenarios() -> dict:
    from modaldyn import dephasing_qubit
    from modaldyn.serialize import scenario_to_document

    doc = scenario_to_document(dephasing_qubit(gamma=0.5))
    lindblad = doc["dynamics"]
    z = lindblad["jumps"][0]["operator"]
    unequal = [matrix_to_pairs(np.eye(2)), matrix_to_pairs(np.eye(1))]
    four = [matrix_to_pairs(np.eye(4))]
    return {
        "dynamics-int": dict(doc, dynamics=5),
        "jumps-entry-int": dict(doc, dynamics=dict(lindblad, jumps=[5])),
        "rate-null": dict(
            doc, dynamics=dict(lindblad, jumps=[{"operator": z, "rate": None}])
        ),
        "entry-null": dict(doc, initial_state=_with_entry(None)),
        "empty-row": dict(doc, initial_state=[[]]),
        "kraus-unequal-shapes": dict(
            doc, dynamics={"kind": "kraus", "operators": unequal}
        ),
        "dims-float": dict(doc, layout={"dims": [2.5], "labels": ["Q"]}),
        "dims-string": dict(doc, layout={"dims": ["2"], "labels": ["Q"]}),
        "dims-bool": dict(doc, layout={"dims": [True, True], "labels": ["A", "B"]}),
        "dims-labels-unequal": dict(doc, layout={"dims": [2], "labels": ["A", "B"]}),
        "layout-empty": dict(doc, layout={"dims": [], "labels": []}),
        "state-not-layout-size": dict(doc, layout={"dims": [4], "labels": ["Q"]}),
        "state-not-square": dict(doc, initial_state=matrix_to_pairs(np.ones((2, 3)))),
        "kraus-not-layout-size": dict(doc, dynamics={"kind": "kraus", "operators": four}),
        "unitaries-not-layout-size": dict(
            doc, dynamics={"kind": "schedule", "unitaries": four}
        ),
        "hamiltonian-not-layout-size": dict(
            doc, dynamics=dict(lindblad, hamiltonian=four[0])
        ),
        "jump-not-layout-size": dict(
            doc,
            dynamics=dict(
                lindblad,
                jumps=[{"operator": z, "rate": 1.0}, {"operator": four[0], "rate": 1.0}],
            ),
        ),
    }


SAMPLE = ("sample", "--scenario", "damping", "--t", "1", "--steps", "4")
NO_FILE = "[Errno 2] No such file or directory: '{dir}/missing.json'"
CONFIG_ERRORS = {
    "scenario-file-missing": (
        ("epistemic", "--scenario", "{dir}/missing.json"),
        "cannot read scenario file '{dir}/missing.json': " + NO_FILE,
    ),
    "scenario-file-malformed": (
        ("epistemic", "--scenario", "{dir}/broken.json"),
        "malformed JSON in '{dir}/broken.json': Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)",
    ),
    "scenario-file-no-layout": (
        ("epistemic", "--scenario", "{dir}/nolayout.json"),
        "bad scenario document '{dir}/nolayout.json': missing required key 'layout'",
    ),
    "channel-file-missing": (
        ("verify-channel", "--channel", "{dir}/missing.json"),
        "cannot read channel file: " + NO_FILE,
    ),
    "channel-kind-bogus": (
        ("verify-channel", "--channel", "{dir}/bogus.json"),
        "bad channel document: unknown channel kind 'bogus'",
    ),
    "alpha2": (
        ("epistemic", "--scenario", "von-neumann", "--alpha2", "1.5"),
        "--alpha2 must lie in [0, 1]: 1.5",
    ),
    "flow-norm-overflows": (
        ("epistemic", "--scenario", "damping", "--gamma", "1e300", "--time", "1e10"),
        "duration times the generator's norm bound is inf, not a finite number",
    ),
    "flow-over-work-budget": (
        ("epistemic", "--scenario", "damping", "--time", "1e9"),
        "flowing 1 matrices of dimension 2 for a duration of 1e+09 takes 423728814 "
        "steps of degree 30, about 1.35e+15 multiply-adds, over the budget of 6.87e+10",
    ),
    # a threshold above every eigenvalue of a state it reads
    "threshold-epistemic": (
        ("epistemic", "--scenario", "epr-bohm", "--subsystem", "A", "--threshold", "0.9"),
        "threshold 0.9 keeps no eigenvalue, the largest being 0.5",
    ),
    "threshold-conditional": (
        ("conditional", "--scenario", "epr-bohm", "--blocks", "A,B", "--threshold", "0.9",
         "--mode", "permissive"),
        "threshold 0.9 keeps no eigenvalue, the largest being 0.5",
    ),
    "threshold-sample": (
        ("sample", "--scenario", "dephasing", "--t", "1", "--steps", "2", "--threshold",
         "0.9", "--seed", "1", "--mode", "permissive"),
        "grid point 1 (t=0.5): threshold 0.9 keeps no eigenvalue, the largest being "
        "0.683939720585722",
    ),
    "rho0-unknown": (
        ("epistemic", "--scenario", "dephasing", "--rho0", "bogus"),
        "unknown --rho0 'bogus'; use plus, zero, one, or diag:p0,p1",
    ),
    "rho0-unparsable": (
        ("epistemic", "--scenario", "dephasing", "--rho0", "diag:a,b"),
        "cannot parse --rho0 'diag:a,b': could not convert string to float: 'a'",
    ),
    "rho0-three-weights": (
        ("epistemic", "--scenario", "dephasing", "--rho0", "diag:0.2,0.3,0.5"),
        "--rho0 diag: expects two comma-separated weights",
    ),
    "scenario-unknown": (
        ("epistemic", "--scenario", "nope"),
        "unknown scenario 'nope'; names: epr-bohm, ghz-mermin, dephasing, damping, "
        "von-neumann, ghz, or a .json scenario file",
    ),
    "rho0-on-epr-bohm": (
        ("epistemic", "--scenario", "epr-bohm", "--rho0", "diag:0.3,0.7"),
        "--rho0 does not apply to scenario 'epr-bohm'",
    ),
    "gamma-on-epr-bohm": (
        ("epistemic", "--scenario", "epr-bohm", "--gamma", "3"),
        "--gamma does not apply to scenario 'epr-bohm'",
    ),
    "n-env-on-ghz": (
        ("conditional", "--scenario", "ghz", "--n-env", "3", "--blocks", "A,B,C"),
        "--n-env does not apply to scenario 'ghz'",
    ),
    "coupling-on-damping": (
        ("epistemic", "--scenario", "damping", "--coupling", "0.9"),
        "--coupling does not apply to scenario 'damping'",
    ),
    "alpha2-on-dephasing": (
        ("sample", "--scenario", "dephasing", "--t", "1", "--steps", "4", "--alpha2", "0.5"),
        "--alpha2 does not apply to scenario 'dephasing'",
    ),
    "gamma-on-scenario-file": (
        ("epistemic", "--scenario", "{dir}/dephasing.json", "--gamma", "2"),
        "--gamma does not apply to scenario '{dir}/dephasing.json'",
    ),
    "rho0-on-scenario-file": (
        ("epistemic", "--scenario", "{dir}/dephasing.json", "--rho0", "plus"),
        "--rho0 does not apply to scenario '{dir}/dephasing.json'",
    ),
    "rho0-bogus-on-scenario-file": (
        ("epistemic", "--scenario", "{dir}/dephasing.json", "--rho0", "bogus"),
        "unknown --rho0 'bogus'; use plus, zero, one, or diag:p0,p1",
    ),
    "scenario-file-deep": (
        ("epistemic", "--scenario", "{dir}/deep.json"),
        "cannot read scenario file '{dir}/deep.json': JSON nested too deeply",
    ),
    "channel-file-deep": (
        ("verify-channel", "--channel", "{dir}/deep.json"),
        "cannot read channel file: JSON nested too deeply",
    ),
    "subsystem-unknown": (
        ("epistemic", "--scenario", "epr-bohm", "--subsystem", "Z"),
        "--subsystem labels ['Z'] not in layout ('A', 'B')",
    ),
    "subsystem-repeated": (
        ("epistemic", "--scenario", "von-neumann", "--n-env", "2", "--subsystem", "S,P,S"),
        "--subsystem labels ['S'] named more than once",
    ),
    "subsystem-repeated-pair": (
        ("epistemic", "--scenario", "epr-bohm", "--subsystem", "A,A"),
        "--subsystem labels ['A'] named more than once",
    ),
    "subsystem-repeated-whole": (
        ("epistemic", "--scenario", "dephasing", "--subsystem", "Q,Q"),
        "--subsystem labels ['Q'] named more than once",
    ),
    "blocks-repeated": (
        ("conditional", "--scenario", "von-neumann", "--n-env", "2", "--blocks", "S+S,P,E1,E2"),
        "bad --blocks: label 'S' named more than once",
    ),
    "blocks-repeated-whole": (
        ("conditional", "--scenario", "dephasing", "--blocks", "Q+Q"),
        "bad --blocks: label 'Q' named more than once",
    ),
    "blocks-empty": (
        ("conditional", "--scenario", "epr-bohm", "--blocks", "A,,B"),
        "empty block in --blocks 'A,,B'",
    ),
    "blocks-short": (
        ("conditional", "--scenario", "epr-bohm", "--blocks", "A"),
        "bad --blocks: blocks do not cover the layout; missing ['B']",
    ),
    "steps": ((*SAMPLE[:-1], "0", "--seed", "1"), "--steps must be >= 1: 0"),
    "n": ((*SAMPLE, "--n", "0", "--seed", "1"), "--n must be >= 1: 0"),
    "seed-env": (SAMPLE, "MODALDYN_SEED='abc' is not an integer"),
    "sample-static": (
        ("sample", "--scenario", "epr-bohm", "--t", "1", "--steps", "4", "--seed", "1"),
        "scenario 'epr-bohm' has no generator dynamics to sample",
    ),
    "t-zero": (
        ("sample", "--scenario", "damping", "--t", "0", "--steps", "4", "--seed", "1"),
        "--t must be finite and > 0: 0.0",
    ),
    "time-negative": (
        ("epistemic", "--scenario", "damping", "--time", "-1"),
        "--time must be finite and >= 0: -1.0",
    ),
}

NOT_NUMBERS = (
    "[re, im] entries must be numbers, not null, booleans, strings, objects or "
    "integers wider than 64 bits"
)
RAGGED = (
    "expected a regular nested list of [re, im] pairs; rows differ in length or depth"
)
# malformed documents, written by _error_inputs: name -> message after the prefix
BAD_CHANNELS = {
    "jumps-entry-int": "expected a JSON object with key 'operator', got int",
    "jumps-int": "'jumps' must be a list, got int",
    "rate-null": "'rate' must be a number, got None",
    "rate-bool": "'rate' must be a number, got True",
    "duration-null": "'duration' must be a number, got None",
    "duration-string": "'duration' must be a number, got '1'",
    "entry-null": NOT_NUMBERS,
    "entry-object": NOT_NUMBERS,
    "entry-numeric-string": NOT_NUMBERS,
    "operators-int": "expected 3 axes of [re, im] pairs, got an array of shape ()",
    "kraus-unequal-shapes": RAGGED,
    "kraus-not-square": "each of 'operators' must be square, got 2 x 3",
    "unitary-not-square": "'matrix' must be square, got 2 x 3",
    "hamiltonian-not-square": "'hamiltonian' must be square, got 2 x 3",
    "jump-not-hamiltonian-size": "jump 0 operator must be 2 x 2 like 'hamiltonian', got 2 x 3",
}
BAD_SCENARIOS = {
    "dynamics-int": "expected a JSON object with key 'kind', got int",
    "jumps-entry-int": "expected a JSON object with key 'operator', got int",
    "rate-null": "'rate' must be a number, got None",
    "entry-null": NOT_NUMBERS,
    "empty-row": "expected [re, im] pairs, got an empty array of shape (1, 0)",
    "kraus-unequal-shapes": RAGGED,
    "dims-float": "layout dims must be positive integers, got 2.5",
    "dims-string": "layout dims must be positive integers, got '2'",
    "dims-bool": "layout dims must be positive integers, got True",
    "dims-labels-unequal": "bad layout: 1 dims but 2 labels",
    "layout-empty": "bad layout: layout needs at least one factor",
    "state-not-layout-size": "'initial_state' must be 4 x 4 for layout dims [4], got 2 x 2",
    "state-not-square": "'initial_state' must be 2 x 2 for layout dims [2], got 2 x 3",
    "kraus-not-layout-size": "each of 'operators' must be 2 x 2 for layout dims [2], got 4 x 4",
    "unitaries-not-layout-size": (
        "each of 'unitaries' must be 2 x 2 for layout dims [2], got 4 x 4"
    ),
    "hamiltonian-not-layout-size": (
        "'hamiltonian' must be 2 x 2 for layout dims [2], got 4 x 4"
    ),
    "jump-not-layout-size": "jump 1 operator must be 2 x 2 for layout dims [2], got 4 x 4",
}
for name, message in BAD_CHANNELS.items():
    CONFIG_ERRORS[f"channel-{name}"] = (
        ("verify-channel", "--channel", f"{{dir}}/channel-{name}.json"),
        f"bad channel document: {message}",
    )
for name, message in BAD_SCENARIOS.items():
    path = f"{{dir}}/scenario-{name}.json"
    CONFIG_ERRORS[f"scenario-{name}"] = (
        ("epistemic", "--scenario", path),
        f"bad scenario document '{path}': {message}",
    )


@pytest.mark.parametrize("argv, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_configuration_errors_exit_2_with_their_message(
    capsys, tmp_path, monkeypatch, argv, message
):
    monkeypatch.setenv("MODALDYN_SEED", "abc")
    _error_inputs(tmp_path)
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"configuration error: {message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize(
    "scenario, t, steps, n, message",
    [
        ("nope", "0", "0", "0", "--t must be finite"),
        ("nope", "1", "0", "0", "unknown scenario"),
        ("epr-bohm", "1", "0", "0", "--steps must be"),
        ("epr-bohm", "1", "1", "0", "--n must be"),
        ("epr-bohm", "1", "1", "1", "MODALDYN_SEED="),
    ],
)
def test_sample_reports_the_first_of_its_errors(
    capsys, monkeypatch, scenario, t, steps, n, message
):
    # every fault at once, then one fewer each time; the missing generator
    # of epr-bohm comes last
    monkeypatch.setenv("MODALDYN_SEED", "abc")
    argv = ("sample", "--scenario", scenario, "--t", t, "--steps", steps, "--n", n)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"configuration error: {message}")


@pytest.mark.parametrize("scenario", ["dephasing", "epr-bohm"])
@pytest.mark.parametrize(
    "weights, fault",
    [
        ("diag:0.3,0.3", "trace 0.6+0i is not 1 within 1.0e-10"),
        ("diag:-0.5,1.5", "minimum eigenvalue -5.000e-01 below -1.0e-10"),
        ("diag:nan,1", "not Hermitian: max |rho - rho^dag| = nan"),
    ],
    ids=["trace", "negative", "nan"],
)
def test_rho0_weights_that_are_not_a_state_exit_2(capsys, scenario, weights, fault):
    code, out, err = run(capsys, "epistemic", "--scenario", scenario, "--rho0", weights)
    assert (code, out) == (2, "")
    assert err == f"configuration error: bad --rho0 {weights!r}: {fault}\n"


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (
            ("epistemic", "--scenario", "von-neumann", "--n-env", "4", "--subsystem", "S,P"),
            ("--alpha2", "0.3", "--coupling", "0.4"),
        ),
        (
            ("conditional", "--scenario", "dephasing", "--time", "0.5", "--blocks", "Q"),
            ("--gamma", "1.0"),
        ),
    ],
    ids=["von-neumann", "dephasing"],
)
def test_a_default_run_equals_one_that_gives_the_defaults(capsys, argv, defaults):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert run(capsys, *argv, *defaults) == (0, out, "")


def test_verify_channel_over_the_memory_budget_exits_2(capsys, tmp_path, monkeypatch):
    # evolving a d=4 generator peaks at nine 16 x 16 complex arrays: 36,864 bytes
    from modaldyn import linalg

    doc = {
        "schema_version": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_to_pairs(np.zeros((4, 4))),
        "jumps": [{"operator": matrix_to_pairs(np.diag([1.0, -1.0, 1.0, -1.0])), "rate": 1.0}],
    }
    path = tmp_path / "lind4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 36863)
    code, out, err = run(capsys, "verify-channel", "--channel", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: evolving a generator of dimension 4 needs 36864 bytes, "
        "over the budget of 36863 bytes\n"
    )


def _lindblad_scenario_file(tmp_path, n_qubits: int, seed: int) -> str:
    """A random n-qubit state under a random three-jump generator, as a file."""
    from modaldyn import Scenario, SystemLayout
    from random_objects import random_density_matrix, random_lindblad
    from modaldyn.serialize import scenario_to_document

    rng = np.random.default_rng(seed)
    layout = SystemLayout.qubits(tuple(f"Q{k}" for k in range(1, n_qubits + 1)))
    sc = Scenario(
        name=f"lindblad-{n_qubits}",
        initial_state=random_density_matrix(layout, rng),
        dynamics=random_lindblad(layout.total_dim, 3, rng),
    )
    path = tmp_path / f"lindblad-{n_qubits}.json"
    path.write_text(json.dumps(scenario_to_document(sc)), encoding="utf-8")
    return str(path)


def test_a_dense_generator_is_sampled_over_a_long_duration(capsys, tmp_path):
    # each step channel spans 2.5e6 time units: the Kraus family extracted
    # from a plainly squared map missed completeness by 2.9e-9 (exit 5)
    path = _lindblad_scenario_file(tmp_path, 2, 0)
    argv = ("--t", "1e7", "--steps", "4", "--n", "10", "--seed", "1")
    code, out, err = run(capsys, "sample", "--scenario", path, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == "ensemble"


def test_a_non_finite_generator_exits_2_where_it_is_read(capsys, tmp_path):
    # an infinite rate, jump-operator or Hamiltonian entry is refused as the
    # generator is built, before any product can turn it into NaN and numpy
    # warnings
    scenario = json.loads(Path(_lindblad_scenario_file(tmp_path, 2, 3)).read_text())
    scenario["dynamics"]["jumps"][0]["rate"] = math.inf
    scenario_path = tmp_path / "infinite-rate.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    channel = json.loads(Path(_lindblad_channel_file(tmp_path, 2, 3, 1.0)).read_text())
    channel["jumps"][0]["rate"] = math.inf
    rate_path = tmp_path / "channel-infinite-rate.json"
    rate_path.write_text(json.dumps(channel), encoding="utf-8")
    channel["jumps"][0]["rate"] = 1.0
    channel["jumps"][1]["operator"][0][0] = [math.inf, 0.0]
    entry_path = tmp_path / "channel-infinite-entry.json"
    entry_path.write_text(json.dumps(channel), encoding="utf-8")
    channel["jumps"][1]["operator"][0][0] = [0.0, 0.0]
    channel["hamiltonian"][1][1] = [math.inf, 0.0]
    hamiltonian_path = tmp_path / "channel-infinite-hamiltonian.json"
    hamiltonian_path.write_text(json.dumps(channel), encoding="utf-8")
    scenario["dynamics"]["jumps"][0]["rate"] = 1.0
    scenario["dynamics"]["hamiltonian"][0][0] = [math.inf, 0.0]
    scenario_h_path = tmp_path / "infinite-hamiltonian.json"
    scenario_h_path.write_text(json.dumps(scenario), encoding="utf-8")
    assert '"rate": Infinity' in rate_path.read_text()
    rate = "rate must be finite and nonnegative: inf"
    hamiltonian = "Hamiltonian entries must be finite: (inf+0j)"
    requests = [
        (("sample", "--scenario", str(scenario_path), "--t", "1", "--steps", "2",
          "--seed", "1"), rate),
        (("epistemic", "--scenario", str(scenario_path), "--time", "1"), rate),
        (("verify-channel", "--channel", str(rate_path)), rate),
        (("verify-channel", "--channel", str(entry_path)),
         "jump operator entries must be finite: (inf+0j)"),
        (("verify-channel", "--channel", str(hamiltonian_path)), hamiltonian),
        (("sample", "--scenario", str(scenario_h_path), "--t", "1", "--steps", "2",
          "--seed", "1"), hamiltonian),
        (("epistemic", "--scenario", str(scenario_h_path), "--time", "1"), hamiltonian),
    ]
    for argv, message in requests:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert err.startswith("configuration error: ") and message in err, (argv, err)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "kind, key, message",
    [
        ("kraus", "operators", "Kraus operator entries must be finite: (inf+0j)"),
        ("unitary", "matrix", "unitary entries must be finite: (inf+0j)"),
        ("superoperator", "matrix", "superoperator entries must be finite: (inf+0j)"),
    ],
)
def test_a_non_finite_channel_file_exits_2_where_it_is_read(
    capsys, tmp_path, kind, key, message
):
    # refused as the file is read: past that point an infinite entry turns
    # into NaN, which min(0.0, nan) would report as a CP map
    matrix = np.eye(4 if kind == "superoperator" else 2)
    matrix[0, 0] = np.inf
    pairs = matrix_to_pairs(matrix)
    doc = {"schema_version": 1, "kind": kind, key: [pairs] if kind == "kraus" else pairs}
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify-channel", "--channel", str(path))
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def _fresh_process(argv, code=None):
    """``(exit code, stdout bytes)`` of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    script = code or "import sys; from modaldyn.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout


def test_a_flowed_state_is_the_same_in_every_process(tmp_path):
    # each process seeds numpy's global generator differently; on this file
    # a flow that estimated norms from it (scipy's expm_multiply on a
    # LinearOperator) gives two documents
    path = _lindblad_scenario_file(tmp_path, 5, 40)
    argv = ["epistemic", "--scenario", path, "--time", "0.5", "--subsystem", "Q1,Q2"]
    script = (
        "import sys, numpy; numpy.random.seed(int(sys.argv[1])); "
        "from modaldyn.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    first, second = (_fresh_process([seed, *argv], script) for seed in ("1", "2"))
    assert first[0] == 0 and first[1]
    assert hashlib.sha256(first[1]).digest() == hashlib.sha256(second[1]).digest()


def test_a_generator_time_query_loads_no_scipy(tmp_path):
    # a flowed state, a sampled chain and a lindblad channel check: the last
    # two exponentiate the generator
    lindblad = _lindblad_channel_file(tmp_path, 2, 46, 0.5)
    script = (
        "import sys\n"
        "from modaldyn import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    for argv in (
        ["epistemic", "--scenario", "damping", "--time", "1"],
        ["sample", "--scenario", "damping", "--t", "1", "--steps", "8", "--n", "3",
         "--seed", "1"],
        ["verify-channel", "--channel", lindblad],
    ):
        code, out = _fresh_process(argv, script)
        assert code == 0
        assert out.decode().splitlines()[-1] == "0 []", argv


def test_a_time_query_over_the_flow_memory_budget_exits_2(capsys, tmp_path, monkeypatch):
    from modaldyn import linalg

    def refused(argv, budget, what, nbytes):
        monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", budget)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"configuration error: {what} needs {nbytes} bytes, "
            f"over the budget of {budget} bytes\n"
        )

    # one 2 x 2 state and one jump: (5 + 2 + 3) 2 x 2 complex arrays
    argv = ("epistemic", "--scenario", "damping", "--time", "1")
    refused(argv, 639, "flowing 1 matrices of dimension 2", 640)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 640)
    assert run(capsys, *argv)[0] == 0
    # a table on 2 qubits, 3 jumps: its 4 parent projectors flow as one
    # stack of (20 + 6 + 3) 4 x 4 arrays, checked before the state flows
    path = _lindblad_scenario_file(tmp_path, 2, 44)
    argv = ("conditional", "--scenario", path, "--time", "1", "--blocks", "Q1,Q2")
    refused(argv, 7423, "flowing 4 matrices of dimension 4", 7424)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 7424)
    assert run(capsys, *argv, "--mode", "permissive")[0] == 0


def test_a_time_query_over_the_flow_work_budget_exits_2_before_it_flows(
    capsys, tmp_path, monkeypatch
):
    from modaldyn import channels

    flowed = []
    flow = channels.flow
    monkeypatch.setattr(channels, "flow", lambda f, mats: flowed.append(mats) or flow(f, mats))
    # the same table: 9 steps of degree 29 take 3.648e7 multiply-adds for
    # its state, which fit this budget, and 3.688e7 for its 4 projectors
    monkeypatch.setattr(channels, "FLOW_WORK_BUDGET", 36_700_000)
    path = _lindblad_scenario_file(tmp_path, 2, 44)
    assert run(capsys, "epistemic", "--scenario", path, "--time", "1")[0] == 0
    assert len(flowed) == 1
    code, out, err = run(
        capsys, "conditional", "--scenario", path, "--time", "1", "--blocks", "Q1,Q2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: flowing 4 matrices of dimension 4 ")
    assert err.endswith(" multiply-adds, over the budget of 3.67e+07\n")
    assert len(flowed) == 1


def test_a_six_qubit_generator_time_query_runs(capsys, tmp_path):
    path = _lindblad_scenario_file(tmp_path, 6, 43)
    code, out, err = run(capsys, "epistemic", "--scenario", path, "--time", "0.5")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["probabilities"]) == 64


def _one_request_per_subcommand(tmp_path) -> dict:
    return {
        "epistemic": ["epistemic", "--scenario", "dephasing", "--time", "0.5"],
        "conditional": ["conditional", "--scenario", "ghz", "--blocks", "A,B+C",
                        "--mode", "permissive"],
        "sample": ["sample", "--scenario", "damping", "--t", "1", "--steps", "8",
                   "--n", "3", "--seed", "1"],
        "verify-channel": ["verify-channel", "--channel",
                           _lindblad_channel_file(tmp_path, 1, 47, 0.5)],
    }


# The table's and the chain's modules, as each subcommand loads them.
_HEAVY_MODULES = {
    "epistemic": set(),
    "conditional": {"modaldyn.conditional"},
    "sample": {"modaldyn.trajectories"},
    "verify-channel": set(),
}


@pytest.mark.parametrize("command", _HEAVY_MODULES)
def test_a_cli_process_loads_only_the_modules_it_runs_and_prints_what_main_prints(
    capsys, tmp_path, command
):
    argv = _one_request_per_subcommand(tmp_path)[command]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "modaldyn.cli", *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    assert loaded & {"modaldyn.conditional", "modaldyn.trajectories"} == _HEAVY_MODULES[command]
    assert proc.stdout == run(capsys, *argv)[1].encode("utf-8")


def test_importing_the_package_loads_no_numpy():
    script = (
        "import sys, modaldyn\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('modaldyn', 'numpy')))\n"
    )
    code, out = _fresh_process([], script)
    assert (code, out.decode()) == (0, "['modaldyn']\n")


def test_every_public_name_resolves_on_first_use():
    import modaldyn

    star = {}
    exec("from modaldyn import *", star)
    assert set(modaldyn.__all__) <= set(star) & set(dir(modaldyn))
    for name in modaldyn.__all__:
        assert star[name] is getattr(modaldyn, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        modaldyn.no_such_name
    with pytest.raises(ImportError):
        exec("from modaldyn import no_such_name", {})


def test_main_leaves_the_garbage_collector_as_it_found_it(tmp_path):
    # a library caller of main() keeps its collector on and nothing frozen
    script = (
        "import gc, json, sys\n"
        "from modaldyn import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, gc.isenabled(), gc.get_freeze_count())\n"
    )
    requests = list(_one_request_per_subcommand(tmp_path).values())
    code, out = _fresh_process([json.dumps(requests)], script)
    assert code == 0
    assert out.decode().splitlines()[-1] == "[0, 0, 0, 0] True 0"


def test_entry_runs_main_with_the_collector_on_and_import_time_objects_frozen():
    script = (
        "import gc, sys\n"
        "from modaldyn import cli\n"
        "cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0) or 0\n"
        "sys.exit(cli.entry())\n"
    )
    assert _fresh_process([], script) == (0, b"True True\n")
