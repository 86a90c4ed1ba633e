import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lintraj.cli import main


@pytest.fixture
def homodyne_config(tmp_path):
    cfg = {"builtin": {"name": "homodyne_thermal",
                       "params": {"gamma": 1.0, "K": 0.2, "eta": 0.8}}}
    path = tmp_path / "homodyne.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def optomech_config(tmp_path):
    cfg = {"builtin": {"name": "optomech_squeezing",
                       "params": {"mu": 1.0, "eta": 1.0, "gamma": 0.1,
                                  "K_th": 0.0, "chi": 0.5}}}
    path = tmp_path / "optomech.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_ok(homodyne_config, capsys):
    assert main(["validate", "--config", homodyne_config]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "residual" in out


def test_validate_bad_efficiency(tmp_path, capsys):
    cfg = {"n_modes": 1, "n_channels": 1, "G": [0, 0, 0, 0],
           "C_re": [1.0, 0.0], "C_im": [0.0, 1.0], "M_re": [1.5, 0.0],
           "M_im": [0.0, 0.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "MeasurementSettingInvalid"


def test_validate_random_two_mode(tmp_path, capsys, rng):
    from conftest import random_spec
    from lintraj.system import spec_to_config

    spec = random_spec(2, 2, rng)
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(spec_to_config(spec)))
    assert main(["validate", "--config", str(path)]) == 0
    assert "residual" in capsys.readouterr().out


def test_simulate_writes_outputs_and_is_deterministic(homodyne_config, tmp_path):
    args = ["simulate", "--config", homodyne_config, "--seed", "7",
            "--dt", "1e-3", "--t-final", "0.3", "--fock-dim", "16",
            "--initial", "coherent:0.4", "--trajectories", "2"]
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for name in ("records.csv", "integrals.json", "moments.csv",
                 "manifest.json", os.path.join("states", "traj_0000.json")):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, name
    moments = Path(out1, "moments.csv").read_text().splitlines()
    assert moments[0].startswith("# manifest")
    assert len(moments) == 4   # header comment + column row + 2 trajectories


def test_simulate_compare_oracle_flag(homodyne_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", homodyne_config, "--seed", "3",
                 "--dt", "1e-3", "--t-final", "0.2", "--fock-dim", "16",
                 "--initial", "vacuum", "--trajectories", "1",
                 "--compare-oracle", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "oracle trace distance" in printed
    header = Path(out, "moments.csv").read_text().splitlines()[1]
    assert "oracle_tdist" in header


def test_povm_command_closed_form_residual(homodyne_config, tmp_path, capsys):
    out = str(tmp_path / "povm.json")
    assert main(["povm", "--config", homodyne_config, "--seed", "5",
                 "--dt", "1e-3", "--t-final", "0.6", "--retrodict",
                 "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "closed-form residual" in printed
    payload = json.loads(Path(out).read_text())
    assert payload["closed_form_residual"] < 1e-10
    assert "posterior" in payload


def test_povm_command_retrodict_with_prior(homodyne_config, tmp_path):
    out = str(tmp_path / "povm.json")
    assert main(["povm", "--config", homodyne_config, "--seed", "5",
                 "--dt", "1e-3", "--t-final", "0.6",
                 "--retrodict", "0.9-0.2j:1e-9", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    # concentrated prior dominates the data
    assert abs(payload["posterior"]["mean_re"][0] - 0.9) < 1e-3
    assert abs(payload["posterior"]["mean_im"][0] + 0.2) < 1e-3


def test_thread_fanout_is_deterministic(homodyne_config, tmp_path, monkeypatch):
    args = ["simulate", "--config", homodyne_config, "--seed", "7",
            "--dt", "1e-3", "--t-final", "0.2", "--fock-dim", "12",
            "--initial", "vacuum", "--trajectories", "4"]
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "threaded")
    monkeypatch.setenv("LINTRAJ_THREADS", "1")
    assert main(args + ["--out", out1]) == 0
    monkeypatch.setenv("LINTRAJ_THREADS", "3")
    assert main(args + ["--out", out2]) == 0
    a = Path(out1, "moments.csv").read_text()
    b = Path(out2, "moments.csv").read_text()
    assert a == b


def test_povm_command_optomech_sigmas(optomech_config, tmp_path, capsys):
    out = str(tmp_path / "povm.json")
    assert main(["povm", "--config", optomech_config, "--seed", "5",
                 "--dt", "1e-2", "--t-final", "30", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["sigma_p2"] < payload["sigma_x2"]


def test_povm_command_flat_effect(homodyne_config, tmp_path, capsys):
    # eta = 0 builtin: monitored mask empty, record is all zeros, effect flat
    cfg = {"builtin": {"name": "homodyne_thermal",
                       "params": {"gamma": 1.0, "K": 0.2, "eta": 0.0}}}
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "povm.json")
    assert main(["povm", "--config", str(path), "--dt", "1e-3",
                 "--t-final", "0.4", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["flat"] is True


def test_adjoint_command_crosscheck(homodyne_config, tmp_path, capsys):
    out = str(tmp_path / "adj")
    assert main(["adjoint", "--config", homodyne_config, "--seed", "2",
                 "--dt", "1e-3", "--t-final", "0.8", "--out", out]) == 0
    payload = json.loads(Path(out, "crosscheck.json").read_text())
    assert payload["report"]["mean_residual"] < 1e-8
    lines = Path(out, "moments.csv").read_text().splitlines()
    assert "inf" in lines[2]    # unmonitored quadrature reported infinite


def test_me_command(homodyne_config, tmp_path):
    out = str(tmp_path / "me.csv")
    assert main(["me", "--config", homodyne_config, "--dt", "1e-3",
                 "--t-final", "0.5", "--fock-dim", "14",
                 "--initial", "coherent:0.5", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[1].split(",")[0] == "t"
    assert len(lines) > 100


def test_compare_command(homodyne_config, tmp_path, capsys):
    out = str(tmp_path / "cmp.json")
    assert main(["compare", "--config", homodyne_config, "--seed", "4",
                 "--dt", "1e-3", "--t-final", "0.3", "--fock-dim", "18",
                 "--initial", "coherent:0.4", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["trace_distance"] < 1e-3
    assert payload["relative_trace_error"] < 5e-2


def test_compare_builds_no_effect(homodyne_config, tmp_path, monkeypatch):
    # compare reads only the record's integrals: a failing effect route
    # neither fails it nor changes what it writes
    import lintraj.cli

    argv = ["compare", "--config", homodyne_config, "--seed", "4",
            "--dt", "1e-3", "--t-final", "0.1", "--fock-dim", "10", "--out"]
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert main(argv + [str(want)]) == 0

    def broken(*args, **kwargs):
        raise AssertionError("compare built a POVM effect")

    monkeypatch.setattr(lintraj.cli, "effect_from_blocks", broken)
    assert main(argv + [str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_initial_state_from_file(homodyne_config, tmp_path):
    run = str(tmp_path / "seed_run")
    assert main(["simulate", "--config", homodyne_config, "--seed", "2",
                 "--dt", "1e-3", "--t-final", "0.2", "--fock-dim", "12",
                 "--initial", "coherent:0.5", "--trajectories", "1",
                 "--out", run]) == 0
    state_file = os.path.join(run, "states", "traj_0000.json")
    out = str(tmp_path / "cmp.json")
    assert main(["compare", "--config", homodyne_config, "--seed", "9",
                 "--dt", "1e-3", "--t-final", "0.2", "--fock-dim", "12",
                 "--initial", f"file:{state_file}", "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["trace_distance"] < 1e-2


def test_record_roundtrip_through_povm(homodyne_config, tmp_path):
    run = str(tmp_path / "run")
    assert main(["simulate", "--config", homodyne_config, "--seed", "11",
                 "--dt", "1e-3", "--t-final", "0.4", "--fock-dim", "14",
                 "--initial", "vacuum", "--trajectories", "1",
                 "--out", run]) == 0
    out = str(tmp_path / "povm.json")
    assert main(["povm", "--config", homodyne_config,
                 "--record", os.path.join(run, "records.csv"),
                 "--out", out]) == 0
    payload = json.loads(Path(out).read_text())
    assert payload["closed_form_residual"] < 1e-10


def _error_of(capsys) -> str:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]


def test_simulate_matches_dense_per_record_route(homodyne_config, tmp_path):
    # every trajectory of the shared engine against the dense-expm oracle
    # applied to the same record's integrals
    import numpy as np

    from conftest import dense_evolution
    from lintraj.lie_rep import rep_of_generator
    from lintraj.parameterization import compute_generator
    from lintraj.state_engine import (
        EvolutionFactors,
        FockDensityMatrix,
        coherent_state,
        normalize_and_trace,
        trace_distance,
    )
    from lintraj.system import builtin_homodyne_thermal
    from lintraj.trajectory import BlockTable, TrajectoryIntegrals

    dim, dt, steps = 14, 1e-3, 300
    out = tmp_path / "run"
    assert main(["simulate", "--config", homodyne_config, "--seed", "5",
                 "--dt", str(dt), "--t-final", "0.3", "--fock-dim", str(dim),
                 "--initial", "coherent:0.4", "--trajectories", "3",
                 "--out", str(out)]) == 0
    spec = builtin_homodyne_thermal(1.0, 0.2, 0.8)
    blocks = BlockTable(rep_of_generator(compute_generator(spec)), dt,
                        steps).final_blocks()
    rho0 = coherent_state(1, dim, 0.4)
    payload = json.loads((out / "integrals.json").read_text())
    for i, entry in enumerate(payload["trajectories"]):
        ints = TrajectoryIntegrals(
            n_modes=1, t=entry["t"],
            l_prime=np.array(entry["l_prime_re"]) + 1j * np.array(entry["l_prime_im"]),
            r_prime=np.array(entry["r_prime_re"]) + 1j * np.array(entry["r_prime_im"]),
            h=complex(entry["h_re"], entry["h_im"]))
        factors = EvolutionFactors.from_blocks(blocks, ints)
        want, _ = normalize_and_trace(FockDensityMatrix(
            n_modes=1, dim_per_mode=dim, rho=dense_evolution(rho0, factors)))
        state = json.loads((out / "states" / f"traj_{i:04d}.json").read_text())
        got = (np.array(state["rho_re"])
               + 1j * np.array(state["rho_im"])).reshape(dim, dim)
        assert trace_distance(got, want.rho) < 1e-12


def test_simulate_rejects_initial_file_of_wrong_size(homodyne_config, tmp_path,
                                                     capsys):
    state = tmp_path / "rho.json"
    state.write_text(json.dumps({"rho_re": [1.0, 0, 0, 0, 0, 0, 0, 0, 0],
                                 "rho_im": [0.0] * 9}))
    assert main(["simulate", "--config", homodyne_config, "--fock-dim", "12",
                 "--t-final", "0.1", "--initial", f"file:{state}",
                 "--out", str(tmp_path / "run")]) == 2
    assert _error_of(capsys) == "DimensionMismatch"


BAD_INITIAL = {
    "coherent:abc": "ConfigError",
    "fock:x": "ConfigError",
    "fock:25": "DimensionMismatch",             # at --fock-dim 20
    "coherent:0.1,0.2": "DimensionMismatch",    # two amplitudes, one mode
    "fock:1,1": "DimensionMismatch",
    "file:missing.json": "ConfigError",
}


@pytest.mark.parametrize("initial", sorted(BAD_INITIAL))
def test_simulate_rejects_bad_initial_state(homodyne_config, tmp_path, capsys,
                                            initial):
    assert main(["simulate", "--config", homodyne_config, "--fock-dim", "20",
                 "--t-final", "0.01", "--initial",
                 initial.replace("missing.json", str(tmp_path / "missing.json")),
                 "--out", str(tmp_path / "run")]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["error"] == BAD_INITIAL[initial]
    assert not (tmp_path / "run").exists()


_EXPLICIT = ('{{"n_modes": {n_modes}, "n_channels": 1, "G": {G}, '
             '"C_re": {C_re}, "C_im": [0.0, 0.707], "M_re": {M_re}, '
             '"M_im": [0.0, 0.0]}}')


def _explicit(**fields) -> str:
    """An explicit-matrix config as JSON text, with some fields replaced by
    literal JSON (which may hold NaN or an overflowing 1e400)."""
    base = {"n_modes": "1", "G": "[0, 0, 0, 0]", "C_re": "[0.707, 0.0]",
            "M_re": "[0.894, 0.0]"}
    return _EXPLICIT.format(**{**base, **fields})


BAD_CONFIGS = {
    "invalid JSON": '{"builtin": ',
    "not an object": "[1, 2]",
    "missing param": json.dumps({"builtin": {
        "name": "homodyne_thermal", "params": {"gamma": 1.0, "K": 0.2}}}),
    "unknown param": json.dumps({"builtin": {
        "name": "homodyne_thermal",
        "params": {"gamma": 1.0, "K": 0.2, "eta": 0.8, "zeta": 1.0}}}),
    "missing file": None,
    "non-numeric param": json.dumps({"builtin": {
        "name": "homodyne_thermal",
        "params": {"gamma": "abc", "K": 0.2, "eta": 0.8}}}),
    "builtin not an object": json.dumps({"builtin": "homodyne_thermal"}),
    "NaN in G": _explicit(G="[NaN, 0, 0, 0]"),
    "1e400 in G": _explicit(G="[0, 1e400, 1e400, 0]"),
    "NaN in C_re": _explicit(C_re="[NaN, 0.0]"),
    "1e400 in C_re": _explicit(C_re="[1e400, 0.0]"),
    "NaN in M_re": _explicit(M_re="[NaN, 0.0]"),
    "1e400 in M_re": _explicit(M_re="[1e400, 0.0]"),
    "fractional n_modes": _explicit(n_modes="1.5"),
    "string n_modes": _explicit(n_modes='"1"'),
    "boolean n_modes": _explicit(n_modes="true"),
    "list n_modes": _explicit(n_modes="[1]"),
    "object C_re": _explicit(C_re='{"a": 1}'),
}


@pytest.mark.parametrize("command", ["validate", "povm"])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_a_config_error(tmp_path, capsys, command, case):
    path = tmp_path / "cfg.json"
    if BAD_CONFIGS[case] is not None:
        path.write_text(BAD_CONFIGS[case])
    argv = [command, "--config", str(path)]
    if command == "povm":
        argv += ["--t-final", "0.01", "--out", str(tmp_path / "povm.json")]
    assert main(argv) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["error"] == "ConfigError"
    assert not (tmp_path / "povm.json").exists()


def test_simulate_rejects_zero_dt(homodyne_config, tmp_path, capsys):
    assert main(["simulate", "--config", homodyne_config, "--dt", "0",
                 "--out", str(tmp_path / "run")]) == 2
    assert _error_of(capsys) == "ConfigError"


def test_simulate_rejects_zero_trajectories(homodyne_config, tmp_path, capsys):
    assert main(["simulate", "--config", homodyne_config, "--t-final", "0.1",
                 "--fock-dim", "8", "--trajectories", "0",
                 "--out", str(tmp_path / "run")]) == 2
    assert _error_of(capsys) == "ConfigError"


def test_povm_retrodict_prior_per_mode(tmp_path, capsys, rng):
    from conftest import random_spec
    from lintraj.system import spec_to_config

    path = tmp_path / "n2.json"
    path.write_text(json.dumps(spec_to_config(random_spec(2, 2, rng))))
    out = str(tmp_path / "povm.json")
    argv = ["povm", "--config", str(path), "--seed", "3", "--dt", "1e-3",
            "--t-final", "0.2", "--out", out, "--retrodict"]
    assert main(argv + ["0.3+0.1j,-0.2j:1e-9"]) == 0
    post = json.loads(Path(out).read_text())["posterior"]
    # a concentrated prior dominates the data, mode by mode
    assert abs(post["mean_re"][0] - 0.3) < 1e-3
    assert abs(post["mean_im"][0] - 0.1) < 1e-3
    assert abs(post["mean_re"][1]) < 1e-3
    assert abs(post["mean_im"][1] + 0.2) < 1e-3
    capsys.readouterr()
    assert main(argv + ["0.3:1e-9"]) == 2
    assert _error_of(capsys) == "DimensionMismatch"


@pytest.mark.parametrize("variance", ["0", "-1", "nan", "inf"])
def test_povm_retrodict_rejects_bad_prior_variance(homodyne_config, tmp_path,
                                                   capsys, variance):
    out = tmp_path / "povm.json"
    assert main(["povm", "--config", homodyne_config, "--t-final", "0.05",
                 "--out", str(out), "--retrodict", f"0.1:{variance}"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


def test_simulate_overflow_is_one_json_line_and_clean_stderr(tmp_path):
    # optomech state runs past t ~ 2 overflow the scalar exp(delta' + sigma):
    # the failure is named on stdout, with no numpy warning on stderr
    cfg = tmp_path / "optomech.json"
    cfg.write_text(json.dumps({"builtin": {
        "name": "optomech_squeezing",
        "params": {"mu": 1.0, "eta": 1.0, "gamma": 0.4, "K_th": 0.2,
                   "chi": 0.3}}}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1]
                                           / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "lintraj.cli", "simulate", "--config", str(cfg),
         "--t-final", "3", "--fock-dim", "8", "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "MatrixExpFailure"
    assert proc.stderr == ""


@pytest.mark.parametrize("n_cols", [1, 2])
def test_povm_rejects_record_with_wrong_column_count(homodyne_config, tmp_path,
                                                     capsys, n_cols):
    # homodyne records have 2L = 4 current columns
    record = tmp_path / "record.csv"
    rows = ["t," + ",".join(f"y_{k + 1}" for k in range(n_cols))]
    rows += [f"{j * 1e-3}," + ",".join(["0.5"] * n_cols) for j in range(20)]
    record.write_text("\n".join(rows) + "\n")
    assert main(["povm", "--config", homodyne_config, "--record", str(record),
                 "--out", str(tmp_path / "povm.json")]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["error"] == "DimensionMismatch"
    assert not (tmp_path / "povm.json").exists()


MALFORMED_RECORDS = {
    "header": "x,y_1,y_2,y_3,y_4\n0,0,0,0,0\n0.001,0,0,0,0\n",
    "ragged": "t,y_1,y_2,y_3,y_4\n0,0,0,0,0\n0.001,0,0,0\n",
    "non-numeric": "t,y_1,y_2,y_3,y_4\n0,0,0,0,0\n0.001,0,abc,0,0\n",
    "no rows": "# comment\nt,y_1,y_2,y_3,y_4\n",
    "one row": "t,y_1,y_2,y_3,y_4\n0,1,0,0,0\n",
    "non-finite": "t,y_1,y_2,y_3,y_4\n0,0,0,0,0\n0.001,nan,0,0,0\n",
    "non-uniform t": ("t,y_1,y_2,y_3,y_4\n0,0,0,0,0\n0.001,0,0,0,0\n"
                      "0.005,0,0,0,0\n"),
}


@pytest.mark.parametrize("command", ["povm", "adjoint"])
@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_csv_is_a_config_error(homodyne_config, tmp_path,
                                                capsys, command, case):
    record = tmp_path / "record.csv"
    record.write_text(MALFORMED_RECORDS[case])
    assert main([command, "--config", homodyne_config, "--record", str(record),
                 "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


def test_adjoint_command_sweeps_once(homodyne_config, tmp_path, monkeypatch):
    from lintraj import adjoint_kalman

    calls = []
    flow = adjoint_kalman._riccati_flow_matrix
    monkeypatch.setattr(adjoint_kalman, "_riccati_flow_matrix",
                        lambda mats: calls.append(1) or flow(mats))
    assert main(["adjoint", "--config", homodyne_config, "--seed", "2",
                 "--dt", "1e-3", "--t-final", "0.2",
                 "--out", str(tmp_path / "adj")]) == 0
    assert len(calls) == 1


def _moments_rows(out) -> list[dict]:
    lines = Path(out, "moments.csv").read_text().splitlines()[1:]
    cols = lines[0].split(",")
    return [dict(zip(cols, map(float, line.split(",")))) for line in lines[1:]]


def _state_of(out, i: int):
    import numpy as np

    state = json.loads(Path(out, "states", f"traj_{i:04d}.json").read_text())
    return np.array(state["rho_re"]) + 1j * np.array(state["rho_im"])


def test_simulate_batch_couples_no_records(homodyne_config, tmp_path):
    # SeedSequence.spawn's child 0 does not depend on the count, so the first
    # trajectory of a 6-record ensemble is the record of a 1-record run
    import numpy as np

    args = ["simulate", "--config", homodyne_config, "--seed", "11",
            "--dt", "1e-3", "--t-final", "0.3", "--fock-dim", "14",
            "--initial", "coherent:0.4+0.2j"]
    one, six = tmp_path / "one", tmp_path / "six"
    assert main(args + ["--trajectories", "1", "--out", str(one)]) == 0
    assert main(args + ["--trajectories", "6", "--out", str(six)]) == 0
    alone, batched = _moments_rows(one)[0], _moments_rows(six)[0]
    assert alone.keys() == batched.keys()
    for col, value in alone.items():
        assert abs(batched[col] - value) <= 1e-14 * abs(value), col
    want = _state_of(one, 0)
    assert np.abs(_state_of(six, 0) - want).max() <= 1e-14 * np.abs(want).max()


def test_simulate_names_the_overflowing_record(homodyne_config, tmp_path,
                                               capsys, monkeypatch):
    # the third record's scalar exp(sigma) overflows: one JSON line names it,
    # and no RuntimeWarning escapes (pytest turns warnings into errors)
    from conftest import overflowing_integrals

    from lintraj import cli

    calls = []
    accumulate = cli.accumulate_integrals

    def third_overflows(table, couplings, record):
        ints = accumulate(table, couplings, record)
        calls.append(1)
        if len(calls) == 3:
            return overflowing_integrals(table.final_blocks(), ints)
        return ints

    monkeypatch.setattr(cli, "accumulate_integrals", third_overflows)
    assert main(["simulate", "--config", homodyne_config, "--seed", "4",
                 "--t-final", "0.2", "--fock-dim", "10", "--trajectories", "5",
                 "--out", str(tmp_path / "run")]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "MatrixExpFailure"
    assert error["message"].startswith("record 2: ")
