import json
import os
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


BAD_CONFIGS = {
    "invalid JSON": '{"builtin": ',
    "not an object": "[1, 2]",
    "missing param": json.dumps({"builtin": {
        "name": "homodyne_thermal", "params": {"gamma": 1.0, "K": 0.2}}}),
    "unknown param": json.dumps({"builtin": {
        "name": "homodyne_thermal",
        "params": {"gamma": 1.0, "K": 0.2, "eta": 0.8, "zeta": 1.0}}}),
    "missing file": None,
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
