import json
from pathlib import Path

import numpy as np
import pytest

from neumann.cli import main


def write_config(tmp_path: Path, payload: dict, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def base_config():
    return {
        "version": 1,
        "spectrum": {"b": [0.0, 1.0], "m": [2, 2]},
        "initial": {"x": [2 ** -0.5, 0.0, 2 ** -0.5, 0.0],
                    "y": [0.0, 1.0, 0.0, -1.0]},
        "integration": {"t_end": 2.0, "dt": 1e-3, "save_every": 100},
        "seed": 0,
    }


def read_rows(path: Path):
    header, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


def test_simulate_writes_trajectory_and_drift(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectory.csv")
    assert header[:5] == ["t", "x_0", "x_1", "x_2", "x_3"]
    for name in ("H", "C1", "C2", "F_0", "F_1", "L_01", "L_23", "W_0", "W_1"):
        assert name in header
    hcol = rows[:, header.index("H")]
    assert np.allclose(hcol, 1.25, atol=1e-10)
    assert (tmp_path / "drift.csv").exists()


def test_simulate_geodesic_all_zero_drift(tmp_path):
    payload = base_config()
    payload["spectrum"] = {"b": [1.0], "m": [4]}
    x = np.array([1.0, 0.0, 0.0, 0.0])
    payload["initial"] = {"x": list(x), "y": [0.0, 1.0, 0.0, 0.0]}
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "drift.csv")
    assert np.max(rows[:, 1]) < 1e-10


def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1,
                                  "spectrum": {"b": [1.0, 0.0], "m": [2, 2]}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "spectrum" in err

    cfg2 = write_config(tmp_path, {"version": 1}, name="c2.json")
    assert main(["simulate", "--config", cfg2, "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_off_manifold_initial_exit_2(tmp_path):
    payload = base_config()
    payload["initial"]["x"] = [1.0, 0.2, 0.0, 0.0]
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_singular_stratum_exit_4(tmp_path):
    payload = base_config()
    payload["initial"] = {"xi": [0.0, 1.0], "eta": [0.0, 0.0], "w": [0.25, 0.25]}
    cfg = write_config(tmp_path, payload)
    assert main(["separate", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "drift.csv").read_bytes() == (out2 / "drift.csv").read_bytes()


def test_reduce_full_and_reduced_inputs(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "reduced.csv")
    assert header[0] == "t" and "V_0" in header and "W_1" in header
    # Casimir values constant along the trajectory
    w0 = rows[:, header.index("W_0")]
    assert np.max(np.abs(w0 - w0[0])) < 1e-8

    payload = base_config()
    payload["initial"] = {"xi": [2 ** -0.5, 2 ** -0.5], "eta": [0.0, 0.0],
                          "w": [0.25, 0.25]}
    cfg2 = write_config(tmp_path, payload, name="red.json")
    assert main(["reduce", "--config", cfg2, "--out", str(tmp_path)]) == 0


def test_separate_then_actions_pipeline_bit_stable(tmp_path):
    payload = base_config()
    payload["initial"] = {"xi": [2 ** -0.5, 2 ** -0.5], "eta": [0.0, 0.0],
                          "w": [0.25, 0.25]}
    cfg = write_config(tmp_path, payload)
    assert main(["separate", "--config", cfg, "--out", str(tmp_path),
                 "--format", "json"]) == 0
    doc = json.loads((tmp_path / "separated.json").read_text())
    rho = doc["data"]["rho"]
    coeffs_sep = doc["data"]["curve"]["coefficients"]

    # feed the recovered invariants into the actions command
    payload2 = dict(payload)
    payload2["experiment"] = {"w": [0.25, 0.25],
                              "h": rho[0] + 0.5, "extra_rho": rho[1:]}
    cfg2 = write_config(tmp_path, payload2, name="actions.json")
    assert main(["actions", "--config", cfg2, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "actions.csv")
    # trivial actions match sqrt(w) exactly through the residue identity
    assert rows[0, header.index("j_0")] == pytest.approx(0.5, abs=1e-15)
    assert rows[0, header.index("j_1")] == pytest.approx(0.5, abs=1e-15)

    # curve coefficients identical across the two stages
    from neumann.model import SpectrumSpec
    from neumann.separation import curve_from_energy
    spec = SpectrumSpec.from_dict(payload["spectrum"])
    curve2 = curve_from_energy(spec, (0.25, 0.25), rho[0] + 0.5, rho[1:])
    assert list(curve2.r) == coeffs_sep


def test_equilibria_table(tmp_path):
    payload = base_config()
    payload["experiment"] = {"j_grid": [[0.5, 0.5], [0.3, 0.8]]}
    cfg = write_config(tmp_path, payload)
    assert main(["equilibria", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "equilibria.csv")
    assert rows.shape[0] == 2
    assert rows[0, header.index("h")] == pytest.approx(1.4408, abs=1e-3)
    assert rows[0, header.index("energy")] == pytest.approx(0.7204, abs=1e-3)


def test_locus_command_and_workers(tmp_path):
    payload = base_config()
    payload["spectrum"] = {"b": [0.0, 1.0, 2.0], "m": [2, 2, 2]}
    payload["experiment"] = {"w": [0.04, 0.09, 0.0625],
                             "s_values": [0.3, 0.6, 1.4, 1.7]}
    cfg = write_config(tmp_path, payload)
    assert main(["locus", "--config", cfg, "--out", str(tmp_path / "w1")]) == 0
    assert main(["locus", "--config", cfg, "--out", str(tmp_path / "w2"),
                 "--workers", "2"]) == 0
    assert (tmp_path / "w1" / "locus.csv").read_bytes() == \
        (tmp_path / "w2" / "locus.csv").read_bytes()
    text = (tmp_path / "w1" / "locus.csv").read_text()
    assert "locus-exponent: w^1" in text
    header, rows = read_rows(tmp_path / "w1" / "locus.csv")
    assert np.all(rows[:, header.index("double_root_ok")] == 1.0)


def test_convexity_command_informative_below_threshold(tmp_path):
    payload = base_config()
    payload["experiment"] = {"h": -1.0}
    cfg = write_config(tmp_path, payload)
    assert main(["convexity", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "convexity.csv").read_text()
    assert "threshold not met" in text


def test_convexity_command_above_threshold(tmp_path):
    payload = base_config()
    payload["experiment"] = {"h": 1.0, "n_samples": 8, "n_pairs": 20}
    cfg = write_config(tmp_path, payload)
    assert main(["convexity", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "convexity.csv").read_text()
    assert "convex_verdict: True" in text


def test_drift_violation_exit_3(tmp_path):
    payload = base_config()
    payload["integration"] = {"t_end": 5.0, "dt": 0.25, "save_every": 1,
                              "rtol": 1e-16}
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_log_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("NEUMANN_LOG", "DEBUG")
    cfg = write_config(tmp_path, base_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_float_format_roundtrip(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "trajectory.csv")
    # 17 significant digits round-trip doubles exactly: re-emitting is stable
    from neumann.cli import fmt
    for v in rows[3]:
        assert float(fmt(v)) == v


REDUCED_STATE = {"xi": [0.6, 0.48, 0.64], "eta": [0.0, 0.8, -0.6], "w": [0.04, 0.09, 0.0625]}

# (command, config section, field, value, text in the message); each exits 2
INVALID_FIELDS = [
    ("simulate", "integration", "save_every", 0, "save_every"),
    ("simulate", "integration", "save_every", 2.5, "save_every"),
    ("simulate", "integration", "t_end", -1.0, "t_end"),
    ("simulate", "integration", "dt", "abc", "dt"),
    ("simulate", "integration", "rtol", float("nan"), "rtol"),
    ("reduce", "integration", "t_end", -1.0, "t_end"),
    ("reduce", "integration", "dt", float("inf"), "dt"),
    ("reduce", "integration", "save_every", 0, "save_every"),
    ("convexity", "experiment", "n_samples", 0, "n_samples"),
    ("convexity", "experiment", "n_pairs", 0, "n_pairs"),
    ("separate", "spectrum", "b", [0.0, float("nan"), 2.0], "finite"),
    ("actions", "initial", "w", [-0.04, 0.09, 0.0625], "w"),
]


@pytest.mark.parametrize("command, section, key, value, text", INVALID_FIELDS,
                         ids=[f"{c[0]}-{c[2]}={c[3]}" for c in INVALID_FIELDS])
def test_invalid_numeric_field_exits_2_before_output(tmp_path, capsys, command, section,
                                                      key, value, text):
    payload = base_config()
    if command != "simulate":
        payload["spectrum"] = {"b": [0.0, 1.0, 2.0], "m": [2, 2, 2]}
        payload["initial"] = dict(REDUCED_STATE)
    payload["experiment"] = {"h": 1.0, "n_samples": 8, "n_pairs": 20}
    payload[section][key] = value
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err and "Traceback" not in err
    assert not out.exists()
