"""Command-line front-end: outputs, exit codes, determinism, config files."""

import json
import math
import warnings

import numpy as np
import pytest

from holomem.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def test_maps_default_prints_unit_recovery(capsys):
    code, out, _ = run(capsys, "maps", "--kappa", "1.0")
    assert code == 0
    assert "full_cycle" in out
    # retrieved light: unit weight on the stored signal, no read-in light
    line = next(l for l in out.splitlines() if l.strip().startswith("a@R'"))
    assert "(1-0j) a@W" in line or "(1+0j) a@W" in line
    assert "a@R" not in line.split("=", 1)[1]


def test_maps_json_output(tmp_path, capsys):
    out_file = tmp_path / "maps.json"
    code, _, _ = run(capsys, "maps", "--kappa", "1.2", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    inputs = payload["maps"]["full_cycle"]["inputs"]
    outputs = payload["maps"]["full_cycle"]["outputs"]
    i, j = outputs.index("a@R"), inputs.index("a@W")
    recovery = payload["maps"]["full_cycle"]["real"][i][j]
    assert recovery == pytest.approx(1.2**2 * (2 - 1.2**2))  # 0.8064
    assert (tmp_path / "maps.json.meta.json").exists()


def test_maps_zero_coupling_single_pass_is_identity(tmp_path, capsys):
    out_file = tmp_path / "maps.json"
    code, _, _ = run(capsys, "maps", "--kappa", "0", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())["maps"]["single_pass"]
    assert np.allclose(payload["real"], np.eye(11))
    assert np.allclose(payload["imag"], 0.0)


def test_fidelity_defaults(capsys):
    code, out, _ = run(capsys, "fidelity")
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["f_av"]) == pytest.approx(60 / 71, abs=1e-12)
    assert row["beats_classical"] == "true"
    assert row["beats_cloning"] == "true"


def test_fidelity_pixels_and_squeezing(capsys):
    code, out, _ = run(capsys, "fidelity", "--pixels", "10")
    row = read_csv(out)[0]
    assert float(row["f_n"]) == pytest.approx((60 / 71) ** 10, rel=1e-12)
    code, out, _ = run(capsys, "fidelity", "--squeeze-r", "10")
    row = read_csv(out)[0]
    assert float(row["f_av"]) >= 1 - 1e-7


def test_fidelity_rejects_wrong_coupling(capsys):
    code, _, err = run(capsys, "fidelity", "--kappa", "1.2")
    assert code == 1
    assert "kappa" in err


def test_sweep_kappa_argmax_and_edges(capsys):
    code, out, err = run(
        capsys, "sweep-kappa", "--kappa-min", "0", "--kappa-max", "1.4", "--kappa-points", "141"
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 141
    assert float(rows[0]["recovery_power"]) == 0.0
    powers = [float(r["recovery_power"]) for r in rows]
    assert rows[int(np.argmax(powers))]["kappa"].startswith("1.0")
    assert "argmax recovery power: kappa = 1" in err
    assert "unimodal = True" in err


def test_sweep_kappa_self_erasure_at_sqrt_two(capsys):
    code, out, _ = run(
        capsys,
        "sweep-kappa",
        "--kappa-min", "0",
        "--kappa-max", repr(float(np.sqrt(2.0))),
        "--kappa-points", "3",
    )
    rows = read_csv(out)
    assert abs(float(rows[-1]["recovery_re"])) < 1e-13
    assert code == 0


def test_sweep_kappa_quotes_fidelity_only_at_unit_coupling(capsys):
    code, out, _ = run(
        capsys, "sweep-kappa", "--kappa-min", "0.9", "--kappa-max", "1.1", "--kappa-points", "3"
    )
    assert code == 0
    f_av = [float(r["f_av"]) for r in read_csv(out)]
    assert math.isnan(f_av[0]) and math.isnan(f_av[2])
    assert f_av[1] == pytest.approx(60 / 71, abs=1e-12)


def test_sweep_kappa_rejects_empty_range(capsys):
    code, _, err = run(capsys, "sweep-kappa", "--kappa-points", "1")
    assert code == 1 and "at least 2" in err


def test_squeeze_sweep_monotone(capsys):
    code, out, _ = run(
        capsys, "squeeze-sweep", "--r-min", "0", "--r-max", "5", "--r-points", "11"
    )
    assert code == 0
    f_av = [float(r["f_av"]) for r in read_csv(out)]
    assert all(a < b for a, b in zip(f_av, f_av[1:]))
    assert f_av[0] == pytest.approx(60 / 71, abs=1e-12)


def test_oracle_verify_small_grid_passes(tmp_path, capsys):
    out_file = tmp_path / "oracle.json"
    code, out, _ = run(
        capsys,
        "oracle-verify",
        "--grating-periods", "20",
        "--z-per-period", "20",
        "--t-steps", "100",
        "--tolerance", "0.05",
        "--out", str(out_file),
    )
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is True
    assert payload["light_commutator"] == pytest.approx(1.0, abs=1e-9)


def test_oracle_verify_warns_outside_many_layer_regime(capsys):
    code, _, err = run(
        capsys,
        "oracle-verify",
        "--grating-periods", "10",
        "--z-per-period", "20",
        "--t-steps", "100",
        "--tolerance", "0.5",
    )
    assert code == 0
    assert "many-interference-layer regime" in err


def test_oracle_verify_zero_coupling_trivially_passes(capsys):
    code, out, _ = run(
        capsys,
        "oracle-verify",
        "--kappa", "0",
        "--grating-periods", "20",
        "--z-per-period", "20",
        "--t-steps", "100",
        "--tolerance", "1e-10",
    )
    assert code == 0
    assert "PASS" in out


def test_oracle_verify_tolerance_breach_exits_2(capsys):
    code, out, _ = run(
        capsys,
        "oracle-verify",
        "--grating-periods", "20",
        "--z-per-period", "20",
        "--t-steps", "100",
        "--tolerance", "1e-6",
    )
    assert code == 2
    assert "FAIL" in out


def test_validation_errors_exit_1(capsys):
    code, _, err = run(capsys, "maps", "--kappa", "-1")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "fidelity", "--pixels", "0")
    assert code == 1
    code, _, _ = run(capsys, "oracle-verify", "--tolerance", "-0.5")
    assert code == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["maps", "--kappa", "nan"], "kappa"),
        (["sweep-kappa", "--kappa-max", "nan"], "kappa-max"),
        (["sweep-kappa", "--kappa-min=-inf"], "kappa-min"),
        (["fidelity", "--squeeze-r", "nan"], "squeeze-r"),
        (["squeeze-sweep", "--r-min", "nan"], "r-min"),
        (["squeeze-sweep", "--r-max", "inf"], "r-max"),
        (["oracle-verify", "--kappa", "nan"], "kappa"),
        (["oracle-verify", "--grating-periods", "inf"], "grating-periods"),
        (["oracle-verify", "--tolerance", "nan"], "tolerance"),
    ],
)
def test_non_finite_parameters_exit_1(tmp_path, capsys, argv, name):
    out_file = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 1
    assert f"{name} must be finite" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [["maps", "--kappa", "1e70"], ["sweep-kappa", "--kappa-max", "1e70"]],
)
def test_overflowing_maps_are_not_written(tmp_path, capsys, argv):
    out_file = tmp_path / "out"
    with np.errstate(all="ignore"):
        code, _, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 1
    assert "kappa" in err and "overflows" in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [["maps", "--kappa", "1e70"], ["sweep-kappa", "--kappa-max", "1e70"]],
)
def test_overflowing_maps_fail_cleanly_with_warnings_as_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == 1
    assert "kappa" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "--kappa", "1e160"],
        ["fidelity", "--kappa", "1e160"],
        ["sweep-kappa", "--kappa-max", "1e40"],
        ["oracle-verify", "--kappa", "1e200"],
    ],
)
def test_kappa_past_float_range_exits_1(tmp_path, capsys, argv):
    # kappa**2 (maps, fidelity, oracle-verify) or the recovery power
    # |gain|**2 (sweep-kappa) leaves the float range: Python float
    # arithmetic would raise OverflowError where numpy gives inf
    out_file = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 1
    assert "kappa" in err and "overflows" in err
    assert "Traceback" not in err
    assert not out_file.exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("kappa", ["1e150", "1e154", "1.3e154", "1e155"])
def test_oracle_verify_near_overflow_writes_strict_json_or_exits_1(tmp_path, capsys, kappa):
    out_file = tmp_path / "oracle.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys,
            "oracle-verify",
            "--kappa", kappa,
            "--grating-periods", "20",
            "--z-per-period", "20",
            "--tolerance", "0.05",
            "--out", str(out_file),
        )
    assert "Traceback" not in err
    if code == 0:
        payload = json.loads(out_file.read_text(), parse_constant=_reject_constant)
        assert payload["passed"] is True
    else:
        assert code == 1
        assert "kappa" in err
        assert not out_file.exists()


def test_oracle_verify_ignores_t_steps(tmp_path, capsys):
    payloads = []
    for extra in ([], ["--t-steps", "7"]):
        out_file = tmp_path / f"oracle{len(extra)}.json"
        code, _, _ = run(
            capsys,
            "oracle-verify",
            "--grating-periods", "20",
            "--z-per-period", "20",
            "--tolerance", "0.05",
            "--out", str(out_file),
            *extra,
        )
        assert code == 0
        payloads.append(out_file.read_bytes())
    assert payloads[0] == payloads[1]
    assert "t_points" not in json.loads(payloads[0])["grid"]


def test_identical_config_gives_identical_bytes(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out_file in (out_a, out_b):
        code, _, _ = run(
            capsys, "sweep-kappa", "--kappa-points", "11", "--out", str(out_file)
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pixels": 10}))
    code, out, _ = run(capsys, "fidelity", "--config", str(config))
    assert code == 0
    assert read_csv(out)[0]["pixels"] == "10"
    # explicit flag wins over the file
    code, out, _ = run(capsys, "fidelity", "--config", str(config), "--pixels", "2")
    assert read_csv(out)[0]["pixels"] == "2"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pixel": 10}))
    code, _, err = run(capsys, "fidelity", "--config", str(config))
    assert code == 1 and "unknown config" in err
