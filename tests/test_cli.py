"""Command-line front-end: outputs, exit codes, determinism, config files."""

import errno
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holomem
from holomem import protocol
from holomem.cli import DEFAULTS, _json_text, _parse_args, build_parser, main
from holomem.fidelity import protocol_noise


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


@pytest.mark.parametrize("route", ["flag", "config"])
def test_pixels_past_float_range_exits_1(tmp_path, capsys, route):
    # The log-determinant takes the pixel count as a float.
    pixels = 10**330
    out_file = tmp_path / "fidelity.csv"
    if route == "flag":
        args = ["--pixels", str(pixels)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pixels": pixels}))
        args = ["--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fidelity", *args, "--out", str(out_file))
        assert run(capsys, "squeeze-sweep", *args)[0] == 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pixels" in err
    assert not out_file.exists()


def test_pixels_far_past_the_overflow_of_f_n(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, "fidelity", "--pixels", str(10**30))
    assert code == 0
    row = read_csv(out)[0]
    assert float(row["f_n"]) == 0.0
    assert float(row["f_av"]) == pytest.approx(60 / 71, abs=1e-12)


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


def test_sweep_kappa_and_fidelity_share_the_unit_gain_rule(capsys):
    # |gain - 1| is 4e-10 at kappa = 1.00001: inside a 1e-9 tolerance, but
    # fidelity, through extract_noise, rejects the coupling, so the sweep
    # must not quote an f_av there either.
    # At 0.9999999 and 1.0000001 |gain - 1| is within 1e-12 itself, but the
    # read-in light's coefficient, about 1e-7, is not.
    for kappa in ("1.00001", "0.9999999", "1.0000001"):
        code, out, _ = run(
            capsys, "sweep-kappa", "--kappa-min", kappa, "--kappa-max", kappa,
            "--kappa-points", "2",
        )
        assert code == 0
        row = read_csv(out)[0]
        assert abs(complex(float(row["recovery_re"]), float(row["recovery_im"])) - 1) < 1e-9
        assert row["f_av"] == "nan", kappa
        code, _, err = run(capsys, "fidelity", "--kappa", kappa)
        assert code == 1 and "holds only at kappa = 1" in err


def test_retrieved_light_commands_build_no_pass_above_order_4(tmp_path, capsys, monkeypatch):
    # the row they read holds spin orders 0-2 at any order: a higher
    # --order-max is validated, then changes neither a byte nor the work
    orders = []
    single_pass = protocol.single_pass

    def spy(config, stage=""):
        orders.append(config.order_max)
        return single_pass(config, stage)

    monkeypatch.setattr(protocol, "single_pass", spy)
    protocol_noise.cache_clear()
    for command, high in (("fidelity", "1000"), ("squeeze-sweep", "1000"), ("sweep-kappa", "200")):
        outputs = []
        for order in (high, "4"):
            out_file = tmp_path / f"{command}-{order}.csv"
            code, _, _ = run(capsys, command, "--order-max", order, "--out", str(out_file))
            assert code == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1], command
    assert max(orders) == 4


def test_sweep_kappa_at_high_order_ignores_the_blas_thread_count(tmp_path, capsys):
    # a dense order-100 cycle product moved last digits with the thread count
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holomem.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out_file = tmp_path / f"threads-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "holomem.cli", "sweep-kappa", "--order-max", "100",
             "--out", str(out_file)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_file.read_bytes())
    code, _, _ = run(capsys, "sweep-kappa", "--order-max", "4", "--out", str(tmp_path / "4.csv"))
    assert code == 0
    assert outputs == [(tmp_path / "4.csv").read_bytes()] * 2


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


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["fidelity", "--squeeze-r", "400"], 1),
        (["squeeze-sweep", "--r-min", "400", "--r-max", "401", "--r-points", "2"], 2),
    ],
)
def test_squeezing_past_the_exp_overflow_is_silent(capsys, argv, rows):
    # e^{2r} overflows to inf past r ~ 354.9: the ideal antisqueezed partner
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert [float(row["f_av"]) for row in read_csv(out)] == [1.0] * rows


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
    # The note is the run's one diagnostic: the command's ProtocolConfig has
    # no grating phase, so it raises no UserWarning (an error under pytest).
    for periods in ("10", "3"):
        code, _, err = run(
            capsys,
            "oracle-verify",
            "--grating-periods", periods,
            "--z-per-period", "20",
            "--t-steps", "100",
            "--tolerance", "0.5",
        )
        assert code == 0
        assert err == (
            f"warning: {periods} grating periods is outside the many-interference-layer "
            "regime; the analytic reference coefficients are unreliable there\n"
        )


@pytest.mark.parametrize(
    "argv, periods",
    [(["--grating-periods", "14"], "14"), (["--order-max", "40"], "100")],
    ids=["low-order", "high-order"],
)
def test_oracle_verify_notes_the_grids_that_fail_the_gate(capsys, argv, periods):
    # Both fail the README's 1% gate on finite-layer physics; the note says why.
    code, out, err = run(capsys, "oracle-verify", *argv)
    assert code == 2
    assert "FAIL" in out
    assert err == (
        f"warning: {periods} grating periods is outside the many-interference-layer "
        "regime; the analytic reference coefficients are unreliable there\n"
    )


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
    code, _, err = run(capsys, "fidelity", "--pixels", "0")
    assert code == 1 and err == "error: pixels must be >= 1\n"
    code, _, _ = run(capsys, "oracle-verify", "--tolerance", "-0.5")
    assert code == 1
    # a point count numpy cannot size is named, not only numpy's message
    code, _, err = run(capsys, "sweep-kappa", "--kappa-points", str(10**400))
    assert code == 1 and err == "error: kappa-points is too large: Maximum allowed size exceeded\n"
    code, _, err = run(capsys, "squeeze-sweep", "--r-points", str(10**30))
    assert code == 1 and err == "error: r-points is too large: Maximum allowed size exceeded\n"
    # a sweep axis names the flags of the rule it breaks
    code, _, err = run(capsys, "squeeze-sweep", "--r-points", "1")
    assert code == 1 and err == "error: r-points must be at least 2\n"
    code, _, err = run(capsys, "sweep-kappa", "--kappa-min", "2", "--kappa-max", "1")
    assert code == 1 and err == "error: kappa-min and kappa-max must satisfy 0 <= min <= max\n"


def test_closed_stdout_pipe_exits_141_silently():
    # a reader that is gone is no invalid parameter: exit as SIGPIPE would, printing nothing
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holomem.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "holomem.cli", "maps"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


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
    # the one error line, with the value as the flag parsed it
    value = float(argv[-1].rpartition("=")[2])
    assert err == f"error: {name} must be finite, got {value}\n"
    assert not out_file.exists()


ORACLE_GRID = ["--grating-periods", "20", "--z-per-period", "20", "--tolerance", "0.05"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["maps", "--kappa", "100.5", "--out", "{out}"], "kappa"),
        (["fidelity", "--kappa", "100.5", "--out", "{out}"], "kappa"),
        (["sweep-kappa", "--kappa-max", "100.5", "--out", "{out}"], "kappa-max"),
        (["oracle-verify", "--kappa", "100.5", "--out", "{out}"], "kappa"),
        (["maps", "--config", "{config}", "--out", "{out}"], "kappa"),
        # kappa^2 = 1e140 is far past the bound, written to a file or to stdout
        (["maps", "--kappa", "1e70", "--out", "{out}"], "kappa"),
        (["sweep-kappa", "--kappa-max", "1e70", "--out", "{out}"], "kappa-max"),
        (["maps", "--kappa", "1e70"], "kappa"),
        (["sweep-kappa", "--kappa-max", "1e70"], "kappa-max"),
        # kappa**2 (maps, fidelity, oracle-verify) or the recovery power
        # |gain|**2 (sweep-kappa) would leave the float range
        (["maps", "--kappa", "1e160", "--out", "{out}"], "kappa"),
        (["fidelity", "--kappa", "1e160", "--out", "{out}"], "kappa"),
        (["sweep-kappa", "--kappa-max", "1e40", "--out", "{out}"], "kappa-max"),
        (["oracle-verify", "--kappa", "1e200", "--out", "{out}"], "kappa"),
        # oracle couplings whose squares near the float range
        (["oracle-verify", "--kappa", "1e150", *ORACLE_GRID, "--out", "{out}"], "kappa"),
        (["oracle-verify", "--kappa", "1e154", *ORACLE_GRID, "--out", "{out}"], "kappa"),
        (["oracle-verify", "--kappa", "1.3e154", *ORACLE_GRID, "--out", "{out}"], "kappa"),
        (["oracle-verify", "--kappa", "1e155", *ORACLE_GRID, "--out", "{out}"], "kappa"),
    ],
)
def test_kappa_above_the_bound_builds_no_pass(tmp_path, capsys, monkeypatch, argv, name):
    from holomem import cli, oracle

    def spy(*args, **kwargs):
        raise AssertionError("a pass was built")

    for module, attribute in ((protocol, "single_pass"), (cli, "single_pass"),
                              (oracle, "_pass_map")):
        monkeypatch.setattr(module, attribute, spy)
    protocol_noise.cache_clear()
    config, out_file = tmp_path / "run.json", tmp_path / "out"
    config.write_text(json.dumps({"kappa": 100.5}))
    flag = f"--{name}"
    value = argv[argv.index(flag) + 1] if flag in argv else "100.5"  # else the config's
    argv = [arg.format(out=out_file, config=config) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    # the one error line, before any arithmetic on kappa; no data on stdout either
    assert (code, out, err) == (1, "", f"error: {name} must be <= 100, got {float(value)}\n")
    assert not out_file.exists() and not (tmp_path / "out.meta.json").exists()


def test_grid_past_the_address_space_exits_1(tmp_path, capsys):
    # 4e8 to 4e301 z points: the grid's size cap rejects them by arithmetic,
    # before the basis table (tens of GB at 1e7 periods) is allocated; past
    # the float range the z point count is infinite
    out_file = tmp_path / "oracle.json"
    for periods in ("1e7", "1e12", "1e300", "1e307"):
        code, out, err = run(
            capsys, "oracle-verify", "--grating-periods", periods, "--out", str(out_file)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: z grid too large: ") and err.count("\n") == 1
        assert "grating-periods" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["--order-max", "60", "--grating-periods", "1"], ["--z-per-period", "10"]],
    ids=["order-max", "z-per-period"],
)
def test_coarse_grid_names_its_flags(tmp_path, capsys, argv):
    # too few points for theta_60 on one period, or for the carrier at 10 per period
    out_file = tmp_path / "oracle.json"
    code, out, err = run(capsys, "oracle-verify", *argv, "--out", str(out_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: z grid too coarse: ") and err.count("\n") == 1
    for flag in ("order-max", "grating-periods", "z-per-period"):
        assert flag in err
    assert list(tmp_path.iterdir()) == []


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


def test_repeated_calls_in_one_process_reuse_the_parser(tmp_path, capsys):
    commands = {
        "oracle.json": ["oracle-verify", "--grating-periods", "20", "--z-per-period", "20",
                        "--tolerance", "0.05"],
        "fidelity.csv": ["fidelity", "--pixels", "2000", "--squeeze-r", "0.4"],
        "sweep.csv": ["sweep-kappa", "--kappa-points", "11"],
    }

    def run_all(round_):
        for name, argv in commands.items():
            code, _, _ = run(capsys, *argv, "--out", str(tmp_path / f"{round_}.{name}"))
            assert code == 0

    run_all("first")
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--pixels", "many"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "fidelity", "--pixels", "0")
    assert code == 1 and "pixels" in err
    run_all("again")
    assert build_parser() is build_parser()
    for name in commands:
        for suffix in ("", ".meta.json"):
            first = (tmp_path / f"first.{name}{suffix}").read_bytes()
            assert (tmp_path / f"again.{name}{suffix}").read_bytes() == first


def test_second_fidelity_call_writes_the_bytes_of_a_fresh_process(tmp_path, capsys):
    code, _, _ = run(capsys, "fidelity", "--pixels", "10", "--squeeze-r", "0.5",
                     "--out", str(tmp_path / "first.csv"))
    assert code == 0
    argv = ["fidelity", "--pixels", "2000", "--squeeze-r", "0.25"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "warm.csv"))
    assert code == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holomem.__file__)))
    fresh = subprocess.run(
        [sys.executable, "-m", "holomem.cli", *argv, "--out", str(tmp_path / "cold.csv")],
        env=env, capture_output=True,
    )
    assert fresh.returncode == 0, fresh.stderr
    for suffix in ("", ".meta.json"):
        warm = (tmp_path / f"warm.csv{suffix}").read_bytes()
        assert warm == (tmp_path / f"cold.csv{suffix}").read_bytes()


@pytest.mark.parametrize(
    "kappa, message",
    [
        ("1.2", "the noise decomposition a_out = a_in + f holds only at kappa = 1; "
                "use the full-cycle map directly for other couplings"),
        ("1e160", "kappa must be <= 100, got 1e+160"),
    ],
    ids=["away-from-one", "overflow"],
)
def test_rejected_fidelity_couplings_fail_alike_on_every_call(tmp_path, capsys, kappa, message):
    out_file = tmp_path / "out.csv"
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fidelity", "--kappa", kappa, "--out", str(out_file))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()


def test_integer_kappa_in_a_config_file_writes_the_bytes_of_the_flag(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"kappa": 1}))
    outputs = []
    for source in (["--kappa", "1.0"], ["--config", str(config)], ["--kappa", "1.0"]):
        if source[0] == "--config":
            protocol_noise.cache_clear()  # the integer kappa is then the cached key
        out_file = tmp_path / f"{len(outputs)}.csv"
        code, _, _ = run(capsys, "fidelity", "--pixels", "7", *source, "--out", str(out_file))
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"\n1.0,0.0,7," in outputs[0]


def test_warm_oracle_verify_repeats_its_first_output(tmp_path, capsys):
    # A later call on a grid swept before, after calls on another grid and
    # at another coupling, writes the first call's bytes.
    readme = ["oracle-verify", "--grating-periods", "100", "--z-per-period", "40",
              "--tolerance", "0.01"]
    out_file = tmp_path / "f.json"
    sidecar = tmp_path / "f.json.meta.json"

    def run_oracle(*extra):
        code, out, err = run(capsys, *readme, *extra, "--out", str(out_file))
        assert code == 0, err
        return out, out_file.read_bytes(), sidecar.read_bytes()

    first = run_oracle()
    run_oracle("--grating-periods", "30", "--kappa", "0.9")
    assert run_oracle("--kappa", "0.9") != first
    assert run_oracle() == first


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pixels": 10}))
    code, out, _ = run(capsys, "fidelity", "--config", str(config))
    assert code == 0
    assert read_csv(out)[0]["pixels"] == "10"
    # explicit flag wins over the file
    code, out, _ = run(capsys, "fidelity", "--config", str(config), "--pixels", "2")
    assert read_csv(out)[0]["pixels"] == "2"


@pytest.mark.parametrize(
    "values, key",
    [
        ({"pixels": None}, "pixels"),
        ({"kappa": "1"}, "kappa"),
        ({"order_max": 4.5}, "order_max"),
        ({"pixels": True}, "pixels"),
        ({"squeeze_r": 10**400}, "squeeze_r"),
    ],
    ids=["null", "string", "fractional-int", "bool", "int-past-float-range"],
)
def test_config_values_are_checked_against_the_flag_type(tmp_path, capsys, values, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    out_file = tmp_path / "out.csv"
    code, _, err = run(capsys, "fidelity", "--config", str(config), "--out", str(out_file))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(key) in err
    assert not out_file.exists()


def test_config_accepts_what_the_flags_accept(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"order_max": 4.0, "kappa": 1, "pixels": 2}))
    code, out, _ = run(capsys, "fidelity", "--config", str(config))
    assert code == 0
    assert read_csv(out)[0]["pixels"] == "2"


def test_defaults_have_their_flags_types():
    # _merge_params checks config values against the type of the default
    subparsers = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    for command, defaults in DEFAULTS.items():
        flag_types = {a.dest: a.type for a in subparsers.choices[command]._actions}
        for key, value in defaults.items():
            assert type(value) is flag_types[key], (command, key)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pixel": 10}))
    code, _, err = run(capsys, "fidelity", "--config", str(config))
    assert code == 1 and "unknown config" in err


def test_failed_sidecar_write_exits_1_with_one_error_line(tmp_path, capsys):
    out_file = tmp_path / "x.csv"
    (tmp_path / "x.csv.meta.json").mkdir()
    code, _, err = run(capsys, "fidelity", "--pixels", "3", "--out", str(out_file))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "meta.json" in err
    # the data written before the sidecar failed is cut, as on a failed data write
    assert out_file.read_bytes() == b""


def test_fifo_out_gets_the_data_and_no_sidecar(tmp_path, capsys):
    reference_file = tmp_path / "reference.csv"
    assert run(capsys, "fidelity", "--pixels", "3", "--out", str(reference_file))[0] == 0
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []

    def drain():
        with open(fifo, "rb") as stream:
            received.append(stream.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        code, _, err = run(capsys, "fidelity", "--pixels", "3", "--out", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
    finally:
        if reader.is_alive():  # the writer never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert code == 0, err
    assert received == [reference_file.read_bytes()]
    assert not (tmp_path / "pipe.csv.meta.json").exists()


@pytest.mark.parametrize(
    "argv, name",
    [(["fidelity", "--pixels", "3"], "out.csv"), (["maps", "--kappa", "0.7"], "out.json")],
    ids=["table", "json"],
)
def test_shorter_output_overwrites_longer_files_exactly(tmp_path, capsys, argv, name):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    for suffix in ("", ".meta.json"):
        (reused / f"{name}{suffix}").write_bytes(b"stale line\n" * 20000)
    for directory in (fresh, reused):
        assert run(capsys, *argv, "--out", str(directory / name))[0] == 0
    for suffix in ("", ".meta.json"):
        expected = (fresh / f"{name}{suffix}").read_bytes()
        assert len(expected) < 20000
        assert (reused / f"{name}{suffix}").read_bytes() == expected


def test_rewriting_a_file_of_the_same_length_skips_the_truncate(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "out.csv"
    argv = ["fidelity", "--pixels", "3", "--out", str(out_file)]
    assert run(capsys, *argv)[0] == 0
    first = out_file.read_bytes()
    cuts = []
    real_ftruncate = os.ftruncate

    def spy(fd, length):
        cuts.append(length)
        real_ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", spy)
    assert run(capsys, *argv)[0] == 0
    assert cuts == []
    assert out_file.read_bytes() == first


def test_symlinked_out_writes_through_the_link(tmp_path, capsys):
    reference_file = tmp_path / "reference.csv"
    assert run(capsys, "fidelity", "--pixels", "3", "--out", str(reference_file))[0] == 0
    target = tmp_path / "target.csv"
    target.write_bytes(b"stale line\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, err = run(capsys, "fidelity", "--pixels", "3", "--out", str(link))
    assert code == 0, err
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == reference_file.read_bytes()
    assert (tmp_path / "link.csv.meta.json").is_file()


def test_output_writes_open_without_truncation(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "out.csv"
    opened = {}
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    for _ in range(2):  # the second call overwrites both files
        monkeypatch.setattr(os, "open", spy)
        code, _, err = run(capsys, "fidelity", "--pixels", "3", "--out", str(out_file))
        monkeypatch.undo()
        assert code == 0, err
        assert {str(out_file), f"{out_file}.meta.json"} <= set(opened)
        assert not any(flags & os.O_TRUNC for flags in opened.values())


def test_failed_write_leaves_no_stale_tail(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "out.csv"
    out_file.write_bytes(b"stale line\n" * 1000)

    def disk_full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", disk_full)
    code, _, err = run(capsys, "fidelity", "--pixels", "3", "--out", str(out_file))
    monkeypatch.undo()
    assert code == 1 and err.startswith("error:") and "No space left" in err
    assert out_file.read_bytes() == b""


# --- the JSON writer ------------------------------------------------------

def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=10**400).map(lambda n: random_sign(n))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)


def random_sign(n):
    return -n if n % 2 else n


JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"b": {}, "a": [[], {}, [[]]], "": ()},
        ["é ☃ \U0001f600", 'say "hi"', "back\\slash", "line\nbreak\ttab\x00\x7f"],
        [10**300, -(10**300), 2**64, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
         0.1, 123456789.0, 1.7976931348623157e308],
        [True, False, None, 1, 0, -1],
        {"z": 1, "a": {"y": [1.5, {"k": None}], "b": "s"}, "m": [True]},
    ],
)
def test_json_writer_edge_cases(value):
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite_floats(bad):
    for value in (bad, [1.0, bad], {"a": {"b": [bad]}}):
        with pytest.raises(ValueError):
            dumps(value)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text(value)


def test_json_writer_rejects_what_json_cannot_encode():
    for value in (np.bool_(True), np.int64(3), {1, 2}, object()):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            _json_text(value)


def test_written_json_is_canonical(tmp_path, capsys):
    # every JSON file the commands write reads back to the same bytes
    runs = {
        "oracle.json": ["oracle-verify", "--grating-periods", "20", "--z-per-period", "20",
                        "--tolerance", "0.05"],
        "maps.json": ["maps", "--kappa", "0.7"],
        "fidelity.csv": ["fidelity", "--pixels", "3", "--squeeze-r", "0.5"],
        "sweep.csv": ["sweep-kappa", "--kappa-points", "5"],
        "squeeze.csv": ["squeeze-sweep", "--r-points", "3"],
    }
    for name, argv in runs.items():
        out_file = tmp_path / name
        code, _, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 0, err
        written = [tmp_path / f"{name}.meta.json"]
        if name.endswith(".json"):
            written.append(out_file)
        for path in written:
            data = path.read_text()
            assert data == json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n", path


# --- argument routing -----------------------------------------------------

@pytest.mark.parametrize(
    "argv", [[], ["bogus"], ["oracle-verify", "--bogus"], ["--kappa", "1", "maps"], ["-x"]]
)
def test_argument_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: holomem" in capsys.readouterr().err


def test_unknown_flag_is_reported_by_the_command(capsys):
    with pytest.raises(SystemExit):
        main(["oracle-verify", "--bogus"])
    err = capsys.readouterr().err
    assert err.startswith("usage: holomem oracle-verify")
    assert "holomem oracle-verify: error: unrecognized arguments: --bogus" in err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["--help"], "usage: holomem [-h]"),
        (["-h"], "usage: holomem [-h]"),
        (["oracle-verify", "--help"], "usage: holomem oracle-verify"),
    ],
)
def test_help_exits_0_with_its_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(usage)
    assert "t-steps" not in out  # accepted, but hidden


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["holomem", "fidelity", "--pixels", "3"])
    assert main(None) == 0
    assert read_csv(capsys.readouterr().out)[0]["pixels"] == "3"


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_command_subparser_parses_as_the_top_level_parser(command):
    flags = {
        "maps": ["--kappa", "0.7", "--order-max", "6"],
        "fidelity": ["--pixels", "10", "--squeeze-r", "0.5", "--out", "f.csv"],
        "sweep-kappa": ["--kappa-min", "0", "--kappa-max", "1.4", "--kappa-points", "141"],
        "squeeze-sweep": ["--r-min", "0", "--r-max", "10", "--r-points", "101", "--config", "c"],
        "oracle-verify": ["--grating-periods", "100", "--z-per-period", "40", "--t-steps", "200",
                          "--tolerance", "0.01", "--kappa", "1.05"],
    }[command]
    # Abbreviated, joined, negative, repeated, empty and "-" values: only
    # some are read from the flag table, the rest go to argparse.
    edge_cases = {
        "maps": [["--kappa", "-1"], ["--out", "-"]],
        "fidelity": [["--pix", "3"], ["--pixels=3"], ["--pixels", "2", "--pixels", "3"],
                     ["--out", ""]],
        "sweep-kappa": [["--kappa-min", "-1", "--out", ""]],
        "squeeze-sweep": [["--pixels=3", "--pix", "4"], ["--config", "-"]],
        "oracle-verify": [["--kappa", "-1"], ["--t-steps", "2", "--t-steps", "3"]],
    }[command]
    for argv in ([command], [command, *flags], *([command, *case] for case in edge_cases)):
        assert vars(_parse_args(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize(
    "flags",
    [["--pixels", "many"], ["--pixels"], ["--pixels", "1e3"], ["--bogus", "1"],
     ["--kappa", "1", "--pixels"]],
    ids=["not-an-int", "trailing-flag", "float-text", "unknown-flag", "trailing-after-pair"],
)
def test_rejected_argv_exits_2_with_the_subparsers_error(capsys, flags):
    subparsers = next(action for action in build_parser()._actions if action.dest == "command")
    with pytest.raises(SystemExit) as expected:
        subparsers.choices["fidelity"].parse_args(flags)
    reference = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", *flags])
    assert exc.value.code == expected.value.code == 2
    assert capsys.readouterr().err == reference
