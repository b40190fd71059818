"""Batch front-end: coefficient tables, fidelity reports, sweeps, oracle runs.

Subcommands
    maps          print/write the protocol coefficient matrices
    fidelity      fidelity of the full cycle for N pixels and optional squeezing
    sweep-kappa   signal recovery and added noise versus the coupling constant
    squeeze-sweep fidelity versus initial spin squeezing
    oracle-verify integrate the pass equations and compare with the analytic map

Output is deterministic: identical parameters produce byte-identical CSV or
JSON (run metadata goes to a separate ``<out>.meta.json`` sidecar, never
into the data file).  Complex values are serialized as re/im pairs.  Exit
codes: 0 success, 1 invalid parameters, 2 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import light
from .fidelity import (
    PixelNoiseModel,
    fidelity_from_covariance,
    noise_covariance,
    protocol_noise,
    squeezed_spec,
    squeezing_sweep,
)
from .oracle import OracleGrid, compare, extract_map
from .protocol import (
    ProtocolConfig,
    double_pass_write,
    extract_noise,
    full_cycle,
    single_pass,
)

COMMENT = (
    "# conventions: kappa is the dimensionless coupling of one pass "
    "(kappa^2 = 2*alpha0*eta, kappa = 1 optimal); vacuum variance 1/2 per quadrature"
)

# Below this many grating periods the analytic maps the oracle is checked
# against are themselves suspect.
MANY_LAYER_MIN_PERIODS = 10

DEFAULTS: dict[str, dict] = {
    "maps": {"kappa": 1.0, "order_max": 4},
    "fidelity": {"kappa": 1.0, "order_max": 4, "pixels": 1, "squeeze_r": 0.0},
    "sweep-kappa": {
        "order_max": 4,
        "kappa_min": 0.0,
        "kappa_max": 1.4,
        "kappa_points": 141,
    },
    "squeeze-sweep": {
        "order_max": 4,
        "pixels": 1,
        "r_min": 0.0,
        "r_max": 10.0,
        "r_points": 101,
    },
    "oracle-verify": {
        "kappa": 1.0,
        "order_max": 4,
        "grating_periods": 100.0,
        "z_per_period": 40,
        "tolerance": 0.01,
    },
}


def _finite(name: str, value) -> float:
    """value as a float, or a ValueError naming the parameter."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _require_finite(name: str, values, kappa: float) -> None:
    """A ValueError naming kappa unless every value (array or scalars) is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"kappa = {kappa!r} is too large: the {name} overflows")


def _fmt(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_file(path: str, text: str) -> None:
    """Write text to path in place: overwrite, then cut a regular file to length.

    No O_TRUNC: ext4 flushes a file truncated to zero when it is closed
    (auto_da_alloc), and that flush costs more than the rest of a small
    command; renaming a temporary file over the path triggers it too.
    Devices and FIFOs are written as a stream and never truncated.  If the
    write fails, a regular file is cut to zero, so no stale tail of the old
    contents survives.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_table(out: str | None, header: list[str], rows: list[list[str]]) -> None:
    lines = [COMMENT, ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _write_json(out: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _write_sidecar(out: str | None, command: str, params: dict) -> None:
    """Run metadata in <out>.meta.json, beside a regular data file only."""
    if out is None or not os.path.isfile(out):
        return
    meta = {
        "command": command,
        "parameters": {k: params[k] for k in sorted(params)},
        "version": __version__,
    }
    try:
        _write_file(f"{out}.meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError:
        # A data file without its metadata is a failed run: leave it empty,
        # as a failed data write does.
        os.truncate(out, 0)
        raise


def _check_config_value(key: str, value, flag_type: type) -> None:
    """A ValueError naming key unless value is what its flag would parse to.

    JSON booleans are Python ints, and a float flag takes an integer too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        valid = False
    elif flag_type is int:
        valid = isinstance(value, int) or value.is_integer()
    else:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"config key {key!r} is out of the float range") from None
        valid = True
    if not valid:
        kind = "an integer" if flag_type is int else "a number"
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def _merge_params(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit command-line flags.

    Every default has its flag's type, so config values are checked against
    it.
    """
    params = dict(DEFAULTS[command])
    if args.config is not None:
        file_values = json.loads(Path(args.config).read_text())
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = set(file_values) - set(params)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in file_values.items():
            _check_config_value(key, value, type(params[key]))
        params.update(file_values)
    for key in params:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _map_payload(inout_map) -> dict:
    return {
        "inputs": [str(lab) for lab in inout_map.input_register],
        "outputs": [str(lab) for lab in inout_map.output_register],
        "real": inout_map.coefficients.real.tolist(),
        "imag": inout_map.coefficients.imag.tolist(),
    }


def _print_map(name: str, inout_map) -> None:
    print(f"{name}:")
    for out_lab in inout_map.output_register:
        terms = []
        for in_lab, coeff in inout_map.row(out_lab).items():
            if abs(coeff) > 1e-14:
                terms.append(f"({coeff.real:.10g}{coeff.imag:+.10g}j) {in_lab}")
        rhs = " + ".join(terms) if terms else "0"
        print(f"  {out_lab}' = {rhs}")


def cmd_maps(params: dict, out: str | None) -> int:
    config = ProtocolConfig(kappa=params["kappa"], order_max=int(params["order_max"]))
    # An overflowing coupling is reported once, by _require_finite.
    with np.errstate(all="ignore"):
        maps = {
            "single_pass": single_pass(config),
            "double_pass_write": double_pass_write(config),
            "full_cycle": full_cycle(config),
        }
    for name, m in maps.items():
        _require_finite(f"{name} map", m.coefficients, config.kappa)
    if out is None:
        print(f"kappa = {config.kappa}, order_max = {config.order_max}")
        for name, m in maps.items():
            _print_map(name, m)
    else:
        payload = {
            "kappa": config.kappa,
            "order_max": config.order_max,
            "maps": {name: _map_payload(m) for name, m in maps.items()},
        }
        _write_json(out, payload)
    return 0


def _pixels(params: dict) -> int:
    """The pixel count, or a ValueError naming pixels.

    The fidelity's log-determinant takes the count as a float.
    """
    pixels = int(params["pixels"])
    if pixels < 1:
        raise ValueError("pixels must be >= 1")
    try:
        float(pixels)
    except OverflowError:
        raise ValueError("pixels is out of the float range") from None
    return pixels


def cmd_fidelity(params: dict, out: str | None) -> int:
    pixels = _pixels(params)
    r = _finite("squeeze-r", params["squeeze_r"])
    if r < 0:
        raise ValueError("squeeze-r must be nonnegative")
    config = ProtocolConfig(kappa=params["kappa"], order_max=int(params["order_max"]))
    # extract_noise rejects kappa != 1 with guidance; that surfaces here as
    # a validation error (exit code 1).
    with np.errstate(all="ignore"):
        cycle = full_cycle(config)
    _require_finite("full_cycle map", cycle.coefficients, config.kappa)
    noise = extract_noise(cycle)
    model = noise_covariance(noise, squeezed_spec(noise, r), pixels)
    report = fidelity_from_covariance(model, squeezing_r=r)
    header = ["kappa", "r", "pixels", "f_n", "f_av", "beats_classical", "beats_cloning"]
    row = [
        _fmt(config.kappa),
        _fmt(r),
        _fmt(pixels),
        _fmt(report.f_n),
        _fmt(report.f_av),
        _fmt(report.beats_classical),
        _fmt(report.beats_cloning),
    ]
    _write_table(out, header, [row])
    return 0


def cmd_sweep_kappa(params: dict, out: str | None) -> int:
    points = int(params["kappa_points"])
    lo = _finite("kappa-min", params["kappa_min"])
    hi = _finite("kappa-max", params["kappa_max"])
    if points < 2:
        raise ValueError("kappa sweep needs at least 2 points")
    if lo < 0 or hi < lo:
        raise ValueError("kappa range must satisfy 0 <= min <= max")
    order_max = int(params["order_max"])
    kappas = np.linspace(lo, hi, points)
    header = ["kappa", "recovery_re", "recovery_im", "recovery_power", "added_noise_var", "f_av"]
    rows = []
    powers = []
    for kappa in kappas:
        with np.errstate(all="ignore"):
            cycle = full_cycle(ProtocolConfig(kappa=float(kappa), order_max=order_max))
            row_coeffs = cycle.coefficients[cycle.out_index(light("R"))]
            weights = np.abs(row_coeffs) ** 2
        _require_finite("full_cycle map", cycle.coefficients, float(kappa))
        signal = cycle.in_index(light("W"))
        gain, power = complex(row_coeffs[signal]), float(weights[signal])
        noise_var = 0.5 * sum(float(w) for i, w in enumerate(weights) if i != signal)
        _require_finite("recovery power or added noise", [power, noise_var], float(kappa))
        # The determinant-formula fidelity assumes the signal restored with
        # unit amplitude, so it is only quoted where the gain is 1.  With
        # vacuum inputs noise_var is the variance of either noise quadrature.
        if abs(gain - 1.0) <= 1e-9:
            f_av = fidelity_from_covariance(PixelNoiseModel(1, noise_var, noise_var)).f_av
        else:
            f_av = float("nan")
        powers.append(power)
        rows.append(
            [
                _fmt(float(kappa)),
                _fmt(gain.real),
                _fmt(gain.imag),
                _fmt(power),
                _fmt(noise_var),
                _fmt(f_av),
            ]
        )
    _write_table(out, header, rows)
    best = int(np.argmax(powers))
    rising = all(powers[i] <= powers[i + 1] + 1e-15 for i in range(best))
    falling = all(powers[i] >= powers[i + 1] - 1e-15 for i in range(best, points - 1))
    print(
        f"argmax recovery power: kappa = {kappas[best]:.6g} "
        f"(power {powers[best]:.10g}, unimodal = {rising and falling})",
        file=sys.stderr,
    )
    return 0


def cmd_squeeze_sweep(params: dict, out: str | None) -> int:
    points = int(params["r_points"])
    lo, hi = _finite("r-min", params["r_min"]), _finite("r-max", params["r_max"])
    pixels = _pixels(params)
    if points < 2:
        raise ValueError("squeezing sweep needs at least 2 points")
    if lo < 0 or hi < lo:
        raise ValueError("r range must satisfy 0 <= min <= max")
    noise = protocol_noise(int(params["order_max"]))
    r_values = np.linspace(lo, hi, points)
    reports = squeezing_sweep(r_values, pixel_count=pixels, noise=noise)
    header = ["r", "pixels", "f_n", "f_av", "beats_classical", "beats_cloning"]
    rows = [
        [
            _fmt(rep.squeezing_r),
            _fmt(rep.pixel_count),
            _fmt(rep.f_n),
            _fmt(rep.f_av),
            _fmt(rep.beats_classical),
            _fmt(rep.beats_cloning),
        ]
        for rep in reports
    ]
    _write_table(out, header, rows)
    return 0


def cmd_oracle_verify(params: dict, out: str | None) -> int:
    periods = _finite("grating-periods", params["grating_periods"])
    z_per_period = int(params["z_per_period"])
    tolerance = _finite("tolerance", params["tolerance"])
    if periods <= 0:
        raise ValueError("grating-periods must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if periods <= MANY_LAYER_MIN_PERIODS:
        print(
            f"warning: {periods:g} grating periods is outside the "
            "many-interference-layer regime; the analytic reference "
            "coefficients are unreliable there",
            file=sys.stderr,
        )
    grating_phase = 2 * np.pi * periods
    intervals = int(np.ceil(z_per_period * periods))
    intervals += intervals % 2
    grid = OracleGrid(
        grating_phase=grating_phase,
        kappa=float(params["kappa"]),
        order_max=int(params["order_max"]),
        z_points=intervals + 1,
    )
    config = ProtocolConfig(
        kappa=grid.kappa, order_max=grid.order_max, grating_phase=grating_phase
    )
    # An overflowing coupling is reported once, by _require_finite.
    with np.errstate(all="ignore"):
        analytic = single_pass(config)
        result = extract_map(grid, refinement_levels=1)
        report = compare(result, analytic, tolerance)
        light_commutator = result.light_commutator()
    _require_finite("single_pass map", analytic.coefficients, grid.kappa)
    _require_finite("oracle map", [result.linear, result.conjugate], grid.kappa)
    _require_finite(
        "oracle report",
        [report.max_relative, report.max_absolute, report.max_zero_entry, report.leakage,
         light_commutator, result.reported_tolerance, *result.refinement_ratios],
        grid.kappa,
    )
    print(report.summary())
    print(
        f"grid: {grid.z_points} z points; "
        f"refinement change {result.refinement_ratios[0]:.3e}, "
        f"reported discretization tolerance {result.reported_tolerance:.3e}"
    )
    if out is not None:
        payload = {
            "passed": report.passed,
            "tolerance": report.tolerance,
            "max_relative": report.max_relative,
            "max_absolute": report.max_absolute,
            "max_zero_entry": report.max_zero_entry,
            "leakage": report.leakage,
            "violators": [list(v) for v in report.violators],
            "grid": {
                "grating_phase": grid.grating_phase,
                "z_points": grid.z_points,
                "kappa": grid.kappa,
                "order_max": grid.order_max,
            },
            "refinement_ratios": list(result.refinement_ratios),
            "reported_tolerance": result.reported_tolerance,
            "light_commutator": light_commutator,
        }
        _write_json(out, payload)
    return 0 if report.passed else 2


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holomem",
        description="double-pass volume-hologram memory: maps, fidelity, oracle checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--order-max", type=int, default=None, help="Legendre truncation order")
        p.add_argument("--out", type=str, default=None, help="output file (CSV or JSON)")
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")

    p = sub.add_parser("maps", help="protocol coefficient matrices")
    p.add_argument("--kappa", type=float, default=None, help="coupling constant")
    add_common(p)

    p = sub.add_parser("fidelity", help="full-cycle fidelity report")
    p.add_argument("--kappa", type=float, default=None, help="coupling constant (1 required)")
    p.add_argument("--pixels", type=int, default=None, help="number of pixellized modes")
    p.add_argument("--squeeze-r", type=float, default=None, help="spin squeezing parameter")
    add_common(p)

    p = sub.add_parser("sweep-kappa", help="signal recovery versus coupling")
    p.add_argument("--kappa-min", type=float, default=None)
    p.add_argument("--kappa-max", type=float, default=None)
    p.add_argument("--kappa-points", type=int, default=None)
    add_common(p)

    p = sub.add_parser("squeeze-sweep", help="fidelity versus spin squeezing")
    p.add_argument("--pixels", type=int, default=None)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--r-points", type=int, default=None)
    add_common(p)

    p = sub.add_parser("oracle-verify", help="PDE oracle versus analytic single pass")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--grating-periods", type=float, default=None, help="2 pi layers in the cell")
    p.add_argument("--z-per-period", type=int, default=None, help="z points per grating period")
    # Ignored, since the pass is exact in time, but still accepted: the
    # benchmark's oracle-verify workload passes it (bench/workloads.py).
    p.add_argument("--t-steps", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--tolerance", type=float, default=None, help="relative tolerance")
    add_common(p)

    return parser


_COMMANDS = {
    "maps": cmd_maps,
    "fidelity": cmd_fidelity,
    "sweep-kappa": cmd_sweep_kappa,
    "squeeze-sweep": cmd_squeeze_sweep,
    "oracle-verify": cmd_oracle_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _merge_params(args.command, args)
        code = _COMMANDS[args.command](params, args.out)
        _write_sidecar(args.out, args.command, params)
    except (ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
