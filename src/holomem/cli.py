"""Batch front-end: coefficient tables, fidelity reports, sweeps, oracle runs.

Subcommands
    maps          print/write the protocol coefficient matrices
    fidelity      fidelity of the full cycle for N pixels and optional squeezing
    sweep-kappa   signal recovery and added noise versus the coupling constant
    squeeze-sweep fidelity versus initial spin squeezing
    oracle-verify integrate the pass equations and compare with the analytic map

Output is deterministic: at one BLAS thread count, identical parameters
produce byte-identical CSV or JSON (run metadata goes to a separate
``<out>.meta.json`` sidecar, never into the data file).  Complex values are
serialized as re/im pairs.  Exit codes: 0 success, 1 invalid parameters,
2 oracle tolerance breach, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .algebra import VACUUM_VARIANCE, light
from .basis import DEFAULT_POINTS_PER_PERIOD, z_points
from .fidelity import (
    FidelityReport,
    PixelNoiseModel,
    check_pixel_count,
    fidelity_from_covariance,
    squeezing_sweep,
)
from .protocol import (
    MAX_KAPPA,
    ProtocolConfig,
    double_pass_write,
    few_layers,
    finite,
    full_cycle,
    retrieval_cycle,
    single_pass,
    unit_gain,
)

if TYPE_CHECKING:
    import argparse

COMMENT = (
    "# conventions: kappa is the dimensionless coupling of one pass "
    "(kappa^2 = 2*alpha0*eta, kappa = 1 optimal); vacuum variance 1/2 per quadrature"
)

DEFAULTS: dict[str, dict] = {
    "maps": {"kappa": 1.0, "order_max": 4},
    "fidelity": {"kappa": 1.0, "pixels": 1, "squeeze_r": 0.0},
    "sweep-kappa": {
        "kappa_min": 0.0,
        "kappa_max": 1.4,
        "kappa_points": 141,
        # Checked, but no output reads it (retrieval_cycle); the benchmark's
        # kappa-sweep passes it (bench/workloads.py).  It goes with --t-steps.
        "order_max": 4,
    },
    "squeeze-sweep": {
        "pixels": 1,
        "r_min": 0.0,
        "r_max": 10.0,
        "r_points": 101,
    },
    "oracle-verify": {
        "kappa": 1.0,
        "grating_periods": 100.0,
        "z_per_period": DEFAULT_POINTS_PER_PERIOD,
        "tolerance": 0.01,
        "order_max": 4,
    },
}

_COMMAND_HELP = {
    "maps": "protocol coefficient matrices",
    "fidelity": "full-cycle fidelity report (kappa = 1 required)",
    "sweep-kappa": "signal recovery versus coupling",
    "squeeze-sweep": "fidelity versus spin squeezing",
    "oracle-verify": "PDE oracle versus analytic single pass",
}

_PARAMETER_HELP = {
    "kappa": "coupling constant",
    "order_max": "Legendre truncation order",
    "pixels": "number of pixellized modes",
    "squeeze_r": "spin squeezing parameter",
    "grating_periods": "2 pi layers in the cell",
    "z_per_period": "z points per grating period",
    "tolerance": "relative tolerance",
}


def _fmt(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_file(path: str | None, text: str) -> None:
    """Write text to stdout, or to path in place: overwrite, then cut a regular file to length.

    No O_TRUNC: ext4 flushes a file truncated to zero when it is closed
    (auto_da_alloc), and that flush costs more than the rest of a small
    command; renaming a temporary file over the path triggers it too.
    Devices and FIFOs are written as a stream and never truncated, and a
    regular file only when it was longer than the new bytes.  If the write
    fails, a regular file is cut to zero, so no stale tail of the old
    contents survives.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_table(out: str | None, header: list[str], rows: list[list[str]]) -> None:
    lines = [COMMENT, ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_file(out, "\n".join(lines) + "\n")


_quote = json.encoder.encode_basestring_ascii  # in C
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), byte for byte.

    json.dumps indents only in its pure-Python encoder, about 1.5 times slower
    on the small payloads written here.  Dict keys must be strings; newline
    is the line break and indent before this value's closing bracket.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(out: str | None, payload: dict) -> None:
    _write_file(out, _json_text(payload) + "\n")


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
        _write_file(f"{out}.meta.json", _json_text(meta) + "\n")
    except (OSError, ValueError):
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


def _merge_params(command: str, args: SimpleNamespace) -> dict:
    """defaults < config file < explicit command-line flags.

    Every default has its flag's type, so config values are checked against
    it and converted to it, as the flag would parse them.
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
            params[key] = type(params[key])(value)
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
    maps = {
        "single_pass": single_pass(config),
        "double_pass_write": double_pass_write(config),
        "full_cycle": full_cycle(config),
    }
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


_FIDELITY_HEADER = ["r", "pixels", "f_n", "f_av", "beats_classical", "beats_cloning"]


def _fidelity_row(report: FidelityReport) -> list[str]:
    """The cells of _FIDELITY_HEADER for one report."""
    return [
        _fmt(report.squeezing_r),
        _fmt(report.pixel_count),
        _fmt(report.f_n),
        _fmt(report.f_av),
        _fmt(report.beats_classical),
        _fmt(report.beats_cloning),
    ]


def cmd_fidelity(params: dict, out: str | None) -> int:
    pixels = check_pixel_count("pixels", params["pixels"])
    r = finite("squeeze-r", params["squeeze_r"])
    if r < 0:
        raise ValueError("squeeze-r must be nonnegative")
    (report,) = squeezing_sweep([r], pixel_count=pixels, kappa=params["kappa"])
    row = [_fmt(params["kappa"]), *_fidelity_row(report)]
    _write_table(out, ["kappa", *_FIDELITY_HEADER], [row])
    return 0


def _sweep_axis(prefix: str, params: dict) -> np.ndarray:
    """The <prefix>-min .. <prefix>-max axis of <prefix>-points, each error naming its flags."""
    lo = finite(f"{prefix}-min", params[f"{prefix}_min"])
    hi = finite(f"{prefix}-max", params[f"{prefix}_max"])
    points = int(params[f"{prefix}_points"])
    if points < 2:
        raise ValueError(f"{prefix}-points must be at least 2")
    if lo < 0 or hi < lo:
        raise ValueError(f"{prefix}-min and {prefix}-max must satisfy 0 <= min <= max")
    try:
        return np.linspace(lo, hi, points)
    except (ValueError, MemoryError) as exc:
        # numpy's error for an axis it cannot size names no flag
        raise ValueError(f"{prefix}-points is too large: {exc}") from None


def cmd_sweep_kappa(params: dict, out: str | None) -> int:
    kappas = _sweep_axis("kappa", params)
    if kappas[-1] > MAX_KAPPA:
        raise ValueError(f"kappa-max must be <= {MAX_KAPPA:g}, got {float(kappas[-1])}")
    ProtocolConfig(order_max=int(params["order_max"]))  # only checks the flag
    header = ["kappa", "recovery_re", "recovery_im", "recovery_power", "added_noise_var", "f_av"]
    rows = []
    powers = []
    for kappa in kappas:
        cycle = retrieval_cycle(float(kappa))
        row_coeffs = cycle.coefficients[cycle.out_index(light("R"))]
        weights = np.abs(row_coeffs) ** 2
        signal = cycle.in_index(light("W"))
        gain, power = complex(row_coeffs[signal]), float(weights[signal])
        noise_var = VACUUM_VARIANCE * sum(float(w) for i, w in enumerate(weights) if i != signal)
        # The determinant-formula fidelity assumes the retrieved light to be
        # the signal plus noise, so it is only quoted where extract_noise
        # accepts the cycle (unit_gain).  With vacuum inputs noise_var is
        # the variance of either noise quadrature.
        if unit_gain(gain, row_coeffs[cycle.in_index(light("R"))]):
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
    falling = all(powers[i] >= powers[i + 1] - 1e-15 for i in range(best, len(powers) - 1))
    print(
        f"argmax recovery power: kappa = {kappas[best]:.6g} "
        f"(power {powers[best]:.10g}, unimodal = {rising and falling})",
        file=sys.stderr,
    )
    return 0


def cmd_squeeze_sweep(params: dict, out: str | None) -> int:
    r_values = _sweep_axis("r", params)
    pixels = check_pixel_count("pixels", params["pixels"])
    reports = squeezing_sweep(r_values, pixel_count=pixels)
    _write_table(out, _FIDELITY_HEADER, [_fidelity_row(rep) for rep in reports])
    return 0


def cmd_oracle_verify(params: dict, out: str | None) -> int:
    # The one command that runs the oracle is the one that loads it.
    from .oracle import OracleGrid, compare, extract_map

    periods = finite("grating-periods", params["grating_periods"])
    z_per_period = int(params["z_per_period"])
    tolerance = finite("tolerance", params["tolerance"])
    if periods <= 0:
        raise ValueError("grating-periods must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    # First, so that an invalid order is the one error line, before the
    # grid's few-layer note.  No analytic map reads the grating phase.
    config = ProtocolConfig(kappa=float(params["kappa"]), order_max=int(params["order_max"]))
    grid = OracleGrid(
        grating_phase=2 * np.pi * periods,
        kappa=config.kappa,
        order_max=config.order_max,
        z_points=z_points(periods, z_per_period),
    )
    if few_layers(grid.effective_phase, grid.order_max):
        print(
            f"warning: {periods:g} grating periods is outside the "
            "many-interference-layer regime; the analytic reference "
            "coefficients are unreliable there",
            file=sys.stderr,
        )
    analytic = single_pass(config)
    result = extract_map(grid, refinement_levels=1)
    report = compare(result, analytic, tolerance)
    light_commutator = result.light_commutator()
    print(report.summary())
    print(
        f"grid: {grid.z_points} z points; "
        f"refinement change {result.refinement_ratios[0]:.3e}, "
        f"reported discretization tolerance {result.reported_tolerance:.3e}"
    )
    if out is not None:
        payload = {
            **vars(report),
            "grid": {
                "grating_phase": grid.grating_phase,
                "z_points": grid.z_points,
                "kappa": grid.kappa,
                "order_max": grid.order_max,
            },
            "refinement_ratios": result.refinement_ratios,
            "reported_tolerance": result.reported_tolerance,
            "light_commutator": light_commutator,
        }
        _write_json(out, payload)
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache
def _flags(command: str) -> dict[str, tuple[str, type, str | None]]:
    """Each flag of command, in --help order, as flag: (destination, type, help).

    Each DEFAULTS key is a flag of its default's type; an unset flag is
    None, so _merge_params can tell it from an explicit value.
    """
    flags = {
        "--" + key.replace("_", "-"): (key, type(default), _PARAMETER_HELP.get(key))
        for key, default in DEFAULTS[command].items()
    }
    flags["--out"] = ("out", str, "output file (CSV or JSON)")
    flags["--config"] = ("config", str, "flat JSON config file")
    if command == "oracle-verify":
        # Ignored, since the pass is exact in time, but still accepted: the
        # benchmark's oracle-verify workload passes it (bench/workloads.py).
        # Its help is argparse.SUPPRESS, which leaves it out of --help.
        flags["--t-steps"] = ("t_steps", int, "==SUPPRESS==")
    return flags


@functools.cache  # parse_args leaves a parser unchanged, so one serves every call
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's subparser by name, built from _flags."""
    import argparse  # only what _parse_args cannot read itself, and build_parser(), need it

    parser = argparse.ArgumentParser(
        prog="holomem",
        description="double-pass volume-hologram memory: maps, fidelity, oracle checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in DEFAULTS:
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for flag, (_, flag_type, text) in _flags(command).items():
            if text == argparse.SUPPRESS:  # which argparse tests for by identity
                text = argparse.SUPPRESS
            p.add_argument(flag, type=flag_type, default=None, help=text)
    return parser, sub.choices


_COMMANDS = {
    "maps": cmd_maps,
    "fidelity": cmd_fidelity,
    "sweep-kappa": cmd_sweep_kappa,
    "squeeze-sweep": cmd_squeeze_sweep,
    "oracle-verify": cmd_oracle_verify,
}


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv parsed as build_parser() parses it.

    A command and then `flag value` pairs, each flag spelled out in full
    and no value starting with "-", is read from _flags alone: argparse
    would take the exact option and the value as it stands, apply the same
    type and keep the last of a repeated flag.  Any other argv, or a value
    its type rejects, goes to argparse, for help or the error.  An argv
    that starts with a command goes straight to that command's subparser,
    so an unknown flag is reported in its usage line ("holomem
    oracle-verify"), not the top-level one.
    """
    command = argv[0] if argv else None
    if command in DEFAULTS and len(argv) % 2:
        flags = _flags(command)
        values = {dest: None for dest, _, _ in flags.values()}
        try:
            for flag, text in zip(argv[1::2], argv[2::2]):
                dest, flag_type, _ = flags[flag]
                if text.startswith("-"):
                    break
                values[dest] = flag_type(text)
            else:
                return SimpleNamespace(command=command, **values)
        except (KeyError, ValueError):
            pass
    parser, commands = _parsers()
    if command not in commands:
        return SimpleNamespace(**vars(parser.parse_args(argv)))
    return SimpleNamespace(command=command, **vars(commands[command].parse_args(argv[1:])))


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        params = _merge_params(args.command, args)
        code = _COMMANDS[args.command](params, args.out)
        _write_sidecar(args.out, args.command, params)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader is gone, as with `| head`: nothing is left to report
        # to.  Point stdout at devnull so that the flush at exit cannot
        # raise again, and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
