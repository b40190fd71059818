"""The benchmark's workloads: one holomem CLI invocation each, and its check.

Why each workload was chosen is recorded in BENCHMARK.json.  The seed
only draws continuous physics parameters within a band, so it never
changes the amount of work.  Every check compares the data file the
CLI wrote against closed forms restated here (they mirror
tests/reference.py), so a fast but wrong program never counts as a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Relative tolerance of the closed-form checks; the observed worst case is
# about 2e-15.
CLOSED_FORM_RTOL = 1e-12
ORACLE_TOLERANCE = 0.01
COMMUTATOR_ATOL = 1e-9
VACUUM_NOISE_VAR = 11.0 / 60.0


@dataclass(frozen=True)
class Check:
    """Outcome of checking one data file: problems found, worst deviation.

    max_rel_dev is None when the file is too malformed to compare.
    """

    problems: tuple[str, ...]
    max_rel_dev: float | None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[random.Random], list[str]]
    check: Callable[[list[str], bytes], Check]
    data_suffix: str


def _flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# --- oracle-verify -------------------------------------------------------


def _oracle_argv(rng: random.Random) -> list[str]:
    kappa = rng.uniform(0.8, 1.2)
    return [
        "oracle-verify",
        "--grating-periods", "100",
        "--z-per-period", "40",
        "--t-steps", "200",
        "--tolerance", repr(ORACLE_TOLERANCE),
        "--kappa", repr(kappa),
    ]


def _oracle_check(argv: list[str], data: bytes) -> Check:
    report = json.loads(data)
    problems = []
    if report["passed"] is not True:
        problems.append("oracle reported FAIL")
    max_relative = float(report["max_relative"])
    if not max_relative <= ORACLE_TOLERANCE:
        problems.append(f"max_relative {max_relative!r} above {ORACLE_TOLERANCE}")
    commutator = float(report["light_commutator"])
    if not abs(commutator - 1.0) <= COMMUTATOR_ATOL:
        problems.append(f"light commutator {commutator!r} differs from 1")
    if float(report["grid"]["kappa"]) != _flag(argv, "--kappa"):
        problems.append("data file is for another kappa")
    return Check(tuple(problems), max_relative)


# --- kappa-sweep ---------------------------------------------------------
#
# 141 full cycles at order_max 30: algebra.compose label bookkeeping is ~80%
# of compute, protocol most of the rest, and the oracle and fidelity layers
# do no work.  It is the workload for changes to algebra and protocol, but
# it is not listed in BENCHMARK.json: this Python-object-heavy call swings
# by up to 50% between otherwise identical processes on a shared 2-vCPU
# machine, and the spread of its compute_s over ten runs (0.22-0.27 of the
# median) exceeded the largest bound the benchmark may set.  Run it with
# --workload kappa-sweep or --workload all.

KAPPA_POINTS = 141
KAPPA_ONE_INDEX = 100


def _kappa_argv(rng: random.Random) -> list[str]:
    # kappa = 1 stays on the grid (index 100) so the 60/71 row is checked.
    step = rng.uniform(0.0095, 0.01)
    return [
        "sweep-kappa",
        "--kappa-min", repr(1.0 - KAPPA_ONE_INDEX * step),
        "--kappa-max", repr(1.0 + (KAPPA_POINTS - 1 - KAPPA_ONE_INDEX) * step),
        "--kappa-points", str(KAPPA_POINTS),
        "--order-max", "30",
    ]


def cycle_gain(k: float) -> float:
    """Coefficient of the stored signal in the retrieved light."""
    return k**2 * (2 - k**2)


def cycle_noise_var(k: float) -> float:
    """Half the power of the retrieved-light row outside the stored signal."""
    power = (
        (1 - k**2) ** 2
        + k**2 * (1 - 1.5 * k**2 + k**4 / 3) ** 2
        + k**2 * (1 - k**2) ** 2
        + k**6 / 3
        + k**6 / 12 * (1 - k**2) ** 2
        + k**10 / 180
    )
    return 0.5 * power


def _kappa_check(argv: list[str], data: bytes) -> Check:
    rows = _csv_rows(data)
    problems = []
    if len(rows) != KAPPA_POINTS:
        return Check((f"{len(rows)} rows, expected {KAPPA_POINTS}",), None)
    lo, hi = _flag(argv, "--kappa-min"), _flag(argv, "--kappa-max")
    worst = 0.0
    for i, row in enumerate(rows):
        k = float(row["kappa"])
        expected_k = lo + (hi - lo) * i / (KAPPA_POINTS - 1)
        gain = complex(float(row["recovery_re"]), float(row["recovery_im"]))
        deviations = {
            "kappa": _rel_dev(k, expected_k),
            "gain": abs(gain - cycle_gain(k)) / max(1.0, abs(cycle_gain(k))),
            "added_noise_var": _rel_dev(float(row["added_noise_var"]), cycle_noise_var(k)),
        }
        f_av = float(row["f_av"])
        if i == KAPPA_ONE_INDEX:
            deviations["f_av"] = _rel_dev(f_av, 60.0 / 71.0)
        elif not math.isnan(f_av):
            problems.append(f"row {i}: f_av {f_av!r} quoted away from kappa = 1")
        for name, dev in deviations.items():
            if not dev <= CLOSED_FORM_RTOL:
                problems.append(f"row {i}: {name} deviates by {dev:.3e}")
        worst = max(worst, *deviations.values())
    return Check(tuple(problems[:5]), worst)


# --- pixel-fidelity ------------------------------------------------------

PIXELS = 2000


def _pixel_argv(rng: random.Random) -> list[str]:
    return ["fidelity", "--pixels", str(PIXELS), "--squeeze-r", repr(rng.uniform(0.0, 1.0))]


def squeezed_average_fidelity(r: float) -> float:
    """Per-pixel fidelity with the three noise modes squeezed by r."""
    return 1.0 / (1.0 + VACUUM_NOISE_VAR * math.exp(-2.0 * r))


def _pixel_check(argv: list[str], data: bytes) -> Check:
    rows = _csv_rows(data)
    if len(rows) != 1:
        return Check((f"{len(rows)} rows, expected 1",), None)
    row = rows[0]
    r = _flag(argv, "--squeeze-r")
    problems = []
    if int(row["pixels"]) != PIXELS or float(row["r"]) != r:
        problems.append("data file is for other parameters")
    dev = _rel_dev(float(row["f_av"]), squeezed_average_fidelity(r))
    if not dev <= CLOSED_FORM_RTOL:
        problems.append(f"f_av {row['f_av']} deviates by {dev:.3e}")
    if row["beats_classical"] != "true" or row["beats_cloning"] != "true":
        problems.append("benchmark flags are not both true")
    return Check(tuple(problems), dev)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-verify", _oracle_argv, _oracle_check, ".json"),
        Workload("kappa-sweep", _kappa_argv, _kappa_check, ".csv"),
        Workload("pixel-fidelity", _pixel_argv, _pixel_check, ".csv"),
    )
}
