"""The benchmark's restated closed forms and traced names, checked from here.

bench/workloads.py checks every data file the benchmark writes against
closed forms it restates on its own (it imports nothing from holomem or
the tests).  These tests load it by path and pin those restatements to
tests/reference.py, so a drift in the benchmark's correctness gate fails
here instead of passing wrong output.  bench/spans.py skips any traced
name it cannot find in the package, so a renamed callable would silently
drop its per-layer span; a test here checks that every name resolves.
The benchmark's own argument lists run through holomem.cli.main here too,
and their data files must pass its checks.
"""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from holomem.algebra import light
from holomem.cli import main

import reference

BENCH = Path(__file__).resolve().parents[1] / "bench"
KAPPAS = np.linspace(0.0, 1.5, 31)
SQUEEZINGS = np.linspace(0.0, 1.0, 21)
RTOL = 1e-12


def load_by_path(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load_by_path("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from load_by_path("spans")


def rel_dev(value, expected):
    return abs(value - expected) / max(1.0, abs(expected))


def test_cycle_gain_and_noise_match_reference(workloads):
    for kappa in KAPPAS:
        row = reference.cycle_retrieved_light_row(kappa)
        gain = row.pop(light("W"))
        noise_var = 0.5 * sum(abs(c) ** 2 for c in row.values())
        assert rel_dev(workloads.cycle_gain(kappa), gain) <= RTOL, kappa
        assert rel_dev(workloads.cycle_noise_var(kappa), noise_var) <= RTOL, kappa


def test_squeezed_average_fidelity_matches_reference(workloads):
    for r in SQUEEZINGS:
        expected = reference.squeezed_average_fidelity(r)
        assert rel_dev(workloads.squeezed_average_fidelity(r), expected) <= RTOL, r


def test_every_traced_name_resolves(spans):
    for layer, attrs in spans.TRACED.items():
        module = importlib.import_module(f"holomem.{layer}")
        for attr in attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # spans.py patches methods through the class __dict__
            found = getattr(owner, "__dict__", {}).get(name)
            assert callable(found), f"bench/spans.py traces holomem.{layer}.{attr}, which is missing"


@pytest.mark.parametrize("name", ["oracle-verify", "pixel-fidelity"])
def test_benchmark_argv_passes_its_check(workloads, tmp_path, capsys, name):
    # the oracle argv still carries --t-steps 200, which the CLI accepts
    workload = workloads.WORKLOADS[name]
    argv = workload.argv(random.Random(1))
    out_file = tmp_path / f"out{workload.data_suffix}"
    assert main([*argv, "--out", str(out_file)]) == 0, capsys.readouterr().err
    assert workload.check(argv, out_file.read_bytes()).problems == ()
