"""The package's public surface, and what importing it loads."""

import os
import subprocess
import sys

import pytest

import holomem


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from holomem import *`
    missing = [name for name in holomem.__all__ if not hasattr(holomem, name)]
    assert missing == []
    namespace = {}
    exec("from holomem import *", namespace)
    assert set(holomem.__all__) <= set(namespace)


def test_removed_names_stay_removed():
    # the oracle works on the unit cell: no basis wrapper carrying a cell
    # length, and passes and stages go through holomem.protocol; an identity
    # map is LinearInOutMap over np.eye; covariances come from transport_covariance
    removed = (
        "LegendreBasis", "integrate_single_pass", "numerical_stage_map", "identity_map",
        "propagate_covariance",
    )
    for name in removed:
        assert name not in holomem.__all__
        assert not hasattr(holomem, name)


# pytest has imported every module already, so the loading contract is
# checked in fresh interpreters.  Each script prints the numpy and holomem
# modules it holds at the end.
_LOADED = (
    "\nimport sys\n"
    "print(*sorted(m for m in sys.modules if m == 'numpy' or m.partition('.')[0] == 'holomem'))"
)


def _fresh(code: str, cwd=None) -> tuple[list[str], list[str]]:
    """The stdout lines of code, and the modules loaded at its end, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(holomem.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code + _LOADED], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    return printed, loaded.split()


@pytest.mark.parametrize(
    "code",
    [
        "import holomem",
        "import holomem; assert holomem.__version__ == '0.1.0'",
        "import holomem; assert set(holomem.__all__) <= set(dir(holomem))",
        "import holomem\n"
        "try:\n    holomem.nope\n"
        "except AttributeError as exc:\n    assert 'holomem' in str(exc), exc\n"
        "else:\n    raise AssertionError('holomem.nope resolved')",
    ],
    ids=["import", "version", "dir", "unknown-name"],
)
def test_package_attributes_load_no_submodule(code):
    assert _fresh(code) == ([], ["holomem"])


def test_a_public_name_loads_only_its_module_and_what_it_imports():
    code = "import holomem; assert holomem.protocol.full_cycle is holomem.full_cycle"
    _, loaded = _fresh(code)
    assert "holomem.protocol" in loaded
    assert "holomem.oracle" not in loaded


def test_only_oracle_verify_loads_the_oracle(tmp_path):
    code = (
        "import sys\n"
        "from holomem.cli import main\n"
        "for argv in (['maps'], ['fidelity'], ['sweep-kappa', '--kappa-points', '3'],\n"
        "             ['squeeze-sweep', '--r-points', '3']):\n"
        "    assert main([*argv, '--out', 'run.out']) == 0, argv\n"
        "print('oracle loaded:', 'holomem.oracle' in sys.modules)\n"
        "assert main(['oracle-verify', '--out', 'run.out']) == 0"
    )
    printed, loaded = _fresh(code, cwd=tmp_path)
    assert printed[0] == "oracle loaded: False"
    assert "holomem.oracle" in loaded


def test_canonical_commands_never_load_argparse(tmp_path):
    # argparse serves only --help and argument errors; these are the
    # README invocations
    code = (
        "import sys\n"
        "from holomem.cli import main\n"
        "for argv in (['maps', '--kappa', '1.0'],\n"
        "             ['fidelity', '--pixels', '10', '--squeeze-r', '0.5'],\n"
        "             ['sweep-kappa', '--kappa-min', '0', '--kappa-max', '1.4'],\n"
        "             ['squeeze-sweep', '--r-min', '0', '--r-max', '10', '--r-points', '101'],\n"
        "             ['oracle-verify', '--grating-periods', '100', '--z-per-period', '40',\n"
        "              '--tolerance', '0.01']):\n"
        "    assert main([*argv, '--out', 'run.out']) == 0, argv\n"
        "print('argparse loaded:', 'argparse' in sys.modules)\n"
        "try:\n    main(['fidelity', '--help'])\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "print('argparse loaded:', 'argparse' in sys.modules)"
    )
    printed, _ = _fresh(code, cwd=tmp_path)
    loaded = [line for line in printed if line.startswith("argparse loaded:")]
    assert loaded == ["argparse loaded: False", "argparse loaded: True"]
