"""SHA-256 of every output of twenty-four reference holomem CLI runs.

Each invocation runs in a fresh `python -m holomem.cli` process, from the
`src` directory of the checkout given as the only argument (by default the
one holding this script), with `COLUMNS=80`.  Eighteen runs have `--out`
set: fifteen compute runs, then three argvs that argparse reads (a
joined abbreviation, a negative value that exits 1, and an invalid integer
that exits 2).  The other six print the parser texts, which are built from
the CLI's defaults: `holomem --help` and each command's `--help`.  One
line is printed per output: the digest, the invocation's number, its exit
code, and which output it is (data file, `.meta.json` sidecar, stdout,
stderr).  Output is byte-identical only at a fixed BLAS thread count, so
a header names Python, numpy and the thread settings first.  Two
checkouts give the same outputs when their printed lines are the same.
The line count of the checkout's `src/holomem` goes to stderr, so it
stays out of the diff:

    python tools/output_digests.py > after.txt
    python tools/output_digests.py ../parent > before.txt
    diff before.txt after.txt

`tests/data/output_digests.txt` holds the lines of this checkout at one
thread, which `tests/test_output_digests.py` reproduces; after a change
that moves an output, rewrite it with

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python tools/output_digests.py > tests/data/output_digests.txt
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The five README invocations, then the larger cases: order 60,
# `sweep-kappa --order-max 2` (whose data file is invocation 3's: the
# retrieved light is built at order 4 whatever the flag), oracle grids at
# other orders, couplings and periods, 10^6 pixels and squeezing r = 10, a
# few-layer oracle grid, whose note goes to stderr, and maps and a sweep up
# to the largest coupling admitted, kappa = 100.  The last three take
# argparse's route rather than the flag table's.
INVOCATIONS = (
    ("maps", "--kappa", "1.0"),
    ("fidelity", "--pixels", "10", "--squeeze-r", "0.5"),
    ("sweep-kappa", "--kappa-min", "0", "--kappa-max", "1.4", "--kappa-points", "141"),
    ("squeeze-sweep", "--r-min", "0", "--r-max", "10", "--r-points", "101"),
    ("oracle-verify", "--grating-periods", "100", "--z-per-period", "40", "--tolerance", "0.01"),
    ("maps", "--kappa", "0.7", "--order-max", "60"),
    ("sweep-kappa", "--order-max", "2"),
    ("oracle-verify", "--order-max", "20", "--grating-periods", "300"),
    ("oracle-verify", "--kappa", "1.13"),
    ("oracle-verify", "--order-max", "60", "--grating-periods", "1000"),
    ("fidelity", "--pixels", "1000000", "--squeeze-r", "10"),
    ("squeeze-sweep", "--pixels", "1000000"),
    ("oracle-verify", "--grating-periods", "10", "--z-per-period", "20", "--tolerance", "0.5"),
    ("maps", "--kappa", "100"),
    ("sweep-kappa", "--kappa-min", "0", "--kappa-max", "100", "--kappa-points", "11"),
    ("fidelity", "--pix=3"),
    ("maps", "--kappa", "-0.5"),
    ("fidelity", "--pixels", "many"),
)
COMMANDS = ("maps", "fidelity", "sweep-kappa", "squeeze-sweep", "oracle-verify")
HELP_INVOCATIONS = (("--help",), *((command, "--help") for command in COMMANDS))
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def header(env: dict[str, str]) -> list[str]:
    """The environment the digests hold for: Python, numpy and the thread settings in env."""
    return [
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        *(f"{name}={env.get(name, '(unset)')}" for name in THREAD_SETTINGS),
    ]


def fresh_env(checkout: Path) -> dict[str, str]:
    """The environment of a fresh process running the checkout's CLI."""
    # argparse wraps help text to COLUMNS.
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")


def arguments(number: int, invocation: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The CLI argv of invocation `number`, and the files it writes."""
    if invocation in HELP_INVOCATIONS:
        return invocation, ()
    # A relative --out in a fresh directory keeps paths out of the output.
    out = f"run{number}.out"
    return (*invocation, "--out", out), (out, f"{out}.meta.json")


def run_fresh(argv: tuple[str, ...], work: str, env: dict[str, str]) -> subprocess.Popen:
    """The CLI on argv in a fresh process, started in work; communicate() gives its output."""
    return subprocess.Popen(
        [sys.executable, "-m", "holomem.cli", *argv],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def report(number: int, invocation: tuple[str, ...], code: int, stdout: bytes,
           stderr: bytes, work: str) -> list[str]:
    """The printed lines of one invocation, from its exit code, output and files in work."""
    lines = [f"# {number}: holomem {' '.join(invocation)} -> exit {code}"]
    outputs = {"stdout": stdout, "stderr": stderr}
    for name in arguments(number, invocation)[1]:
        path = Path(work, name)
        outputs[name] = path.read_bytes() if path.exists() else b"(missing)"
    for name, data in outputs.items():
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {number} {name}")
    return lines


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = fresh_env(checkout)
    package = sorted((checkout / "src" / "holomem").glob("*.py"))
    lines = sum(len(path.read_bytes().splitlines()) for path in package)
    print(f"src/holomem: {lines} lines in {len(package)} files", file=sys.stderr)
    print("\n".join(header(env)))
    with tempfile.TemporaryDirectory() as work:
        for number, invocation in enumerate(INVOCATIONS + HELP_INVOCATIONS, 1):
            proc = run_fresh(arguments(number, invocation)[0], work, env)
            stdout, stderr = proc.communicate()
            print("\n".join(report(number, invocation, proc.returncode, stdout, stderr, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
