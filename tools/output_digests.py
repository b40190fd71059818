"""SHA-256 of every output of twenty-two reference holomem CLI runs.

Each invocation runs in a fresh `python -m holomem.cli` process, from the
`src` directory of the checkout given as the only argument (by default the
one holding this script), with `COLUMNS=80`.  Sixteen runs have `--out`
set: thirteen compute runs, then three argvs that argparse reads (a
joined abbreviation, a negative value that exits 1, and an invalid integer
that exits 2).  The other six print the parser texts, which are built from
the CLI's defaults: `holomem --help` and each command's `--help`.  One
line is printed per output: the digest, the invocation's number, its exit
code, and which output it is (data file, `.meta.json` sidecar, stdout,
stderr).  Output is byte-identical only at a fixed BLAS thread count, so
the thread settings are printed first.  Two checkouts give the same
outputs when their printed lines are the same.  The line count of the
checkout's `src/holomem` goes to stderr, so it stays out of the diff:

    python tools/output_digests.py > after.txt
    python tools/output_digests.py ../parent > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The five README invocations, then the larger cases: order 60, a sweep at
# order 30, oracle grids at other orders, couplings and periods, the
# cached noise route at order 60, 10^6 pixels and squeezing r = 10, and a
# few-layer oracle grid, whose note goes to stderr.  The last three take
# argparse's route rather than the flag table's.
INVOCATIONS = (
    ("maps", "--kappa", "1.0"),
    ("fidelity", "--pixels", "10", "--squeeze-r", "0.5"),
    ("sweep-kappa", "--kappa-min", "0", "--kappa-max", "1.4", "--kappa-points", "141"),
    ("squeeze-sweep", "--r-min", "0", "--r-max", "10", "--r-points", "101"),
    ("oracle-verify", "--grating-periods", "100", "--z-per-period", "40", "--tolerance", "0.01"),
    ("maps", "--kappa", "0.7", "--order-max", "60"),
    ("sweep-kappa", "--order-max", "30"),
    ("oracle-verify", "--order-max", "20", "--grating-periods", "300"),
    ("oracle-verify", "--kappa", "1.13"),
    ("oracle-verify", "--order-max", "60", "--grating-periods", "1000"),
    ("fidelity", "--order-max", "60", "--pixels", "1000000", "--squeeze-r", "10"),
    ("squeeze-sweep", "--order-max", "30", "--pixels", "1000000"),
    ("oracle-verify", "--grating-periods", "10", "--z-per-period", "20", "--tolerance", "0.5"),
    ("fidelity", "--pix=3"),
    ("maps", "--kappa", "-0.5"),
    ("fidelity", "--pixels", "many"),
)
COMMANDS = ("maps", "fidelity", "sweep-kappa", "squeeze-sweep", "oracle-verify")
HELP_INVOCATIONS = (("--help",), *((command, "--help") for command in COMMANDS))
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    # argparse wraps help text to COLUMNS.
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    package = sorted((checkout / "src" / "holomem").glob("*.py"))
    lines = sum(len(path.read_bytes().splitlines()) for path in package)
    print(f"src/holomem: {lines} lines in {len(package)} files", file=sys.stderr)
    for name in THREAD_SETTINGS:
        print(f"{name}={os.environ.get(name, '(unset)')}")
    with tempfile.TemporaryDirectory() as work:
        for number, invocation in enumerate(INVOCATIONS + HELP_INVOCATIONS, 1):
            # A relative --out in a fresh directory keeps paths out of the output.
            out = f"run{number}.out"
            if invocation in HELP_INVOCATIONS:
                argv, files = invocation, ()
            else:
                argv, files = (*invocation, "--out", out), (out, f"{out}.meta.json")
            proc = subprocess.run(
                [sys.executable, "-m", "holomem.cli", *argv],
                cwd=work, env=env, capture_output=True,
            )
            print(f"# {number}: holomem {' '.join(invocation)} -> exit {proc.returncode}")
            outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
            for name in files:
                path = Path(work, name)
                outputs[name] = path.read_bytes() if path.exists() else b"(missing)"
            for name, data in outputs.items():
                print(f"{hashlib.sha256(data).hexdigest()}  {number} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
