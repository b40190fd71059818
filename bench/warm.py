"""Warm holomem.cli.main(argv) calls, as a library user in a live session makes them.

run.py times warm calls in fresh worker processes rather than in its own
process: one long-lived process can stay slow or fast for many seconds,
while a new worker per few calls averages that out, as the cold CLI
children do.  Run as a worker (PYTHONPATH must hold src/):

    python3 bench/warm.py OUT_PREFIX REPS holomem-argv...

makes one warm-up call and REPS timed calls, writing data files
OUT_PREFIX0 .. OUT_PREFIX<REPS>, and prints {"codes": [...], "seconds": [...]}
as its last line (codes of every call, seconds of the timed ones).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import traceback
from time import perf_counter


def timed_call(main, argv: list[str], out: str) -> tuple[float, int, str]:
    """(seconds, exit code, captured output) of one main(argv + --out out)."""
    gc.collect()  # the previous call's garbage is not this call's cost
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a lost sample
            code = -1
            traceback.print_exc(file=sink)
        seconds = perf_counter() - start
    return seconds, code, sink.getvalue()


if __name__ == "__main__":
    from holomem.cli import main

    prefix, reps, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    results = [timed_call(main, argv, f"{prefix}{i}") for i in range(reps + 1)]
    for _, code, output in results:
        if code != 0:
            sys.stderr.write(output)
    print(json.dumps({"codes": [code for _, code, _ in results],
                      "seconds": [seconds for seconds, _, _ in results[1:]]}))
