"""The byte-identity gate: every output of the reference CLI runs, as recorded.

tools/output_digests.py prints the SHA-256 of each output of twenty-four
reference invocations; tests/data/output_digests.txt holds its lines for
this checkout at one BLAS thread.  Here the compute invocations run
in-process through holomem.cli.main, at this process's thread count, and a
fresh process at one thread runs only what needs one: the help texts and
the argparse error (argparse formats them for COLUMNS and exits), and the
two oracle grids whose bytes move with the thread count (invocations 8 and
10).  A change that moves an output rewrites the recorded lines, as the
tool's docstring says, and so shows each moved digest in its diff.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from holomem.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("data") / "output_digests.txt"
FRESH = {8, 10, 18, 19, 20, 21, 22, 23, 24}


def load_tool():
    path = ROOT / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    tool = load_tool()
    invocations = tool.INVOCATIONS + tool.HELP_INVOCATIONS
    env = dict(tool.fresh_env(ROOT), **{name: "1" for name in tool.THREAD_SETTINGS})
    header = tool.header(env)
    recorded = RECORDED.read_text().splitlines()
    # another Python, numpy or thread count may move last digits: a failure
    # that names the difference, never a skip
    mismatches = [f"recorded {old!r}, running {new!r}"
                  for old, new in zip(recorded, header) if old != new]
    assert not mismatches, f"{RECORDED.name} is from another environment: {mismatches}"

    monkeypatch.chdir(tmp_path)
    work = str(tmp_path)
    lines = list(header)
    with contextlib.ExitStack() as stack:
        # the fresh processes run while the rest runs here
        fresh = {number: stack.enter_context(
                     tool.run_fresh(tool.arguments(number, invocations[number - 1])[0], work, env))
                 for number in sorted(FRESH)}
        for number, invocation in enumerate(invocations, 1):
            if number in FRESH:
                stdout, stderr = fresh[number].communicate()
                code = fresh[number].returncode
            else:
                code, stdout, stderr = run_in_process(tool.arguments(number, invocation)[0])
            lines += tool.report(number, invocation, code, stdout, stderr, work)
    assert lines == recorded
