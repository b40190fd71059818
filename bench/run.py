#!/usr/bin/env python3
"""holomem benchmark: cold-CLI and warm-call time, memory and output checks.

Run from the root of a checkout (nothing needs installing; the package is
imported from src/):

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is one holomem CLI invocation, measured two ways by this
process, which runs one child at a time:

* cold: a fresh `holomem` process, as a CLI user pays for it (wall_s,
  peak_rss_mb), plus setup_s, a fresh interpreter running `import holomem`;
* warm: holomem.cli.main(argv) called after one warm-up call in the same
  process, as a library user in a live session pays for it (compute_s);
  see warm.py for why these calls run in short-lived worker processes.

--trace 1 is a separate run: it splits `import holomem` with -X importtime
and times holomem's public callables with spans (see spans.py), alternating
traced and untraced warm calls in this process to measure the tracing
overhead.

Every invocation's data file is checked against closed forms and against
the first invocation's bytes; failures are counted, never dropped.  Tables
go to stdout, the full record (environment, samples, spans) to
.bench_build/holomem/, and the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import ROOT_SPAN, SPAN_NAMES, TRACED, Tracer
from warm import timed_call
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "holomem"

IMPORT_REPS = 3
MIN_SAMPLES = 3
WARM_REPS = 2
CHILD_TIMEOUT_S = 120
MAX_SECONDS = 60

CLI_BOOT = "import sys; from holomem.cli import console_main; sys.argv[0] = 'holomem'; console_main()"
IMPORT_GROUPS = ("numpy", "scipy", "holomem")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class ChildRun:
    seconds: float
    exit_code: int
    peak_rss_mb: float


def run_child(args: list[str], log_path: Path) -> ChildRun:
    """Run `python args` to completion; wall time and peak RSS via wait4."""
    with open(log_path, "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(seconds, proc.returncode, usage.ru_maxrss * 1024 / 1e6)


def load_cli():
    """Import holomem.cli into this process from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import holomem.cli

    if Path(holomem.cli.__file__).resolve().parent != (SRC / "holomem").resolve():
        raise BenchError(f"holomem imported from {holomem.cli.__file__}, not from {SRC}")
    return holomem.cli


# --- environment ---------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    info = {"library": "unknown", "threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["library"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                break
    return info


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_holomem_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "holomem").rglob("*.py"))
        ),
    }


# --- invocations and checks ----------------------------------------------


@dataclass
class Ledger:
    """Every CLI invocation of a run and its verdict."""

    workload: Workload
    argv: list[str]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reference: bytes | None = None
    max_rel_dev: float = 0.0
    output_bytes: int = 0

    def record(self, mode: str, exit_code: int, data_path: Path) -> None:
        self.attempted += 1
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        data = data_path.read_bytes() if data_path.is_file() else None
        if data is None:
            problems.append("no data file")
        else:
            try:
                check = self.workload.check(self.argv, data)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable data file: {exc!r}")
            else:
                problems.extend(check.problems)
                if check.max_rel_dev is not None:
                    self.max_rel_dev = max(self.max_rel_dev, check.max_rel_dev)
            if self.reference is None:
                self.reference = data
                self.output_bytes = len(data)
            elif data != self.reference:
                problems.append("data file differs from the first invocation's")
        if problems:
            self.failures.append(f"{mode} invocation {self.attempted}: " + "; ".join(problems))


def cold_call(ledger: Ledger, workdir: Path) -> ChildRun:
    data_path = workdir / ("cold" + ledger.workload.data_suffix)
    data_path.unlink(missing_ok=True)
    run = run_child(["-c", CLI_BOOT, *ledger.argv, "--out", str(data_path)], workdir / "cold.log")
    ledger.record("cold", run.exit_code, data_path)
    return run


def warm_call(ledger: Ledger, workdir: Path, main) -> float:
    """Time one main(argv) in this process (traced runs only); check it."""
    data_path = workdir / ("warm" + ledger.workload.data_suffix)
    data_path.unlink(missing_ok=True)
    seconds, code, output = timed_call(main, ledger.argv, str(data_path))
    if code != 0:
        (workdir / "warm.log").write_text(output)
    ledger.record("warm", code, data_path)
    return seconds


def warm_worker(ledger: Ledger, workdir: Path) -> list[float]:
    """Times of WARM_REPS warm calls in a fresh worker, after its warm-up call."""
    prefix = workdir / "warm-"
    paths = [Path(f"{prefix}{i}") for i in range(WARM_REPS + 1)]
    for path in paths:
        path.unlink(missing_ok=True)
    log = workdir / "warm.log"
    run = run_child([str(BENCH / "warm.py"), str(prefix), str(WARM_REPS), *ledger.argv], log)
    codes, seconds = [run.exit_code] * len(paths), []
    if run.exit_code == 0:
        report = json.loads(log.read_text().splitlines()[-1])
        codes, seconds = report["codes"], report["seconds"]
    for code, path in zip(codes, paths):
        ledger.record("warm", code, path)
    return seconds


def collect(seconds: float, steps) -> None:
    """Call the steps in turn until `seconds` have passed, MIN_SAMPLES times at least.

    The order flips every round (ABBA), so neither step always runs first.
    """
    deadline = perf_counter() + seconds
    count = 0
    while count < MIN_SAMPLES or perf_counter() < deadline:
        for step in steps if count % 2 == 0 else reversed(steps):
            step()
        count += 1


# --- the two kinds of run -------------------------------------------------


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def setup_call(workdir: Path) -> float:
    """Wall time of a fresh interpreter running `import holomem`."""
    run = run_child(["-c", "import holomem"], workdir / "setup.log")
    if run.exit_code != 0:
        log = (workdir / "setup.log").read_text(errors="replace")
        raise BenchError(f"`import holomem` failed with exit code {run.exit_code}:\n{log}")
    return run.seconds


def end_to_end_run(ledger: Ledger, workdir: Path, seconds: float) -> tuple[dict, dict]:
    samples = {"setup_s": [], "wall_s": [], "compute_s": [], "peak_rss_mb": []}
    setup_call(workdir)  # warm-up: byte-code and page caches

    def setup():
        samples["setup_s"].append(setup_call(workdir))

    def cold():
        run = cold_call(ledger, workdir)
        samples["wall_s"].append(run.seconds)
        samples["peak_rss_mb"].append(run.peak_rss_mb)

    def warm():
        samples["compute_s"].extend(warm_worker(ledger, workdir))

    collect(seconds, [setup, cold, warm])
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of `import holomem` by group: numpy, scipy, holomem itself.

    Each module's self time goes to the innermost enclosing import that is
    numpy, scipy or holomem, so a stdlib module pulled in by scipy counts
    as scipy.  The tree is printed children-first, so walk it backwards.
    """
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)) * 1e-6, len(m.group(2)) // 2, m.group(3)))
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    group_at_depth: list[str | None] = []
    for self_s, depth, name in reversed(entries):
        top = name.split(".")[0]
        parent = group_at_depth[depth - 1] if 0 < depth <= len(group_at_depth) else None
        group = top if top in totals else parent
        del group_at_depth[depth:]
        group_at_depth.append(group)
        if group is not None:
            totals[group] += self_s
    return totals


def import_split(workdir: Path) -> dict[str, float]:
    parts = {group: [] for group in IMPORT_GROUPS}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import holomem"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"`import holomem` failed:\n{proc.stderr[-2000:]}")
        for group, value in parse_importtime(proc.stderr).items():
            parts[group].append(value)
    return {
        "import.numpy_s": statistics.median(parts["numpy"]),
        "import.scipy_s": statistics.median(parts["scipy"]),
        "import.holomem_self_s": statistics.median(parts["holomem"]),
    }


def traced_run(ledger: Ledger, workdir: Path, cli, seconds: float) -> tuple[dict, dict]:
    metrics = import_split(workdir)
    tracer = Tracer()
    untraced, traced = [], []
    warm_call(ledger, workdir, cli.main)

    def plain():
        untraced.append(warm_call(ledger, workdir, cli.main))

    def instrumented():
        with tracer.installed(cli) as traced_main:
            traced.append(warm_call(ledger, workdir, traced_main))

    collect(seconds, [plain, instrumented])

    table = tracer.per_invocation()
    invocations = sorted(table)
    for name in SPAN_NAMES:
        rows = [table[i].get(name, [0, 0.0, 0.0]) for i in invocations]
        for k, stat in enumerate(("calls", "total_s", "self_s")):
            if name != ROOT_SPAN or stat != "calls":
                metrics[f"{name}.{stat}"] = statistics.median(row[k] for row in rows)
    for layer, attrs in TRACED.items():
        prefix = layer + "."
        metrics[f"layer.{layer}.self_s"] = statistics.median(
            sum(row[2] for name, row in table[i].items() if name.startswith(prefix))
            for i in invocations
        )
    cycles = tracer.durations("protocol.full_cycle")
    metrics["protocol.full_cycle.samples"] = len(cycles)
    metrics["protocol.full_cycle.p50_s"] = percentile(cycles, 50)
    metrics["protocol.full_cycle.p90_s"] = percentile(cycles, 90)
    metrics["cli.output_bytes"] = ledger.output_bytes
    metrics["verify.max_rel_dev"] = ledger.max_rel_dev
    metrics["trace.samples"] = len(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    samples = {"untraced_compute_s": untraced, "traced_compute_s": traced,
               "spans": [span.__dict__ for span in tracer.spans]}
    return metrics, samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- reporting -----------------------------------------------------------

PER_LAYER_UNITS = {"calls": "count", "samples": "count", "output_bytes": "B",
                   "max_rel_dev": "ratio", "overhead_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def print_report(workload: Workload, seed: int, trace: bool, ledger: Ledger,
                 metrics: dict, samples: dict, env: dict) -> None:
    verdict = "PASS" if not ledger.failures else "FAIL"
    print(f"== {workload.name}  seed {seed}  trace {int(trace)}")
    print("   holomem " + " ".join(ledger.argv))
    blas = env["blas"]
    print(f"   git {env['git_sha'][:12]}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {blas['library']} x{blas['threads']} threads  "
          f"nproc {env['nproc']}  src/holomem {env['src_holomem_lines']} lines")
    print(f"   verify: {verdict}  attempted {ledger.attempted}  failed {len(ledger.failures)}  "
          f"failed_frac {len(ledger.failures) / ledger.attempted:.4g}  "
          f"max_rel_dev {ledger.max_rel_dev:.4g}")
    for failure in ledger.failures[:10]:
        print("   ! " + failure)
    if trace:
        print(f"   per-layer medians over {metrics['trace.samples']} traced calls "
              f"(times are per cli.main call):")
    for name, value in metrics.items():
        detail = ""
        if not trace:
            s = summary(samples[name])
            detail = f"  median of {s['n']}, min {s['min']:.6g}, max {s['max']:.6g}"
        print(f"   {name:<44} {value:>12.6g} {unit_of(name):<6}{detail}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, cli,
                 env: dict) -> tuple[Ledger, dict]:
    ledger = Ledger(workload, workload.argv(random.Random(seed)))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, samples = traced_run(ledger, workdir, cli, seconds)
        else:
            metrics, samples = end_to_end_run(ledger, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(workload, seed, trace, ledger, metrics, samples, env)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "argv": ledger.argv, "environment": env, "attempted": ledger.attempted,
              "failures": ledger.failures, "metrics": metrics, "samples": samples}
    record_path = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record) + "\n")
    return ledger, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"measuring time per workload, at most {MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS}]")

    try:
        if not (SRC / "holomem" / "__init__.py").is_file():
            raise BenchError(f"no holomem package under {SRC}")
        # Untraced runs time holomem only in child processes.
        cli = load_cli() if args.trace else None
        env = environment()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            ledger, result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace), cli, env)
            attempted += ledger.attempted
            failed += len(ledger.failures)
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in result.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
