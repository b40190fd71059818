"""Spans around holomem's public callables, recorded from outside the package.

A Tracer wraps each listed callable in every holomem namespace that bound
it (cli imports full_cycle by name, protocol imports compose, ...), records
one span per call in memory, and puts the originals back when the traced
call ends.  A span's self time is its duration minus the time covered by
its traced children.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Layer -> public callables timed in it.  "Class.method" entries are
# patched on the class; "__init__" is reported as "init".
TRACED = {
    "basis": ("project_onto_basis", "theta", "q_matrix"),
    "algebra": ("compose", "LinearInOutMap.__init__", "LinearInOutMap.embedded"),
    "protocol": ("single_pass", "double_pass_write", "full_cycle", "extract_noise"),
    "fidelity": ("noise_covariance", "PixelNoiseModel.__init__", "fidelity_from_covariance"),
    "oracle": ("extract_map", "compare", "OracleResult.light_commutator"),
}
ROOT_SPAN = "cli.main"


def metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('__init__', 'init')}"


SPAN_NAMES = (ROOT_SPAN,) + tuple(
    metric_name(layer, attr) for layer, attrs in TRACED.items() for attr in attrs
)


@dataclass(frozen=True)
class Span:
    invocation: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    self_s: float


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._next_id = 0
        # [span_id, time covered by children] for each open span.
        self._open: list[list] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = self._open[-1][0] if self._open else None
            self._open.append([span_id, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, covered = self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans.append(
                    Span(self.invocation, span_id, parent_id, name, start, end, end - start - covered)
                )

        return traced

    @contextmanager
    def installed(self, cli_module):
        """Patch every traced callable for the duration of one invocation.

        Yields the traced cli.main.  Callables missing from this version of
        the package are skipped and report zero calls.
        """
        self.invocation += 1
        holomem_modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "holomem" or key.startswith("holomem."))
        ]
        patched = []  # (owner, attribute, original)
        try:
            for layer, attrs in TRACED.items():
                module = sys.modules.get(f"holomem.{layer}")
                for attr in attrs:
                    owner_name, _, method = attr.rpartition(".")
                    if owner_name:
                        owner = getattr(module, owner_name, None)
                        original = owner and owner.__dict__.get(method)
                        if original is None:
                            continue
                        wrapped = self.wrap(metric_name(layer, attr), original)
                        setattr(owner, method, wrapped)
                        patched.append((owner, method, original))
                        continue
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    wrapped = self.wrap(metric_name(layer, attr), original)
                    for mod in holomem_modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
                                patched.append((mod, key, original))
            yield self.wrap(ROOT_SPAN, cli_module.main)
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    def per_invocation(self) -> dict[int, dict[str, list[float]]]:
        """invocation -> span name -> [calls, total_s, self_s]."""
        table: dict[int, dict[str, list[float]]] = {}
        for span in self.spans:
            row = table.setdefault(span.invocation, {}).setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += span.self_s
        return table

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]
