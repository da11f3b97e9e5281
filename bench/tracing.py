"""Spans around the calls into each qgas layer, recorded from outside.

The benchmark wraps public functions at the attribute their caller
resolves, so qgas itself is unchanged: for example ``protocol.execute``
calls ``thermo.mix`` through the module, so ``qgas.thermo.mix`` is wrapped,
while ``protocol`` imported ``optimal_separation_povm`` by name, so the
name inside ``qgas.protocol`` is wrapped.  Spans stay in memory as
(name, start_ns, end_ns, parent, run) tuples and are written out at the
end; counts are the number of spans of a name, taken at the same
boundaries as the times.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

#: span name -> ("module[:class]", attribute) wrapped for it
TARGETS = {
    "protocol.parse": ("qgas.protocol", "parse"),
    "protocol.execute": ("qgas.protocol", "execute"),
    "thermo.separate": ("qgas.thermo", "separate"),
    "thermo.mix": ("qgas.thermo", "mix"),
    "thermo.rotate": ("qgas.thermo", "rotate"),
    "thermo.partition": ("qgas.thermo", "partition"),
    "thermo.join": ("qgas.thermo", "join"),
    "thermo.canonical_contents": ("qgas.protocol", "canonical_contents"),
    "quantum.optimal_separation_povm": ("qgas.protocol", "optimal_separation_povm"),
    "quantum.statmat": ("qgas.quantum:StatisticalMatrix", "__post_init__"),
    "quantum.povm": ("qgas.quantum:Povm", "__post_init__"),
    "linalg.hermitian_eig": ("qgas.linalg", "hermitian_eig"),
    "observers.build_observer": ("qgas.protocol", "build_observer"),
    "observers.lift_through": ("qgas.protocol", "lift_through"),
    "observers.view": ("qgas.cli", "view"),
    "observers.coarse_grain": ("qgas.observers", "coarse_grain"),
    # audit verdicts and assert-closed steps both test equivalence
    "observers.equivalence": ("qgas.audit", "states_equivalent"),
    "observers.equivalence_mismatch": ("qgas.protocol", "equivalence_mismatch"),
    "audit.audit": ("qgas.protocol", "run_audit"),
}

ROOT = "cli.run_command"
STEPS = ("separate", "mix", "rotate", "partition", "join")


def _resolve(path: str):
    # modules by import, not attribute: the package's ``audit`` attribute
    # is the function, not the module
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder.  ``install`` patches every target and
    returns a function that puts the originals back."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)

        return traced

    def install(self):
        saved = []
        for name, (path, attr) in TARGETS.items():
            owner = _resolve(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for name, start, end, parent, run in self.spans:
                out.write(json.dumps([name, start, end, parent, run]) + "\n")


def summarize(spans, runs: int) -> dict[str, float]:
    """Per-run totals of each span name: ``<name>.ms`` (inclusive),
    ``<name>.self_ms`` (minus child spans) and ``<name>.calls``."""
    total = defaultdict(int)
    child = defaultdict(int)
    calls = defaultdict(int)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[spans[parent][0]] += end - start
    out = {}
    for name in calls:
        out[f"{name}.ms"] = total[name] / 1e6 / runs
        out[f"{name}.self_ms"] = (total[name] - child[name]) / 1e6 / runs
        out[f"{name}.calls"] = calls[name] / runs
    return out


def layer_metrics(summary: dict[str, float]) -> dict[str, float]:
    """The benchmark's per-layer metrics from a ``summarize`` result; a
    layer that the workload never entered reads 0."""
    def get(key):
        return summary.get(key, 0.0)

    parse_ms = get("protocol.parse.ms")
    execute_ms = get("protocol.execute.ms")
    out = {
        "protocol.parse_ms": parse_ms,
        "protocol.execute_self_ms": get("protocol.execute.self_ms"),
        "thermo.canonical_contents_ms": get("thermo.canonical_contents.ms"),
        "quantum.statmat_new": get("quantum.statmat.calls"),
        "quantum.statmat_ms": get("quantum.statmat.ms"),
        "quantum.povm_new": get("quantum.povm.calls"),
        "quantum.optimal_separation_povm_ms":
            get("quantum.optimal_separation_povm.ms"),
        "linalg.hermitian_eig_calls": get("linalg.hermitian_eig.calls"),
        "linalg.hermitian_eig_ms": get("linalg.hermitian_eig.ms"),
        "observers.build_observer_ms": get("observers.build_observer.ms"),
        "observers.view_ms": get("observers.view.ms"),
        "observers.coarse_grain_calls": get("observers.coarse_grain.calls"),
        "observers.equivalence_ms": get("observers.equivalence.ms")
        + get("observers.equivalence_mismatch.ms"),
        "observers.lift_through_ms": get("observers.lift_through.ms"),
        "audit.audit_ms": get("audit.audit.ms"),
        "audit.verdicts": get("audit.audit.calls"),
        "cli.render_ms": get(f"{ROOT}.ms") - parse_ms - execute_ms,
    }
    for step in STEPS:
        out[f"thermo.{step}_ms"] = get(f"thermo.{step}.ms")
        out[f"thermo.{step}_calls"] = get(f"thermo.{step}.calls")
    return out
