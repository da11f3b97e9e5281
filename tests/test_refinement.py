"""Refinement oracle: the lab's identity observer refines every observer.

A finer description sees every distinction a coarser one sees.  So on a
span that the identity observer sees closed, every observer sees it closed,
on the same ledger and with the same Q, and reaches the same verdict; and
every apparent violation comes with an identity observer that sees its span
open, which is how the paper resolves the Peres and Jaynes puzzles.

The six demos and both bench generators at seed 1 are executed, and every
declared observer and ``identity_observer(lab_dim)`` audits every span from
a checkpoint to the final lab.
"""

import dataclasses
from pathlib import Path

from qgas.audit import APPARENT_VIOLATION, audit
from qgas.observers import identity_observer
from qgas.protocol import DEMO_NAMES, demo_source, execute, parse


def test_the_identity_observer_refines_every_observer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    sources = [demo_source(name) for name in DEMO_NAMES] + [
        p.text for name in ("eigen-d8", "long-script")
        for p in workloads.generate(name, 1)]
    spans = violations = 0
    for source in sources:
        result = execute(parse(source))
        lab = result.final_state
        identity = identity_observer(lab.lab_dim)
        for label in result.ledger.checkpoints:
            fine = audit(result.ledger, identity, label, lab)
            for obs in result.observers.values():
                verdict = audit(result.ledger, obs, label, lab)
                spans += 1
                if fine.cycle_closed:
                    assert dataclasses.replace(verdict, observer=fine.observer) == fine
                if verdict.classification == APPARENT_VIOLATION:
                    violations += 1
                    assert not fine.cycle_closed
    assert len(sources) == 24 and spans > len(sources) and violations > 0
