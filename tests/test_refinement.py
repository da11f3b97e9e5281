"""Refinement oracle: the lab's identity observer refines every observer.

A finer description sees every distinction a coarser one sees.  So on a
span that the identity observer sees closed, every observer sees it closed,
on the same ledger and with the same Q, and reaches the same verdict; and
every apparent violation comes with an identity observer that sees its span
open, which is how the paper resolves the Peres and Jaynes puzzles.

The six demos and both bench generators at seed 1 are executed, and every
declared observer and ``identity_observer(lab_dim)`` audits every span from
a checkpoint to the final lab.

Refinement is composition of channels: coarse-graining by O, then by Psi,
is coarse-graining by the one observer whose sectors are the products
W_j V_i of Psi's sectors W_j and O's sectors V_i.
"""

import dataclasses

import numpy as np
import pytest

from util import generated_sources, random_observer, random_state
from qgas import linalg
from qgas.audit import APPARENT_VIOLATION, audit
from qgas.observers import Observer, coarse_grain, identity_observer
from qgas.protocol import DEMO_NAMES, demo_source, execute, parse


def test_the_identity_observer_refines_every_observer():
    sources = [demo_source(name) for name in DEMO_NAMES] + [
        text for name in ("eigen-d8", "long-script")
        for text in generated_sources(name, 1)]
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


@pytest.mark.parametrize("dim", range(1, linalg.MAX_DIM + 1))
def test_coarse_graining_composes(dim):
    rng = np.random.default_rng(1600 + dim)
    for _ in range(25):
        mid, out = (int(d) for d in rng.integers(1, linalg.MAX_DIM + 1, size=2))
        first = random_observer(rng, dim, mid, int(rng.integers(-(-dim // mid), 9)))
        then = random_observer(rng, mid, out, int(rng.integers(-(-mid // out), 9)))
        composite = Observer("composite", (
            then.sector_isometries[:, None] @ first.sector_isometries[None]
        ).reshape(-1, out, dim))
        rho = random_state(rng, dim)
        gap = (coarse_grain(composite, rho).matrix
               - coarse_grain(then, coarse_grain(first, rho)).matrix)
        assert np.max(np.abs(gap)) <= 1e-14
