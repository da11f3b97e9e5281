"""Per-step Clausius balance for every observer: where an apparent violation
happens in time.

For an observer O, S_O(lab) = sum over chambers of n ln(V/n) + n S(Phi_O(rho)),
with R = 1, Phi_O the observer's coarse-graining (``view``), S the von
Neumann entropy and 0 ln 0 = 0.  A step's excess for O is
e_O = Q/T - dS_O.

- The lab's identity observer, the full description, never has a positive
  excess: mix, rotate and partition give equality, join has Q = 0 and
  dS >= 0, and a separation cannot release less heat than its entropy drop.
- Over a span that O sees closed, S_O returns to its start, so the excesses
  sum to the span's Q/T: an apparent violation is a sum of positive
  excesses, each at a step where membranes told apart what O cannot.

Each protocol is executed once per prefix of its steps, which gives the lab
after every step; the entropy is computed here, not by qgas, whose verdict
rule stays entropy-free.
"""

import dataclasses
import math

import numpy as np
import pytest

from util import generated_sources
from qgas.audit import audit
from qgas.observers import identity_observer, view
from qgas.protocol import DEMO_NAMES, demo_source, execute, parse

SOURCES = {name: demo_source(name) for name in DEMO_NAMES} | {
    "eigen-d8": generated_sources("eigen-d8", 1)[0]}

# (observer, step) -> excess, for every excess above 1e-12 n
POSITIVE = {
    "peres-tatiana": {("tatiana", 1): 0.2766516},
    "peres-willard": {("tatiana", 1): 0.2766516},
    "jaynes-johann": {("johann", 1): 0.6931472},
    "jaynes-marie": {("johann", 1): 0.6931472},
}


def entropy(obs, lab):
    """S_O of the lab, with R = 1."""
    s = 0.0
    for ch in view(obs, lab).chambers.values():
        if ch.state is not None:
            w = np.linalg.eigvalsh(ch.state.matrix)
            w = w[w > 0]
            s += ch.moles * (math.log(ch.volume / ch.moles) - float(w @ np.log(w)))
    return s


@pytest.mark.parametrize("name", SOURCES)
def test_every_step_balances(name):
    ast = parse(SOURCES[name])
    # runs[k] has executed the first k steps
    runs = [execute(dataclasses.replace(ast, steps=ast.steps[:k]))
            for k in range(len(ast.steps) + 1)]
    full = runs[-1]
    lab = full.final_state
    n, t = lab.total_moles(), lab.temperature
    q = [0.0] * len(ast.steps)
    for event in full.ledger.events:
        q[event.step_index] += event.heat_absorbed_by_gas
    observers = {**full.observers, "identity": identity_observer(lab.lab_dim)}
    positive = {}
    closed_spans = 0
    for obs_name, obs in observers.items():
        s = [entropy(obs, run.final_state) for run in runs]
        excess = [qi / t - (s[i + 1] - s[i]) for i, qi in enumerate(q)]
        if obs_name == "identity":
            assert max(excess) <= 1e-12 * n
        positive |= {(obs_name, i): e for i, e in enumerate(excess) if e > 1e-12 * n}
        # every span from a checkpoint to the lab after a later step
        for label, checkpoint in full.ledger.checkpoints.items():
            for k in range(checkpoint.step_index + 1, len(runs)):
                verdict = audit(runs[k].ledger, obs, label, runs[k].final_state)
                if verdict.cycle_closed:
                    closed_spans += 1
                    span = sum(excess[checkpoint.step_index:k])
                    assert abs(span - verdict.q_over_t) <= 1e-12 * n
    assert closed_spans > 0
    assert positive.keys() == POSITIVE.get(name, {}).keys()
    for key, e in POSITIVE.get(name, {}).items():
        assert positive[key] == pytest.approx(e, abs=1e-7)
