import math

import numpy as np
import pytest

from conftest import LN2, SEPARATION_HEAT, Z_PLUS
from qgas.audit import (
    APPARENT_VIOLATION,
    CONSISTENT,
    OPEN_CYCLE,
    audit,
    classify,
)
from qgas.errors import UnknownCheckpointError
from qgas.observers import identity_observer
from qgas.protocol import run_demo
from qgas.quantum import StatisticalMatrix
from qgas.thermo import Chamber, LabState, Ledger, LedgerEvent


def simple_lab():
    cell = Chamber("c", 1.0, 1.0, StatisticalMatrix(Z_PLUS))
    return LabState(1.0, [cell], 2)


def test_classification_table_fuzzed(rng):
    tol = 1e-9
    for _ in range(500):
        q = float(rng.normal(scale=0.5))
        closed = bool(rng.integers(0, 2))
        got = classify(closed, q, tol)
        if not closed:
            assert got == OPEN_CYCLE
        elif q > tol:
            assert got == APPARENT_VIOLATION
        else:
            assert got == CONSISTENT


def test_audit_totals_span_after_checkpoint():
    lab = simple_lab()
    ledger = Ledger()
    ledger.checkpoint("start", lab, 0)
    ledger.append(LedgerEvent(1, "mix", 0.4, "m"))
    ledger.checkpoint("mid", lab, 2)
    ledger.append(LedgerEvent(3, "separate", -0.1, "s"))
    obs = identity_observer(2)
    verdict = audit(ledger, obs, "start", lab)
    assert verdict.q_total == pytest.approx(0.3, abs=1e-15)
    assert verdict.cycle_closed
    assert verdict.classification == APPARENT_VIOLATION
    with pytest.raises(UnknownCheckpointError):
        audit(ledger, obs, "missing", lab)


def test_audit_additive_over_intermediate_checkpoint(rng):
    lab = simple_lab()
    ledger = Ledger()
    ledger.checkpoint("c1", lab, 0)
    step = 1
    for _ in range(7):
        ledger.append(
            LedgerEvent(step, "mix", float(rng.normal()), "e")
        )
        step += 1
    ledger.checkpoint("c2", lab, step)
    step += 1
    for _ in range(5):
        ledger.append(
            LedgerEvent(step, "separate", float(rng.normal()), "e")
        )
        step += 1
    total = ledger.q_total_since("c1")
    split = ledger.q_total_since("c2")
    first = sum(
        e.heat_absorbed_by_gas for e in ledger.events_since("c1")
        if e.step_index <= ledger.resolve("c2").step_index
    )
    assert total == pytest.approx(first + split, abs=1e-12)


def test_audit_with_different_temperature():
    cell = Chamber("c", 1.0, 1.0, StatisticalMatrix(Z_PLUS))
    lab = LabState(2.0, [cell], 2)
    ledger = Ledger()
    ledger.checkpoint("start", lab, 0)
    ledger.append(LedgerEvent(1, "mix", 1.0, "m"))
    verdict = audit(ledger, identity_observer(2), "start", lab)
    assert verdict.q_total == pytest.approx(1.0)
    assert verdict.q_over_t == pytest.approx(0.5)


def test_audit_open_when_chamber_sets_differ():
    lab = simple_lab()
    ledger = Ledger()
    ledger.checkpoint("start", lab, 0)
    other = LabState(
        1.0,
        [Chamber("d", 1.0, 1.0, StatisticalMatrix(Z_PLUS))],
        2,
    )
    verdict = audit(ledger, identity_observer(2), "start", other)
    assert verdict.classification == OPEN_CYCLE


class TestScenarioVerdicts:
    def test_coarse_audit_of_quantum_cycle(self):
        result = run_demo("peres-tatiana")
        willard, tatiana = result.verdicts
        assert tatiana.observer == "tatiana"
        assert tatiana.cycle_closed
        assert tatiana.classification == APPARENT_VIOLATION
        assert tatiana.q_over_t == pytest.approx(LN2 - SEPARATION_HEAT, abs=1e-9)
        assert willard.observer == "willard"
        assert willard.classification == OPEN_CYCLE

    def test_fine_audit_of_completed_cycle(self):
        result = run_demo("peres-willard")
        open_verdict, closed_verdict = result.verdicts
        assert open_verdict.classification == OPEN_CYCLE
        assert closed_verdict.cycle_closed
        assert closed_verdict.classification == CONSISTENT
        assert closed_verdict.q_over_t == pytest.approx(-SEPARATION_HEAT, abs=1e-9)

    def test_classical_audits(self):
        johann = run_demo("jaynes-johann").verdicts[0]
        assert johann.classification == APPARENT_VIOLATION
        assert johann.q_over_t == pytest.approx(LN2, abs=1e-9)
        marie_open, marie_closed = run_demo("jaynes-marie").verdicts
        assert marie_open.classification == OPEN_CYCLE
        assert marie_closed.classification == CONSISTENT
        assert marie_closed.q_total == pytest.approx(0.0, abs=1e-9)

