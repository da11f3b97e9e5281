"""Acceptance gates for the whole package.

Each test covers one numbered criterion and prints one PASS/FAIL line
(visible with ``pytest -s``).  Closed-form targets are computed exactly
from their defining expressions; tolerances only absorb floating point.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from test_protocol import MALFORMED
from util import random_orthogonal_pair, random_povm, random_state, random_unitary
from qgas import linalg, protocol
from qgas.cli import CliConfig, run_command
from qgas.errors import ParseError
from qgas.observers import build_observer, coarse_grain, identity_observer, lift_through
from qgas.quantum import Povm, StatisticalMatrix, measure
from qgas.thermo import Chamber, LabState, mix, separate

R2 = math.sqrt(2)
LN2 = math.log(2)
P_HI = (2 + R2) / 4
P_LO = (2 - R2) / 4
# heat released by the best-effort separation of the half z+ / half x+
# mixture: -(p+ ln p+ + p- ln p-) with p = (2 +- sqrt 2)/4
SEPARATION_HEAT = -(P_HI * math.log(P_HI) + P_LO * math.log(P_LO))
CYCLE_HEAT = LN2 - SEPARATION_HEAT


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_perfect_separation():
    with criterion(1, "perfect separation releases ln 2"):
        result = protocol.run_demo("perfect-separation")
        q = sum(e.heat_absorbed_by_gas for e in result.ledger.events)
        released = -q
        assert abs(released - LN2) < 1e-9
        assert round(released, 3) == 0.693


def test_criterion_2_mixture_eigenstructure():
    with criterion(2, "aggregate mixture eigenstructure"):
        aggregate = np.array([[3, 1], [1, 1]], dtype=complex) / 4
        w, v = linalg.hermitian_eig(aggregate)
        assert abs(w[0] - P_HI) < 1e-12
        assert abs(w[1] - P_LO) < 1e-12
        plus = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        minus = np.array([-math.sin(math.pi / 8), math.cos(math.pi / 8)])
        assert abs(abs(np.vdot(v[:, 0], plus)) - 1) < 1e-10
        assert abs(abs(np.vdot(v[:, 1], minus)) - 1) < 1e-10


def test_criterion_3_partial_separation():
    with criterion(3, "partial separation fractions and heat"):
        result = protocol.run_demo("partial-separation")
        volumes = sorted(
            (c.volume for c in result.final_state.chambers.values()), reverse=True
        )
        assert abs(volumes[0] - P_HI) < 1e-9
        assert abs(volumes[1] - P_LO) < 1e-9
        # agreement with the 7-digit displays of the fractions
        assert abs(volumes[0] - 0.8535534) < 1e-6
        assert abs(volumes[1] - 0.1464466) < 1e-6
        q = sum(e.heat_absorbed_by_gas for e in result.ledger.events)
        released = -q
        assert abs(released - SEPARATION_HEAT) < 1e-9
        assert abs(released - 0.4165028) < 1e-5
        assert round(released, 3) == 0.416


def test_criterion_4_coarse_observer_cycle():
    with criterion(4, "coarse observer sees a closed cycle absorbing ~0.277"):
        result = protocol.run_demo("peres-tatiana")
        verdict = result.verdicts[-1]
        assert verdict.observer == "tatiana"
        assert verdict.cycle_closed
        assert verdict.classification == "apparent_violation"
        assert abs(verdict.q_total - CYCLE_HEAT) < 1e-9
        assert abs(verdict.q_total - 0.2766444) < 1e-5
        assert round(verdict.q_total, 3) == 0.277


def test_criterion_5_fine_observer_cycle():
    with criterion(5, "fine observer: open at the coarse closure, lawful once closed"):
        result = protocol.run_demo("peres-willard")
        at_coarse_closure, completed = result.verdicts
        assert at_coarse_closure.observer == "willard"
        assert not at_coarse_closure.cycle_closed
        assert at_coarse_closure.classification == "open_cycle"
        assert completed.cycle_closed
        assert completed.classification == "consistent"
        assert abs(completed.q_total - (LN2 - SEPARATION_HEAT - LN2)) < 1e-9
        assert abs(completed.q_total - (-SEPARATION_HEAT)) < 1e-9
        assert abs(completed.q_total - (-0.4165028)) < 1e-5
        separations = [e for e in result.ledger.events if e.kind == "separate"]
        closing_cost = -sum(e.heat_absorbed_by_gas for e in separations[1:])
        assert closing_cost >= LN2 - 1e-9


def test_criterion_6_classical_demos():
    with criterion(6, "classical cycle: blind violation, informed open then zero"):
        johann = protocol.run_demo("jaynes-johann").verdicts[0]
        assert johann.classification == "apparent_violation"
        assert johann.q_over_t > 0
        assert abs(johann.q_over_t - LN2) < 1e-9
        marie_open, marie_closed = protocol.run_demo("jaynes-marie").verdicts
        assert marie_open.classification == "open_cycle"
        assert marie_closed.classification == "consistent"
        assert abs(marie_closed.q_total) < 1e-9


def _check_povm_suite(rng):
    for _ in range(200):
        dim = int(rng.choice([2, 4]))
        povm = random_povm(rng, dim, int(rng.integers(2, 5)))
        total = sum(a.conj().T @ a for a in povm.effects)
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-10
        probs = [p for p, _ in measure(povm, random_state(rng, dim))]
        assert abs(sum(probs) - 1.0) <= 1e-10
        assert all(0.0 <= p <= 1.0 for p in probs)


def _check_channel_suite(rng):
    eye4 = np.eye(4, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    tatiana = build_observer(
        [(eye4[0], eye2[0]), (eye4[1], eye2[1]), (eye4[2], eye2[0]),
         (eye4[3], eye2[1])], 2, "tatiana")
    johann = build_observer(
        [(eye2[0], np.array([1.0])), (eye2[1], np.array([1.0]))], 1, "johann")
    observers = [tatiana, johann, identity_observer(4), identity_observer(2)]
    for i in range(200):
        obs = observers[i % len(observers)]
        out = coarse_grain(obs, random_state(rng, obs.lab_dim))
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10


def _check_reversibility_suite(rng):
    for _ in range(50):
        dim = int(rng.choice([2, 4]))
        rho, sigma = random_orthogonal_pair(rng, dim)
        na, nb = (float(x) for x in rng.uniform(0.2, 1.0, size=2))
        lab = LabState(
            1.0,
            [Chamber("a", na, na, rho), Chamber("b", nb, nb, sigma)],
            dim,
        )
        povm = Povm((rho.matrix, np.eye(dim) - rho.matrix))
        lab1, e1 = mix(lab, "a", "b", povm, name="c")
        _, e2 = separate(lab1, "c", povm, names=("a", "b"), step_index=1)
        assert abs(e1.heat_absorbed_by_gas + e2.heat_absorbed_by_gas) <= 1e-9


def _check_discrimination_suite(rng):
    checked = 0
    while checked < 200:
        dim = int(rng.choice([2, 4]))
        rho, sigma = random_state(rng, dim), random_state(rng, dim)
        if np.trace(rho.matrix @ sigma.matrix).real <= 1e-6:
            continue
        checked += 1
        if checked % 2:
            povm = random_povm(rng, dim, 2)
        else:
            w, v = np.linalg.eigh(rho.matrix)
            keep = v[:, w > 1e-12]
            proj = keep @ keep.conj().T
            povm = Povm((proj, np.eye(dim) - proj))
        for a in povm.effects:
            p_rho = np.trace(a @ rho.matrix @ a.conj().T).real
            p_sigma = np.trace(a @ sigma.matrix @ a.conj().T).real
            assert not (p_rho > 1 - 1e-9 and p_sigma < 1e-9)


def _check_lift_suite(rng):
    for _ in range(100):
        obs_dim = int(rng.choice([1, 2]))
        sectors = int(rng.choice([1, 2]))
        lab_dim = obs_dim * sectors
        lab_basis = random_unitary(rng, lab_dim)
        obs_basis = random_unitary(rng, obs_dim)
        table = []
        for k in range(sectors):
            for r in range(obs_dim):
                table.append((lab_basis[:, k * obs_dim + r], obs_basis[:, r]))
        obs = build_observer(table, obs_dim, "random")
        povm = random_povm(rng, obs_dim, 2)
        lifted = lift_through(obs, povm)
        sector = int(rng.integers(0, sectors))
        rho_obs = random_state(rng, obs_dim)
        v = obs.sector_isometries[sector]
        rho_lab = StatisticalMatrix(v.conj().T @ rho_obs.matrix @ v)
        got = [p for p, _ in measure(lifted, rho_lab)]
        want = [p for p, _ in measure(povm, coarse_grain(obs, rho_lab))]
        assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want))


def _check_ledger_suite():
    for name in protocol.DEMO_NAMES:
        result = protocol.run_demo(name)
        # W = Q by construction; what the ledger must show is the sign:
        # separate releases heat and mix absorbs it
        for event in result.ledger.events:
            if event.kind == "separate":
                assert event.heat_absorbed_by_gas <= 0
            elif event.kind == "mix":
                assert event.heat_absorbed_by_gas > 0


def test_criterion_7_property_suites():
    with criterion(7, "property suites over random cases"):
        rng = np.random.default_rng(7)
        _check_povm_suite(rng)
        _check_channel_suite(rng)
        _check_reversibility_suite(rng)
        _check_discrimination_suite(rng)
        _check_lift_suite(rng)
        _check_ledger_suite()


def test_criterion_8_parser_gates(tmp_path):
    with criterion(8, "demos parse and execute; malformed protocols rejected"):
        for name in protocol.DEMO_NAMES:
            result = protocol.run_demo(name)
            assert result.ledger.events
        cases = MALFORMED[:20]
        assert len(cases) == 20
        for index, (source, line) in enumerate(cases):
            with pytest.raises(ParseError) as err:
                protocol.parse(source)
            assert err.value.line == line
            assert err.value.column >= 1
            path = tmp_path / f"malformed-{index}.qgp"
            path.write_text(source)
            code, _, stderr = run_command(CliConfig("run", str(path)))
            assert code == 1
            assert "parse error" in stderr
