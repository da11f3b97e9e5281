"""Validity oracle for the states qgas derives without the full check.

Public construction (``StatisticalMatrix(m)``, ``StatisticalMatrix.pure``)
and every parsed gas declaration run the full state check.  The states that
``measure``, ``rotate``, the mole-weighted mean of ``mix``, ``join`` and a
fill, ``eigen_mixture`` and ``coarse_grain`` derive from checked states
skip its eigensolver.  A seeded
random walk of separate, mix, rotate, partition and join over d = 1..8
re-checks every one of them with the public constructor after every step,
together with the ledger's invariants: Q == W, conserved moles, heat
released by separate and absorbed by mix.
"""

import math

import numpy as np
import pytest

from util import (
    random_ket,
    random_povm,
    random_state,
    random_unitary,
    skewed_ket,
)
from qgas import linalg
from qgas.errors import QgasError
from qgas.observers import build_observer, coarse_grain
from qgas.quantum import (
    Povm,
    StatisticalMatrix,
    _updates,
    measure,
    optimal_separation_povm,
)
from qgas.thermo import (
    Chamber,
    LabState,
    _mean_chamber,
    aggregate_state,
    eigen_mixture,
    join,
    mix,
    partition,
    rotate,
    rotation_unitary,
    separate,
)

STEPS = 40
MAX_CHAMBERS = 6
KINDS = ("separate", "mix", "rotate", "partition", "join")


def recheck(state, where):
    """Run the public constructor's full check on a derived state."""
    try:
        StatisticalMatrix(state.matrix)
    except QgasError as exc:
        pytest.fail(f"{where}: derived state fails the full check: {exc}")


def random_gas(rng, dim, skew_basis):
    """A random pure, mixed or skewed state.  Skewed kets give outcome
    probabilities from about 1e-13 to 1e-5 in ``skew_basis``, across
    linalg.ZERO_PROB."""
    kind = rng.integers(3)
    if kind == 0:
        return StatisticalMatrix.pure(random_ket(rng, dim))
    if kind == 1:
        return random_state(rng, dim)
    return StatisticalMatrix.pure(skewed_ket(rng, skew_basis, lowest=-6.5))


def coarse_observer(rng, dim):
    """Each ket of a random lab basis looks like one ket of a random
    observer basis of random dimension; kets sharing an image fall into
    different sectors."""
    obs_dim = int(rng.integers(1, dim + 1))
    lab, obs = random_unitary(rng, dim), random_unitary(rng, obs_dim)
    table = [(lab[:, i], obs[:, rng.integers(obs_dim)]) for i in range(dim)]
    return build_observer(table, obs_dim, "coarse")


def random_rotation(rng, dim):
    if rng.integers(2):
        return random_unitary(rng, dim)
    # a partial mapping, completed by rotation_unitary
    k = int(rng.integers(1, dim + 1))
    sources, images = random_unitary(rng, dim), random_unitary(rng, dim)
    return rotation_unitary([(sources[:, i], images[:, i]) for i in range(k)], dim)


def separation_povm(rng, lab, name, skew_basis):
    dim = lab.lab_dim
    kind = rng.integers(4)
    if kind == 0:
        return Povm.projective([skew_basis[:, i] for i in range(dim)])
    if kind == 1:
        u = random_unitary(rng, dim)
        return Povm.projective([u[:, i] for i in range(dim)])
    if kind == 2:
        return random_povm(rng, dim, int(rng.integers(2, 5)))
    return optimal_separation_povm(aggregate_state(lab.chamber(name)))


def mixable_pairs(lab, tol=linalg.CLOSURE_TOL):
    """(a, b, P) for each pair of chambers where P, the projector onto the
    support of a's aggregate, passes a and blocks b within tol / 2."""
    aggregates = {name: aggregate_state(ch).matrix
                  for name, ch in lab.chambers.items()}
    supports = {}
    for name, agg in aggregates.items():
        w, v = np.linalg.eigh(agg)
        s = v[:, w > linalg.PRUNE_TOL]
        supports[name] = s @ s.conj().T
    return [(a, b, supports[a]) for a in aggregates for b in aggregates
            if a < b and np.trace(supports[a] @ aggregates[a]).real >= 1 - tol / 2
            and np.trace(supports[a] @ aggregates[b]).real <= tol / 2]


def check_lab(lab, before, observers, moles, where):
    """Re-check the chambers of lab that are not in the lab before it."""
    kept = {id(ch) for ch in before.chambers.values()} if before else set()
    for ch in lab.chambers.values():
        if id(ch) in kept:
            continue
        # separate's outcome states, rotate's u rho u^dagger and the mean
        # states of a fill, mix and join
        agg = aggregate_state(ch)
        recheck(agg, f"{where}, chamber {ch.name!r}")
        described = [agg] + [coarse_grain(obs, agg) for obs in observers]
        for sigma in described:
            recheck(sigma, f"{where}, view of {ch.name!r}")
            for _, s in eigen_mixture(sigma):
                recheck(s, f"{where}, eigenprojector of {ch.name!r}")
    assert math.isclose(lab.total_moles(), moles, rel_tol=1e-9), where


def walk(rng, dim, kinds, lowest_p):
    """One random walk; counts its steps by kind and records the lowest
    outcome probability that got a post state."""
    skew_basis = random_unitary(rng, dim)
    observers = [coarse_observer(rng, dim) for _ in range(2)]
    chambers = {}
    for name in ("a", "b"):
        parts = []
        for _ in range(rng.integers(1, 4)):
            gas = random_gas(rng, dim, skew_basis)
            parts.append((float(rng.uniform(0.1, 2.0)), gas))
        chambers[name] = _mean_chamber(name, float(rng.uniform(0.5, 2.0)), parts)
    # chamber "s" holds skewed gases only and is first separated in the
    # skew basis, so outcome probabilities reach down to the cut-off
    skewed = [(0.5, StatisticalMatrix.pure(skewed_ket(rng, skew_basis, lowest=-6.5)))
              for _ in range(3)]
    chambers["s"] = _mean_chamber("s", 1.0, skewed)
    lab = LabState(float(rng.uniform(0.5, 2.0)), chambers, dim)
    moles = lab.total_moles()
    check_lab(lab, None, observers, moles, f"dim {dim}, declared")

    for step in range(STEPS):
        names = list(lab.chambers)
        new = f"c{step}"
        mixable = mixable_pairs(lab)
        if step == 0:
            kind = "separate"
        elif mixable and rng.uniform() < 0.4:
            kind = "mix"
        elif len(names) >= MAX_CHAMBERS:
            kind = "join"
        else:
            choices = ["separate", "rotate", "partition"]
            if len(names) > 1:
                choices.append("join")
            kind = choices[rng.integers(len(choices))]
        where = f"dim {dim}, step {step} ({kind})"
        t = lab.temperature
        before = lab

        if kind == "separate":
            if step == 0:
                name = "s"
                povm = Povm.projective([skew_basis[:, i] for i in range(dim)])
            else:
                name = names[rng.integers(len(names))]
                povm = separation_povm(rng, lab, name, skew_basis)
            for res in measure(povm, aggregate_state(lab.chamber(name))):
                if res.post_state is not None:
                    recheck(res.post_state, f"{where}, outcome state")
                    lowest_p[0] = min(lowest_p[0], res.probability)
            n = lab.chamber(name).moles
            labels = [f"{new}.{i}" for i in range(len(povm))]
            lab, event = separate(lab, name, povm, labels)
            assert event.heat_absorbed_by_gas <= 1e-12 * n * t, where
        elif kind == "mix":
            a, b, p = mixable[rng.integers(len(mixable))]
            lab, event = mix(lab, a, b, Povm((p, np.eye(dim) - p)), new)
            assert event.heat_absorbed_by_gas > 0, where
        elif kind == "rotate":
            name = names[rng.integers(len(names))]
            lab, event = rotate(lab, name, random_rotation(rng, dim), dim)
        elif kind == "partition":
            name = names[rng.integers(len(names))]
            lab, event = partition(lab, name, float(rng.uniform(0.05, 0.95)),
                                   (f"{new}.0", f"{new}.1"))
        else:
            i, j = rng.choice(len(names), size=2, replace=False)
            lab, event = join(lab, names[i], names[j], new)

        assert event.heat_absorbed_by_gas == event.work_done_by_gas, where
        kinds[kind] += 1
        check_lab(lab, before, observers, moles, where)


def test_random_walk_keeps_every_derived_state_valid():
    rng = np.random.default_rng(20261018)
    kinds = dict.fromkeys(KINDS, 0)
    lowest_p = [1.0]
    for dim in range(1, linalg.MAX_DIM + 1):
        walk(rng, dim, kinds, lowest_p)
    # every step kind ran, and outcome states were derived from
    # probabilities within a decade of the cut-off
    assert min(kinds.values()) >= 10, kinds
    assert linalg.ZERO_PROB <= lowest_p[0] < 10 * linalg.ZERO_PROB


@pytest.mark.parametrize("dim", [2, 8])
def test_repeated_rotation_does_not_drift_the_trace(dim):
    rng = np.random.default_rng(dim)
    gases = (random_state(rng, dim), StatisticalMatrix.pure(random_ket(rng, dim)))
    chamber = _mean_chamber("c", 1.0, [(0.5, s) for s in gases])
    lab = LabState(1.0, {"c": chamber}, dim)
    rotations = [random_rotation(rng, dim) for _ in range(16)]
    for i in range(800):
        lab, _ = rotate(lab, "c", rotations[i % 16], dim)
    state = lab.chamber("c").state
    assert abs(np.trace(state.matrix).real - 1) <= linalg.TRACE_TOL
    recheck(state, f"dim {dim}, after 800 rotations")


def hermitian(m):
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("dim", range(1, linalg.MAX_DIM + 1))
def test_stacked_updates_equal_the_single_matrix_formulas(dim):
    """Outcome updates act on a stack of states at once (mix reads the
    traces of two); each entry, measure's post states, a join's mean and a
    rotation must equal the one-matrix formula bit for bit, so a change
    that moves one bit fails here, not only in the golden bytes."""
    rng = np.random.default_rng(dim)
    for _ in range(20):
        povm = random_povm(rng, dim, int(rng.integers(1, 9)))
        states = [random_state(rng, dim) for _ in range(2)]
        raw, traces = _updates(povm, states)
        for j, rho in enumerate(states):
            for i, (a, one) in enumerate(zip(povm.effects, measure(povm, rho))):
                single = a @ rho.matrix @ a.conj().T
                tr = float(np.trace(single).real)
                assert np.array_equal(raw[j, i], single)
                assert traces[j, i] == tr
                assert one.probability == min(max(tr, 0.0), 1.0)
                assert np.array_equal(one.post_state.matrix, hermitian(single / tr))
        u = random_unitary(rng, dim)
        lab = LabState(1.0, {"a": Chamber("a", 1.0, 0.25, states[0]),
                             "b": Chamber("b", 1.0, 0.75, states[1])}, dim)
        joined, _ = join(lab, "a", "b", "c")
        mean = joined.chamber("c").state.matrix
        assert np.array_equal(
            mean, hermitian(0.25 * states[0].matrix + 0.75 * states[1].matrix))
        rotated = rotate(joined, "c", u, dim)[0].chamber("c").state
        assert np.array_equal(rotated.matrix, hermitian(u @ mean @ u.conj().T))
