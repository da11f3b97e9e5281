"""Chambers of quantum ideal gases, membranes, and the isothermal ledger.

Conventions.  The gas constant is R = 1 and the default run uses one mole
total at temperature 1, so every ledger entry is directly the dimensionless
coefficient of nRT.  All processes are isothermal, hence for every event the
heat absorbed by the gas equals the work it performs:

    W = n R T ln(Vf / Vi) = Q,

so an event stores Q alone and reads W back as Q.

A chamber holds its gas as a mole count and one density matrix, the
mole-weighted mean of everything that went into it.  One matrix suffices:
no lab membrane can tell apart preparations that one lab density matrix
describes, and where a finer description tells them apart, the lab space
is too small and the finer one calls for a larger lab space (as the
peres-tatiana demo has), not for a record of how the gas was mixed.
``separate`` measures that matrix, ``mix``, ``join`` and a fill take the
mole-weighted mean of their inputs by one rule, ``rotate`` conjugates it
and ``partition`` scales the moles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    DomainError,
    EmptyChamberError,
    IndistinguishableError,
    PovmError,
    UnitaryError,
    UnknownChamberError,
    UnknownCheckpointError,
)
from .quantum import Povm, StatisticalMatrix, _updates, measure

R = 1.0

EVENT_KINDS = ("mix", "separate", "rotate", "partition", "join", "checkpoint")


def _check_moles(name: str, moles: float, filled: bool) -> None:
    """A filled chamber holds a positive finite mole count, an unfilled one
    none."""
    if not (0 < moles < math.inf if filled else moles == 0):
        raise DomainError(f"chamber {name!r} holds {moles} moles")


@dataclass(frozen=True, eq=False)
class Chamber:
    """A volume at the lab temperature holding ``moles`` of gas in ``state``;
    an unfilled chamber has no state and 0 moles."""

    name: str
    volume: float
    moles: float = 0.0
    state: StatisticalMatrix | None = None

    def __post_init__(self):
        if not 0 < self.volume < math.inf:
            raise DomainError(
                f"volume must be positive and finite, got {self.volume}"
            )
        _check_moles(self.name, self.moles, self.state is not None)


def _mean_chamber(name: str, volume: float, parts) -> Chamber:
    """The chamber holding every filled part of ``parts``, (moles, state)
    pairs with no state for an unfilled part: their mole sum, checked
    first, in their mole-weighted mean state."""
    parts = [(moles, rho) for moles, rho in parts if rho is not None]
    if not parts:
        return Chamber(name, volume)
    n = sum(moles for moles, _ in parts)
    _check_moles(name, n, True)
    m = sum((moles / n) * rho.matrix for moles, rho in parts)
    return Chamber(name, volume, n, StatisticalMatrix._derived(m[None])[0])


def check_temperature(t: float) -> None:
    """Raise DomainError unless t is finite and at least the smallest normal
    float: below it every ledger entry n R T ln(...) is subnormal, with too
    few digits left to read Q / (nT) back."""
    if not sys.float_info.min <= t < math.inf:
        raise DomainError(f"temperature must be finite and at least"
                          f" {sys.float_info.min!r}, got {t!r}")


@dataclass(frozen=True, eq=False)
class LabState:
    """Everything in the lab: temperature, chambers, and the Hilbert
    dimension of the ground-truth description, which every filled
    chamber's state has.  Built from an ordered iterable of chambers, it
    keys them by their own names, which must not repeat."""

    temperature: float
    chambers: dict[str, Chamber]
    lab_dim: int

    def __post_init__(self):
        check_temperature(self.temperature)
        chambers = {}
        for ch in self.chambers:
            if ch.name in chambers:
                raise DomainError(f"chamber {ch.name!r} already exists")
            if ch.state is not None and ch.state.dim != self.lab_dim:
                raise DimensionError(f"chamber {ch.name!r} holds dim"
                                     f" {ch.state.dim} gas in lab dim {self.lab_dim}")
            chambers[ch.name] = ch
        object.__setattr__(self, "chambers", chambers)

    def chamber(self, name: str) -> Chamber:
        try:
            return self.chambers[name]
        except KeyError:
            raise UnknownChamberError(f"no chamber named {name!r}") from None

    def total_moles(self) -> float:
        return sum(ch.moles for ch in self.chambers.values())


@dataclass(frozen=True)
class LedgerEvent:
    """One protocol step with the heat the gas absorbed in it."""

    step_index: int
    kind: str
    heat_absorbed_by_gas: float
    description: str

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise DomainError(f"unknown event kind {self.kind!r}")
        if not math.isfinite(self.heat_absorbed_by_gas):
            raise DomainError(f"heat must be finite, got {self.heat_absorbed_by_gas}")
        if 0 < abs(self.heat_absorbed_by_gas) < sys.float_info.min:
            raise DomainError(f"heat must be 0 or at least {sys.float_info.min!r}"
                              f" in size, got {self.heat_absorbed_by_gas!r}")

    @property
    def work_done_by_gas(self) -> float:
        """W = Q: an isothermal ideal gas keeps its internal energy."""
        return self.heat_absorbed_by_gas


@dataclass(frozen=True)
class Checkpoint:
    step_index: int
    state: LabState


@dataclass
class Ledger:
    """Ordered event log plus labelled lab-state snapshots.

    Lab states are immutable values, so a "deep snapshot" is just a
    reference to the state at checkpoint time.
    """

    events: list[LedgerEvent] = field(default_factory=list)
    checkpoints: dict[str, Checkpoint] = field(default_factory=dict)

    def append(self, event: LedgerEvent) -> None:
        if self.events and event.step_index <= self.events[-1].step_index:
            raise DomainError(
                f"step index {event.step_index} does not increase past"
                f" {self.events[-1].step_index}"
            )
        self.events.append(event)

    def checkpoint(self, label: str, state: LabState, step_index: int) -> LedgerEvent:
        event = LedgerEvent(step_index, "checkpoint", 0.0, f"checkpoint {label}")
        self.append(event)
        self.checkpoints[label] = Checkpoint(step_index, state)
        return event

    def resolve(self, label: str) -> Checkpoint:
        try:
            return self.checkpoints[label]
        except KeyError:
            raise UnknownCheckpointError(f"no checkpoint named {label!r}") from None

    def events_since(self, label: str) -> list[LedgerEvent]:
        start = self.resolve(label).step_index
        return [e for e in self.events if e.step_index > start]

    def q_total_since(self, label: str) -> float:
        return sum(e.heat_absorbed_by_gas for e in self.events_since(label))


def isothermal_work(n: float, t: float, v_initial: float, v_final: float) -> float:
    """Work done by n moles of ideal gas in an isothermal volume change,
    n R T ln(v_final / v_initial), with R = 1."""
    for name, value in (("n", n), ("t", t), ("v_initial", v_initial),
                        ("v_final", v_final)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    return n * R * t * math.log(v_final / v_initial)


def aggregate_state(chamber: Chamber) -> StatisticalMatrix:
    """Mole-weighted mean state of everything that went into the chamber."""
    if chamber.state is None:
        raise EmptyChamberError(f"chamber {chamber.name!r} holds no gas")
    return chamber.state


def eigen_mixture(state: StatisticalMatrix) -> list[tuple[float, StatisticalMatrix]]:
    """The state as (weight, eigenprojector) pairs in descending weight, by
    linalg.eigenprojectors, weights up to linalg.PRUNE_TOL dropped."""
    w, p = linalg.eigenprojectors(state.matrix)
    kept = w > linalg.PRUNE_TOL
    return list(zip(w[kept].tolist(), StatisticalMatrix._derived(p[kept])))


def canonical_contents(chamber: Chamber) -> list[tuple[float, StatisticalMatrix]]:
    """The chamber's contents as the eigen-mixture of its aggregate state."""
    return eigen_mixture(aggregate_state(chamber))


def _replace_chambers(lab: LabState, removed, added) -> LabState:
    """New lab state with ``removed`` chamber names replaced by the ``added``
    chambers, inserted where the first removed chamber sat."""
    out = []
    for name, ch in lab.chambers.items():
        if name not in removed:
            out.append(ch)
        elif added:
            out.extend(added)
            added = ()
    return LabState(lab.temperature, out, lab.lab_dim)


def _check_povm_dim(lab: LabState, povm: Povm) -> None:
    if povm.dim != lab.lab_dim:
        raise DimensionError(
            f"povm dim {povm.dim} does not match lab dim {lab.lab_dim}"
        )


def separate(lab: LabState, chamber: str, povm: Povm, names,
             step_index: int = 0) -> tuple[LabState, LedgerEvent]:
    """Drive the membranes of ``povm`` through a chamber.

    Outcome i of ``measure`` on the chamber's state, of probability f_i,
    takes the share f_i of its moles in the outcome's post state into its
    own chamber ``names[i]`` of volume f_i * V, so all final pressures are
    equal; outcomes with negligible share are dropped.  The gas does work
    W = Q = sum_i n_i T ln f_i <= 0 (heat is released).
    """
    ch = lab.chamber(chamber)
    _check_povm_dim(lab, povm)
    rho = aggregate_state(ch)
    if len(names) != len(povm.effects):
        raise DomainError(
            f"need {len(povm.effects)} outcome names, got {len(names)}"
        )

    t = lab.temperature
    new_chambers = []
    q = 0.0
    parts = []
    for name, (fraction, post) in zip(names, measure(povm, rho)):
        if post is None:
            continue
        moles_i = fraction * ch.moles
        q += moles_i * R * t * math.log(fraction)
        new_chambers.append(Chamber(name, fraction * ch.volume, moles_i, post))
        parts.append(f"{name}({fraction:.6g}V)")

    new_lab = _replace_chambers(lab, [chamber], new_chambers)
    desc = f"separate {chamber} by {{{', '.join(povm.outcome_labels)}}}" \
           f" into {', '.join(parts)}"
    return new_lab, LedgerEvent(step_index, "separate", q, desc)


def mix(lab: LabState, a: str, b: str, povm: Povm, name: str,
        step_index: int = 0,
        tol: float = linalg.CLOSURE_TOL) -> tuple[LabState, LedgerEvent]:
    """Reversibly merge two chambers into one named ``name``, using
    membranes that tell them apart.

    Each effect must pass one chamber's aggregate with probability one and
    block the other's with probability zero (within tol); otherwise the
    membranes cannot reversibly merge the gases and IndistinguishableError
    is raised.  The merged chamber occupies V_a + V_b and the gas absorbs
    Q = sum_c n_c T ln((V_a + V_b) / V_c) > 0.
    """
    if a == b:
        raise DomainError("cannot mix a chamber with itself")
    cha, chb = lab.chamber(a), lab.chamber(b)
    _check_povm_dim(lab, povm)
    raw = _updates(povm.effects, np.array([aggregate_state(cha).matrix,
                                           aggregate_state(chb).matrix]))
    traces = raw.trace(axis1=-2, axis2=-1).real
    for (pa, pb), label in zip(traces.T.tolist(), povm.outcome_labels):
        passes_a = pa >= 1.0 - tol and pb <= tol
        passes_b = pb >= 1.0 - tol and pa <= tol
        if not (passes_a or passes_b):
            raise IndistinguishableError(
                f"effect {label!r} passes {a!r} with p={pa:.6g} and {b!r} with"
                f" p={pb:.6g}; it distinguishes neither chamber with certainty"
            )

    volume = cha.volume + chb.volume
    t = lab.temperature
    q = (cha.moles * R * t * math.log(volume / cha.volume)
         + chb.moles * R * t * math.log(volume / chb.volume))
    merged = _mean_chamber(name, volume, [(cha.moles, cha.state),
                                          (chb.moles, chb.state)])
    new_lab = _replace_chambers(lab, [a, b], [merged])
    desc = f"mix {a} + {b} into {name} by {{{', '.join(povm.outcome_labels)}}}"
    return new_lab, LedgerEvent(step_index, "mix", q, desc)


def rotation_unitary(mapping, dim: int) -> Povm:
    """The rotation sending each source ket to its image ket: a one-effect
    Povm, whose construction checks that its effect is unitary and snaps it.

    Sources must be orthonormal, images must be orthonormal, each within
    linalg.ORTHONORMAL_TOL, and each side is snapped to its polar factor;
    the action on the orthogonal complement is completed deterministically.
    """
    if not mapping:
        raise UnitaryError("a rotation needs at least one source -> image pair")
    sources = [linalg.as_ket(s) for s, _ in mapping]
    images = [linalg.as_ket(i) for _, i in mapping]
    if any(s.size != dim for s in sources) or any(i.size != dim for i in images):
        raise DimensionError("mapping kets must live in the lab space")
    full = []
    for group, what in ((sources, "source"), (images, "image")):
        s = linalg.isometry(np.column_stack(group), UnitaryError,
                            f"{what} kets are not orthonormal")
        # completed by the canonical basis of the orthogonal complement
        rest = np.eye(dim) - s @ s.conj().T
        full.append(np.hstack([s, linalg.canonical_basis(rest)]))
    try:
        return Povm((full[1] @ full[0].conj().T,), (f"{len(mapping)}-ket mapping",))
    except PovmError:
        raise UnitaryError("mapping does not extend to a unitary") from None


def rotate(lab: LabState, chamber: str, rotation: Povm,
           step_index: int = 0) -> tuple[LabState, LedgerEvent]:
    """Conjugate the chamber's state by the unitary effect u of a one-effect
    Povm (rotation_unitary builds one): rho -> u rho u^dag, the outcome
    update of its one effect.  Isochoric and energy-free: Q = W = 0."""
    ch = lab.chamber(chamber)
    _check_povm_dim(lab, rotation)
    if len(rotation) != 1:
        raise DomainError(f"a rotation has one effect, got {len(rotation)}")
    # an unfilled chamber stays unfilled
    state = None if ch.state is None else StatisticalMatrix._derived(
        _updates(rotation.effects, ch.state.matrix[None])[0])[0]
    rotated = Chamber(ch.name, ch.volume, ch.moles, state)
    new_lab = _replace_chambers(lab, [chamber], [rotated])
    # a Povm built without labels names its one outcome "0"
    label = rotation.outcome_labels[0]
    desc = f"rotate {chamber} by a {'unitary' if label == '0' else label}"
    return new_lab, LedgerEvent(step_index, "rotate", 0.0, desc)


def partition(lab: LabState, chamber: str, fraction: float, names,
              step_index: int = 0) -> tuple[LabState, LedgerEvent]:
    """Insert an impermeable wall at the given volume fraction, into the
    chambers ``names``.  Both sides inherit the same composition, scaled in
    moles; Q = W = 0."""
    ch = lab.chamber(chamber)
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must lie in (0, 1), got {fraction}")
    if len(names) != 2:
        raise DomainError("partition needs exactly two chamber names")
    halves = [Chamber(part_name, f * ch.volume, ch.moles * f, ch.state)
              for part_name, f in zip(names, (fraction, 1.0 - fraction))]
    new_lab = _replace_chambers(lab, [chamber], halves)
    desc = f"partition {chamber} at {fraction:.6g} into {names[0]}, {names[1]}"
    return new_lab, LedgerEvent(step_index, "partition", 0.0, desc)


def join(lab: LabState, a: str, b: str, name: str,
         step_index: int = 0) -> tuple[LabState, LedgerEvent]:
    """Remove the wall between two chambers, leaving one named ``name``.
    Bookkeeping records no work
    for wall removal itself; any thermodynamic consequence of the resulting
    diffusion only ever shows up through later membrane operations."""
    if a == b:
        raise DomainError("cannot join a chamber with itself")
    cha, chb = lab.chamber(a), lab.chamber(b)
    merged = _mean_chamber(name, cha.volume + chb.volume,
                           [(cha.moles, cha.state), (chb.moles, chb.state)])
    new_lab = _replace_chambers(lab, [a, b], [merged])
    desc = f"join {a} + {b} into {name}"
    return new_lab, LedgerEvent(step_index, "join", 0.0, desc)
