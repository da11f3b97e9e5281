"""Observer-relative descriptions of the lab.

An observer is a trace-preserving coarse-graining channel from the lab
Hilbert space to the observer's own description space, built from a table of
lab-basis kets and the observer kets they look like.  Rows are grouped
greedily, in table order, into sectors whose images stay orthonormal (so row
order picks the sectors: swapping tatiana's pz- and dz- rows in peres-tatiana
turns her apparent violation into a failed assert-closed); each sector k yields
one isometry V_k = sum_rows |obs><lab|; the channel is rho -> sum_k V_k rho V_k^dag.
Cross-sector coherences are dropped, which is exactly what "cannot tell the
sectors apart" means operationally.  Membranes written in the observer's space
reach the lab through the dual channel A -> sum_k V_k^dag A V_k.

An ``Observer`` checks and snaps its sector stack however it is built, as
``Povm`` does its effects (``linalg.isometry``: sum_k V_k^dag V_k = I).  Both
channels are one ``quantum._updates`` product summed over sectors.

An observer's view of the lab is itself a lab state (``view``): the same
chambers, volumes and moles, with every state coarse-grained into the
observer's space, whose dimension is the view's lab dimension.

The same machinery covers classical gases: two argon varieties are two
orthogonal basis states of a 2-dimensional lab space, a species-blind
observer maps both onto one description label (obs_dim 1), and the
fully-informed observer is the identity table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BasisError, DimensionError, EmbeddingError
from .quantum import Povm, StatisticalMatrix, _updates
from .thermo import Chamber, LabState


@dataclass(frozen=True, eq=False)
class Observer:
    """Named coarse-graining channel: one read-only (k, obs_dim, lab_dim)
    array whose slices are the isometries of its k sectors, checked to be
    trace preserving and snapped to their polar factor when built."""

    name: str
    sector_isometries: np.ndarray

    def __post_init__(self):
        v = linalg._as_array(self.sector_isometries, "observer sector stack")
        if v.ndim != 3 or not all(1 <= d <= linalg.MAX_DIM for d in v.shape[1:]):
            raise DimensionError(f"expected a (sectors, obs_dim, lab_dim) stack of"
                                 f" dims 1..{linalg.MAX_DIM}, got shape {v.shape}")
        stacked = linalg.isometry(v.reshape(-1, v.shape[2]), BasisError,
                                  "channel is not trace preserving")
        object.__setattr__(self, "sector_isometries", stacked.reshape(v.shape))

    @property
    def obs_dim(self) -> int:
        return self.sector_isometries.shape[1]

    @property
    def lab_dim(self) -> int:
        return self.sector_isometries.shape[2]


def build_observer(table, obs_dim: int, name: str = "observer") -> Observer:
    """Build an observer from (lab_ket, observer_ket) rows.

    The lab kets must form an orthonormal basis of the lab space.  Rows are
    grouped greedily, in order, into sectors whose observer images stay
    orthonormal; trace preservation of the resulting channel is asserted.
    """
    rows = [(linalg.as_ket(lab), linalg.as_ket(obs)) for lab, obs in table]
    if not rows:
        raise BasisError("observer table is empty")
    lab_dim = rows[0][0].size
    if any(lab.size != lab_dim for lab, _ in rows):
        raise BasisError("lab kets must share one dimension")
    if any(obs.size != obs_dim for _, obs in rows):
        raise DimensionError(
            f"observer kets must have dimension {obs_dim}"
        )
    if len(rows) != lab_dim:
        raise BasisError(
            f"table has {len(rows)} rows but the lab space needs {lab_dim}"
        )
    linalg.check_orthonormal(np.column_stack([lab for lab, _ in rows]),
                             BasisError, "lab kets must form an orthonormal basis")

    # greedy first-fit grouping: a row joins the first sector whose images
    # stay orthonormal with its own, else starts a new sector
    sectors: list[list[tuple[np.ndarray, np.ndarray]]] = []
    for lab, obs in rows:
        for sector in sectors:
            if all(abs(np.vdot(obs, other)) <= linalg.ORTHONORMAL_TOL
                   for _, other in sector):
                sector.append((lab, obs))
                break
        else:
            sectors.append([(lab, obs)])

    v = np.zeros((len(sectors), obs_dim, lab_dim), dtype=complex)
    for k, sector in enumerate(sectors):
        for lab, obs in sector:
            v[k] += np.outer(obs, lab.conj())
    return Observer(name, v)


def identity_observer(dim: int, name: str = "identity") -> Observer:
    return Observer(name, np.eye(dim)[None])


def coarse_grain(obs: Observer, rho: StatisticalMatrix) -> StatisticalMatrix:
    """Re-describe a lab state in the observer's space:
    rho -> sum_k V_k rho V_k^dag."""
    if rho.dim != obs.lab_dim:
        raise DimensionError(
            f"state dim {rho.dim} does not match lab dim {obs.lab_dim}"
        )
    out = _updates(obs.sector_isometries, rho.matrix[None]).sum(1)
    return StatisticalMatrix._derived(out)[0]


def lift_through(obs: Observer, povm: Povm) -> Povm:
    """Lift an observer-space POVM to the lab space through the dual of the
    coarse-graining channel: each effect A becomes sum_k V_k^dag A V_k.

    Every sector must realize the whole observer space (V_k V_k^dag = I), so
    that the lifted effects again resolve the lab identity.
    """
    if povm.dim != obs.obs_dim:
        raise DimensionError(
            f"povm dim {povm.dim} does not match observer dim {obs.obs_dim}"
        )
    for k, v in enumerate(obs.sector_isometries):
        linalg.check_orthonormal(v.conj().T, EmbeddingError,
                                 f"sector {k} does not realize the observer space")
    v_dag = obs.sector_isometries.conj().swapaxes(-1, -2)
    return Povm(_updates(v_dag, povm.effects).sum(1), povm.outcome_labels)


def view(obs: Observer, lab: LabState) -> LabState:
    """What the lab looks like to this observer: the same chambers, each
    filled one holding its state coarse-grained into the observer's space."""
    return LabState(lab.temperature, [
        Chamber(name, ch.volume, ch.moles,
                None if ch.state is None else coarse_grain(obs, ch.state))
        for name, ch in lab.chambers.items()], obs.obs_dim)


def equivalence_mismatch(obs: Observer, a: LabState, b: LabState,
                         tol: float = linalg.CLOSURE_TOL) -> str | None:
    """None when the two lab states look the same to the observer, else a
    one-line description of the first difference found; a different set of
    chamber names is such a difference, an open cycle.  Volumes and moles
    must agree within tol times a's total volume and total moles, so the
    answer does not depend on how much gas there is."""
    if set(a.chambers) != set(b.chambers):
        return f"chamber sets differ: {sorted(a.chambers)} vs {sorted(b.chambers)}"
    volume_tol = tol * sum(ch.volume for ch in a.chambers.values())
    moles_tol = tol * a.total_moles()
    for name, cha in a.chambers.items():
        chb = b.chambers[name]
        if abs(cha.volume - chb.volume) > volume_tol:
            return (f"chamber {name!r} volume {cha.volume:.9g}"
                    f" vs {chb.volume:.9g}")
        if abs(cha.moles - chb.moles) > moles_tol:
            return f"chamber {name!r} moles {cha.moles:.9g} vs {chb.moles:.9g}"
        if (cha.state is None) != (chb.state is None):
            return f"chamber {name!r} is empty on one side only"
        if cha.state is not None and not coarse_grain(obs, cha.state).close_to(
                coarse_grain(obs, chb.state), tol):
            return f"chamber {name!r} contents differ for observer {obs.name!r}"
    return None


def states_equivalent(obs: Observer, a: LabState, b: LabState,
                      tol: float = linalg.CLOSURE_TOL) -> bool:
    """Whether the observer can tell the two lab states apart: chamber
    volumes, mole counts, and coarse-grained aggregates all match."""
    return equivalence_mismatch(obs, a, b, tol) is None
