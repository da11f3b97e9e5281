"""Observer-relative descriptions of the lab.

An observer is a trace-preserving coarse-graining channel from the lab
Hilbert space to the observer's own description space, built from a table of
lab-basis kets and the observer kets they look like.  Rows whose images form
an orthonormal set are grouped into one sector, and each sector k yields one
isometry V_k = sum_rows |obs><lab|; the channel is rho -> sum_k V_k rho V_k^dag.
Cross-sector coherences are dropped, which is exactly what "cannot tell the
sectors apart" means operationally.  Membranes written in the observer's space
reach the lab through the dual channel A -> sum_k V_k^dag A V_k.

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
from .quantum import Povm, StatisticalMatrix
from .thermo import Chamber, LabState, eigen_mixture


@dataclass(frozen=True, eq=False)
class Observer:
    """Named coarse-graining channel, one isometry per sector."""

    name: str
    obs_dim: int
    lab_dim: int
    sector_isometries: tuple[np.ndarray, ...]


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

    isometries = []
    for sector in sectors:
        v = np.zeros((obs_dim, lab_dim), dtype=complex)
        for lab, obs in sector:
            v += np.outer(obs, lab.conj())
        isometries.append(v)
    # sum_k V_k^dag V_k = I: the stacked isometries have orthonormal columns
    stacked = linalg.isometry(np.vstack(isometries), BasisError,
                              "channel is not trace preserving")

    return Observer(
        name=name,
        obs_dim=obs_dim,
        lab_dim=lab_dim,
        sector_isometries=tuple(np.split(stacked, len(sectors))),
    )


def identity_observer(dim: int, name: str = "identity") -> Observer:
    eye = np.eye(dim)
    return build_observer([(eye[i], eye[i]) for i in range(dim)], dim, name)


def coarse_grain(obs: Observer, rho: StatisticalMatrix) -> StatisticalMatrix:
    """Re-describe a lab state in the observer's space:
    rho -> sum_k V_k rho V_k^dag."""
    if rho.dim != obs.lab_dim:
        raise DimensionError(
            f"state dim {rho.dim} does not match lab dim {obs.lab_dim}"
        )
    out = sum(v @ rho.matrix @ v.conj().T for v in obs.sector_isometries)
    return StatisticalMatrix._derived(out[None], [rho.label])[0]


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
    lifted = tuple(
        sum(v.conj().T @ a @ v for v in obs.sector_isometries)
        for a in povm.effects
    )
    return Povm(lifted, povm.outcome_labels)


@dataclass(frozen=True, eq=False)
class ChamberView:
    name: str
    volume: float
    moles: float
    mixture: tuple[tuple[float, StatisticalMatrix], ...]


@dataclass(frozen=True, eq=False)
class ObserverView:
    observer: str
    chambers: tuple[ChamberView, ...]


def _coarse_aggregate(obs: Observer, chamber: Chamber) -> StatisticalMatrix | None:
    if chamber.state is None:
        return None
    return coarse_grain(obs, chamber.state)


def view(obs: Observer, lab: LabState) -> ObserverView:
    """What the lab looks like to this observer: per chamber, the coarse
    aggregate state decomposed into its canonical eigen-mixture."""
    views = []
    for chamber in lab.chambers.values():
        sigma = _coarse_aggregate(obs, chamber)
        mixture = () if sigma is None else tuple(eigen_mixture(sigma))
        views.append(ChamberView(chamber.name, chamber.volume, chamber.moles, mixture))
    return ObserverView(obs.name, tuple(views))


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
        sa, sb = _coarse_aggregate(obs, cha), _coarse_aggregate(obs, chb)
        if (sa is None) != (sb is None):
            return f"chamber {name!r} is empty on one side only"
        if sa is not None and not sa.close_to(sb, tol):
            return f"chamber {name!r} contents differ for observer {obs.name!r}"
    return None


def states_equivalent(obs: Observer, a: LabState, b: LabState,
                      tol: float = linalg.CLOSURE_TOL) -> bool:
    """Whether the observer can tell the two lab states apart: chamber
    volumes, mole counts, and coarse-grained aggregates all match."""
    return equivalence_mismatch(obs, a, b, tol) is None
