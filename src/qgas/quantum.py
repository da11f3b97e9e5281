"""Statistical matrices, POVMs, outcome updates, and separation membranes.

A statistical matrix is a trace-one positive Hermitian matrix describing the
internal quantum degree of freedom shared by all particles of a gas sample.
A membrane is modelled by a POVM: a list of effects A_i whose action on a
state is rho -> A_i rho A_i^dagger / tr(...), with completeness
sum_i A_i^dagger A_i = I guaranteeing total probability one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    EmbeddingError,
    NotHermitianError,
    PovmError,
    StateError,
    WeightError,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-10

#: outcome probabilities below this leave the post state undefined
ZERO_PROB = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class StatisticalMatrix:
    """Trace-one positive Hermitian matrix, optionally carrying a short label
    used in ledger descriptions and observer views."""

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        defect = linalg.hermiticity_defect(m)
        if defect > HERMITIAN_TOL:
            raise NotHermitianError(
                f"statistical matrix not Hermitian (defect {defect:.3g})"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace must be 1, got {tr:.12g}")
        m = linalg.hermitian_part(m)
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -PSD_TOL:
            raise StateError(f"matrix is not positive (eigenvalue {low:.3g})")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket, label: str | None = None) -> "StatisticalMatrix":
        return cls(linalg.projector(ket), label=label)

    def relabel(self, label: str | None) -> "StatisticalMatrix":
        return StatisticalMatrix(self.matrix, label=label)

    def close_to(self, other: "StatisticalMatrix", tol: float = 1e-12) -> bool:
        return self.dim == other.dim and bool(
            np.max(np.abs(self.matrix - other.matrix)) <= tol
        )

    def __repr__(self):
        name = self.label or "state"
        return f"<{name} dim={self.dim}>"


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered measurement effects with their outcome names.

    Each effect is the operator A whose outcome update is rho -> A rho A^dag;
    construction checks that all effects share one dimension and satisfy
    sum A^dag A = identity within 1e-10 entrywise.
    """

    effects: tuple[np.ndarray, ...]
    outcome_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        effects = tuple(linalg.as_matrix(a) for a in self.effects)
        if not effects:
            raise PovmError("a POVM needs at least one effect")
        dim = effects[0].shape[0]
        for a in effects[1:]:
            if a.shape[0] != dim:
                raise DimensionError("POVM effects must share one dimension")
        total = sum(a.conj().T @ a for a in effects)
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > COMPLETENESS_TOL:
            raise PovmError(
                f"effects do not resolve the identity (defect {defect:.3g})"
            )
        labels = self.outcome_labels or tuple(str(i) for i in range(len(effects)))
        if len(labels) != len(effects):
            raise PovmError("need one outcome label per effect")
        object.__setattr__(self, "effects", tuple(_frozen(a) for a in effects))
        object.__setattr__(self, "outcome_labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self):
        return len(self.effects)

    @classmethod
    def projective(cls, kets, labels=None) -> "Povm":
        """POVM of rank-one projectors onto the given kets."""
        effects = tuple(linalg.projector(k) for k in kets)
        return cls(effects, tuple(labels) if labels else ())

    def __repr__(self):
        return f"<povm {{{', '.join(self.outcome_labels)}}} dim={self.dim}>"


@dataclass(frozen=True, eq=False)
class OutcomeResult:
    """One measurement outcome: its probability and, when the probability is
    not negligible, the updated state."""

    probability: float
    post_state: StatisticalMatrix | None


def measure(povm: Povm, rho: StatisticalMatrix) -> list[OutcomeResult]:
    """Apply every effect of the POVM to rho.

    Outcome i carries probability tr(A_i rho A_i^dag) and the normalized
    post state; outcomes with probability below 1e-12 carry no post state
    (there is nothing left to normalize).
    """
    if povm.dim != rho.dim:
        raise DimensionError(f"povm dim {povm.dim} vs state dim {rho.dim}")
    results = []
    for a, label in zip(povm.effects, povm.outcome_labels):
        raw = linalg.conjugate(a, rho.matrix)
        p = float(np.real(np.trace(raw)))
        p = min(max(p, 0.0), 1.0)
        if p < ZERO_PROB:
            results.append(OutcomeResult(p, None))
        else:
            results.append(
                OutcomeResult(p, StatisticalMatrix(raw / p, label=label))
            )
    return results


def are_orthogonal(a: StatisticalMatrix, b: StatisticalMatrix,
                   tol: float = 1e-10) -> bool:
    """Whether tr(a b) vanishes within tol, i.e. whether preparations
    described by a and b can be distinguished with certainty."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return abs(linalg.trace_product(a.matrix, b.matrix)) <= tol


def optimal_separation_povm(components) -> Povm:
    """Best separating membranes for a weighted mixture of gas states.

    Forms the aggregate state sum_i w_i rho_i and returns the projective POVM
    onto its eigenbasis, one rank-one projector per eigenvector, ordered by
    descending eigenvalue.  Weights must be positive and sum to one.
    """
    components = list(components)
    if not components:
        raise WeightError("empty mixture")
    weights = [float(w) for w, _ in components]
    if any(w <= 0 for w in weights):
        raise WeightError(f"weights must be positive, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-10:
        raise WeightError(f"weights must sum to 1, got {sum(weights):.12g}")
    mats = []
    for _, s in components:
        mats.append(s.matrix if isinstance(s, StatisticalMatrix) else linalg.as_matrix(s))
    dim = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != dim:
            raise DimensionError("mixture components must share one dimension")
    aggregate = sum(w * m for w, m in zip(weights, mats))
    _, vecs = linalg.hermitian_eig(aggregate)
    kets = [vecs[:, i] for i in range(dim)]
    return Povm.projective(kets, labels=tuple(f"eig{i}" for i in range(dim)))


def lift_povm(povm: Povm, embedding) -> Povm:
    """Lift an observer-space POVM to the lab space through an embedding.

    ``embedding`` lists pairs (observer_ket, lab_kets), where lab_kets holds
    that observer ket's image in each lab sector.  An observer-space effect A
    lifts to sum_k W_k A W_k^dag with W_k the sector-k embedding isometry, so
    a rank-one projector becomes the sum of the projectors onto its images.
    """
    table = [(linalg.as_ket(o), [linalg.as_ket(l) for l in labs])
             for o, labs in embedding]
    if not table:
        raise EmbeddingError("empty embedding table")
    obs_dim = table[0][0].size
    if len(table) != obs_dim:
        raise EmbeddingError(
            f"embedding covers {len(table)} kets, observer space needs {obs_dim}"
        )
    for o, _ in table[1:]:
        if o.size != obs_dim:
            raise EmbeddingError("observer kets must share one dimension")
    linalg.check_orthonormal(np.column_stack([o for o, _ in table]),
                             EmbeddingError,
                             "observer kets must form an orthonormal basis")
    sector_count = len(table[0][1])
    if sector_count == 0 or any(len(labs) != sector_count for _, labs in table):
        raise EmbeddingError("each observer ket needs one image per sector")
    lab_dim = table[0][1][0].size
    if any(l.size != lab_dim for _, labs in table for l in labs):
        raise EmbeddingError("lab kets must share one dimension")

    isometries = []
    for k in range(sector_count):
        w = np.zeros((lab_dim, obs_dim), dtype=complex)
        for o, labs in table:
            w += np.outer(labs[k], o.conj())
        linalg.check_orthonormal(w, EmbeddingError,
                                 f"sector {k} images are not orthonormal")
        isometries.append(w)
    for j in range(sector_count):
        for k in range(j + 1, sector_count):
            overlap = float(np.max(np.abs(isometries[j].conj().T @ isometries[k])))
            if overlap > 1e-10:
                raise EmbeddingError(f"sectors {j} and {k} overlap in the lab space")

    if povm.dim != obs_dim:
        raise DimensionError(
            f"povm dim {povm.dim} does not match observer dim {obs_dim}"
        )
    lifted = tuple(
        sum(w @ a @ w.conj().T for w in isometries) for a in povm.effects
    )
    return Povm(lifted, povm.outcome_labels)
