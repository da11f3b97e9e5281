"""Statistical matrices, POVMs, outcome updates, and separation membranes.

A statistical matrix is a trace-one positive Hermitian matrix describing the
internal quantum degree of freedom shared by all particles of a gas sample.
A membrane is modelled by a POVM: a list of effects A_i whose action on a
state is rho -> A_i rho A_i^dagger / tr(...), with completeness
sum_i A_i^dagger A_i = I guaranteeing total probability one.

States are validated once, at the boundary.  ``StatisticalMatrix(m)`` and
``StatisticalMatrix.pure(ket)`` check everything: shape, finiteness,
Hermiticity, trace one and positivity (one ``eigvalsh``).  A state derived
from checked states by a checked operation is positive by construction:
an outcome update (``measure``), a unitary conjugation (``thermo.rotate``),
a convex mix (``thermo.aggregate_state``), an eigenprojector
(``thermo.eigen_mixture``) and a coarse-graining (``observers.coarse_grain``).
Those five build their states with the private
``StatisticalMatrix._derived``.  It stores the same exactly Hermitian
matrix, runs no eigensolver and checks only the trace, which guards the
five formulas: the unitaries and observer sectors they apply are made
exact once built, and ``measure`` normalizes by the trace it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, PovmError, StateError, WeightError


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def _check_trace(tr: float) -> None:
    if not abs(tr - 1.0) <= linalg.TRACE_TOL:
        raise StateError(f"trace must be 1, got {tr:.12g}")


@dataclass(frozen=True, eq=False)
class StatisticalMatrix:
    """Trace-one positive Hermitian matrix, optionally carrying a short label
    used in ledger descriptions and observer views."""

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self):
        # an overflowing Hermitian part holds inf or nan, and eigvalsh
        # returns nan for it: the checks below are written so that nan fails
        m = linalg.as_hermitian(self.matrix, "statistical matrix not Hermitian")
        spectrum = np.linalg.eigvalsh(m)
        _check_trace(float(spectrum.sum()))
        low = float(spectrum[0])
        if not low >= -linalg.PSD_TOL:
            raise StateError(f"matrix is not positive (eigenvalue {low:.3g})")
        # m is a fresh array from as_hermitian, so freezing it in place is safe
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _derived(cls, m: np.ndarray,
                 label: str | None = None) -> "StatisticalMatrix":
        """The state of a complex matrix derived from checked states by one
        of the five operations named in the module docstring: the matrix
        __post_init__ would store, frozen, with the trace checked but no
        eigensolver run."""
        h = linalg.hermitian_part(m)
        _check_trace(float(h.trace().real))
        h.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", h)
        object.__setattr__(self, "label", label)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket, label: str | None = None) -> "StatisticalMatrix":
        return cls(linalg.projector(ket), label=label)

    def close_to(self, other: "StatisticalMatrix",
                 tol: float = linalg.SAME_STATE_TOL) -> bool:
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
    sum A^dag A = identity within linalg.ORTHONORMAL_TOL entrywise.
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
        # sum A^dag A = I: the stacked effects have orthonormal columns
        linalg.check_orthonormal(np.vstack(effects), PovmError,
                                 "effects do not resolve the identity")
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
        tr = float(np.real(np.trace(raw)))
        p = min(max(tr, 0.0), 1.0)  # tr may pass 1 by ORTHONORMAL_TOL
        if p < linalg.ZERO_PROB:
            results.append(OutcomeResult(p, None))
        else:
            results.append(
                OutcomeResult(p, StatisticalMatrix._derived(raw / tr, label))
            )
    return results


def are_orthogonal(a: StatisticalMatrix, b: StatisticalMatrix) -> bool:
    """Whether tr(a b) vanishes within linalg.OVERLAP_TOL, i.e. whether
    preparations described by a and b can be distinguished with certainty."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return abs(linalg.trace_product(a.matrix, b.matrix)) <= linalg.OVERLAP_TOL


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
    if any(not w > 0 for w in weights):
        raise WeightError(f"weights must be positive, got {weights}")
    if not abs(sum(weights) - 1.0) <= linalg.WEIGHT_SUM_TOL:
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
