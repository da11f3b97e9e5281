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
an outcome update (``measure``, and ``thermo.rotate``, the outcome update
of a one-effect POVM, whose effect is unitary), a convex mix (the
mole-weighted mean that ``thermo``'s ``mix``, ``join`` and a fill build),
an eigenprojector (``thermo.eigen_mixture``) and a coarse-graining
(``observers.coarse_grain``).
Those four build their states with the private
``StatisticalMatrix._derived``, which takes a stack of matrices.  It
stores the same exactly Hermitian matrices, runs no eigensolver and checks
only their traces, which guard the four formulas: the POVM effects
(rotations among them) and observer sectors they apply are made exact
once built (``linalg.isometry``), and outcome updates normalize by the
traces they read.  Every Kraus product A X A^dag has one rule, the private
``_updates``: a stack of operators applied to a stack of matrices in one
product, each entry bit for bit the single-matrix A X A^dag.  The operators
are POVM effects (``measure``, ``thermo.mix``), a rotation's one effect
(``thermo.rotate``), observer sectors (``observers.coarse_grain``) and
their adjoints (``observers.lift_through``).

The best separating membranes (``optimal_separation_povm``) are a function
of a chamber's aggregate state alone: the projectors of
``linalg.eigenprojectors`` onto its eigenbasis, the rule by which
``thermo.eigen_mixture`` builds its eigenprojector states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError, PovmError, StateError


def _check_trace(tr: float) -> None:
    if not abs(tr - 1.0) <= linalg.TRACE_TOL:
        raise StateError(f"trace must be 1, got {tr:.12g}")


@dataclass(frozen=True, eq=False)
class StatisticalMatrix:
    """Trace-one positive Hermitian matrix."""

    matrix: np.ndarray

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
    def _derived(cls, stack: np.ndarray) -> list["StatisticalMatrix"]:
        """The states of an (n, d, d) stack of complex matrices derived from
        checked states by one of the four operations named in the module
        docstring: the matrices __post_init__ would store, frozen, with every
        trace checked (the first failing one is reported) but no eigensolver
        run."""
        h = linalg.hermitian_part(stack)
        for tr in h.trace(axis1=-2, axis2=-1).real.tolist():
            _check_trace(tr)
        h.flags.writeable = False
        states = []
        for m in h:
            self = object.__new__(cls)
            object.__setattr__(self, "matrix", m)
            states.append(self)
        return states

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, ket) -> "StatisticalMatrix":
        return cls(linalg.projector(ket))

    def close_to(self, other: "StatisticalMatrix",
                 tol: float = linalg.SAME_STATE_TOL) -> bool:
        return self.dim == other.dim and bool(
            np.max(np.abs(self.matrix - other.matrix)) <= tol
        )

    def __repr__(self):
        return f"<state dim={self.dim}>"


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered measurement effects with their outcome names.

    Each effect is the operator A whose outcome update is rho -> A rho A^dag;
    construction checks that all effects share one dimension and satisfy
    sum A^dag A = identity within linalg.ORTHONORMAL_TOL entrywise, then
    keeps as ``effects`` the polar factor of the effects it checked, for
    which the sum is the identity to round-off: one read-only (k, d, d)
    array whose slices are the effects.  With one effect the sum says
    A^dag A = I: a one-effect Povm is a rotation (thermo.rotate).
    """

    effects: np.ndarray
    outcome_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        effects = [linalg.as_matrix(a) for a in self.effects]
        if not effects:
            raise PovmError("a POVM needs at least one effect")
        dim = effects[0].shape[0]
        for a in effects[1:]:
            if a.shape[0] != dim:
                raise DimensionError("POVM effects must share one dimension")
        # sum A^dag A = I: the stacked effects have orthonormal columns
        stacked = linalg.isometry(np.vstack(effects), PovmError,
                                  "effects do not resolve the identity")
        labels = self.outcome_labels or tuple(str(i) for i in range(len(effects)))
        if len(labels) != len(effects):
            raise PovmError("need one outcome label per effect")
        object.__setattr__(self, "effects",
                           stacked.reshape(len(effects), dim, dim))
        object.__setattr__(self, "outcome_labels", tuple(labels))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self):
        return len(self.effects)

    @classmethod
    def projective(cls, kets, labels=None) -> "Povm":
        """POVM of rank-one projectors onto the given kets."""
        effects = tuple(linalg.projector(k) for k in kets)
        return cls(effects, tuple(labels) if labels else ())

    def __repr__(self):
        return f"<povm {{{', '.join(self.outcome_labels)}}} dim={self.dim}>"


def _updates(ops: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """A_i X_j A_i^dag for every operator A_i of a (k, m, d) stack and every
    matrix X_j of an (n, d, d) stack, in one stacked product: an (n, k, m, m)
    array.  Callers check the dimensions and read the traces they need."""
    return ops @ matrices[:, None] @ ops.conj().swapaxes(-1, -2)


def measure(povm: Povm, rho: StatisticalMatrix
            ) -> list[tuple[float, StatisticalMatrix | None]]:
    """Apply every effect of the POVM to rho.

    Outcome i is the pair (probability, post state): tr(A_i rho A_i^dag)
    and the normalized post state; outcomes with probability at most
    linalg.PRUNE_TOL are round-off and have None for a post state, and
    ``separate`` drops them.  Post-state traces are checked in outcome order.
    """
    if rho.dim != povm.dim:
        raise DimensionError(f"povm dim {povm.dim} vs state dim {rho.dim}")
    raw = _updates(povm.effects, rho.matrix[None])[0]
    traces = raw.trace(axis1=-2, axis2=-1).real
    kept = traces > linalg.PRUNE_TOL
    posts = iter(StatisticalMatrix._derived(raw[kept] / traces[kept][:, None, None]))
    # tr may pass 1 by round-off
    return [(min(max(tr, 0.0), 1.0), next(posts) if keep else None)
            for tr, keep in zip(traces.tolist(), kept.tolist())]


def are_orthogonal(a: StatisticalMatrix, b: StatisticalMatrix) -> bool:
    """Whether tr(a b) vanishes within linalg.OVERLAP_TOL, i.e. whether
    preparations described by a and b can be distinguished with certainty."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return abs(linalg.trace_product(a.matrix, b.matrix)) <= linalg.OVERLAP_TOL


def optimal_separation_povm(state: StatisticalMatrix) -> Povm:
    """Best separating membranes for a gas whose aggregate state is given:
    the projective POVM onto the state's eigenbasis, one rank-one projector
    per eigenvector in descending eigenvalue, outcomes named eig0, eig1, ...

    They depend on the density matrix, not on how its gases were mixed:
    every preparation that state describes gets the same membranes.  So a
    state with a degenerate kept eigenvalue (two above linalg.PRUNE_TOL
    agreeing within linalg.TIE_TOL) raises DomainError naming its
    multiplicity: its eigenbasis, and with it the membranes, would be a
    choice of coordinates, not a function of the density matrix."""
    w, p = linalg.eigenprojectors(state.matrix)
    kept = w[w > linalg.PRUNE_TOL].tolist()
    ties = linalg.tied_runs(kept)
    if ties:
        start, stop = ties[0]
        raise DomainError(
            f"the aggregate state has eigenvalue {kept[start]:.12g} of"
            f" multiplicity {stop - start}, so its eigenbasis is not unique;"
            f" name the membranes with a povm")
    return Povm(tuple(p), tuple(f"eig{i}" for i in range(len(p))))
