"""Small dense complex matrix algebra for desk-scale Hilbert spaces (dim <= 8).

Everything works on plain numpy complex arrays.  The Hermitian eigensolver is
LAPACK (``numpy.linalg.eigh``) followed by a canonical post-pass that fixes
what LAPACK leaves open: the eigenvalue order, the basis of each degenerate
eigenspace, and the phase of every eigenvector.  Its output therefore
depends on the matrix, not on the choices a LAPACK build makes there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, NotHermitianError

MAX_DIM = 8

# magnitude threshold used to locate the leading component of an eigenvector
_PHASE_TOL = 1e-10

# adjacent eigenvalues closer than this share one degenerate eigenspace
_TIE_TOL = 1e-10

# residual norm below which a projected axis adds nothing to the canonical
# basis of a degenerate eigenspace: far above round-off, far below O(1)
_BASIS_TOL = 1e-6


def as_matrix(m) -> np.ndarray:
    """Coerce m to a square complex array, enforcing the 1..8 dimension bound."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise DimensionError(f"dimension {a.shape[0]} outside 1..{MAX_DIM}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has a non-finite entry (nan or inf)")
    return a


def as_ket(v) -> np.ndarray:
    """Coerce v to a unit vector: normalization is applied, then checked."""
    k = np.asarray(v, dtype=complex).reshape(-1)
    if not 1 <= k.size <= MAX_DIM:
        raise DimensionError(f"ket length {k.size} outside 1..{MAX_DIM}")
    norm = float(np.linalg.norm(k))
    if not math.isfinite(norm):
        if not np.isfinite(k).all():
            raise DomainError("ket has a non-finite entry (nan or inf)")
        # finite entries whose norm overflows: rescale by the largest first
        k = k / np.max(np.abs(k))
        norm = float(np.linalg.norm(k))
    if norm < 1e-12:
        raise DomainError("cannot normalize a zero ket")
    k = k / norm
    if abs(float(np.linalg.norm(k)) - 1.0) > 1e-12:
        raise DomainError("ket normalization failed")
    return k


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def trace_product(a, b) -> complex:
    """tr(a b).  Cyclic, so symmetric in its two arguments."""
    a = as_matrix(a)
    b = as_matrix(b)
    _same_dim(a, b)
    return complex(np.trace(a @ b))


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2: exactly Hermitian, whatever round-off m carries."""
    return (m + m.conj().T) / 2.0


def conjugate(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The unnormalized outcome update a rho a^dagger of two matrices already
    checked by as_matrix, made exactly Hermitian so that dividing it by a
    small outcome probability cannot blow its round-off up past a
    Hermiticity check."""
    _same_dim(a, rho)
    return hermitian_part(a @ rho @ a.conj().T)


def projector(ket) -> np.ndarray:
    """Rank-one projector |k><k| onto a (normalized) ket."""
    k = as_ket(ket)
    return np.outer(k, k.conj())


def hermiticity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def is_hermitian(m, tol: float = 1e-12) -> bool:
    return hermiticity_defect(m) <= tol


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its first component with magnitude > 1e-10 is real positive."""
    for x in v:
        if abs(x) > _PHASE_TOL:
            return v * (x.conjugate() / abs(x))
    return v


def _canonical_basis(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of b's orthonormal columns, fixed by the
    span alone: the axes e_1, e_2, ... projected onto it and Gram-Schmidt
    orthonormalized in turn, skipping residuals below 1e-6.  e_j projects
    to b c_j with c_j = conj(b[j, :]), so the Gram-Schmidt runs on the c_j.

    The vectors come in the order of the axes they are built from.  Before
    any phasing each is real positive at its own axis, vanishes on the
    earlier axes that were kept, and is below 1e-6 (not necessarily zero)
    on the earlier axes that were skipped.
    """
    q: list[list[complex]] = []
    for c in b.conj().tolist():
        for u in q:
            s = sum(x.conjugate() * y for x, y in zip(u, c))
            c = [y - s * x for x, y in zip(u, c)]
        norm = math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in c))
        if norm > _BASIS_TOL:
            q.append([x / norm for x in c])
        if len(q) == b.shape[1]:
            break
    return b @ np.array(q).T


def _canonicalize(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvectors v of descending eigenvalues w in canonical form: each run
    of neighbours within 1e-10 shares one eigenspace, given its canonical
    basis when degenerate, and every vector is phased by _fix_phase."""
    wl = w.tolist()
    start = 0
    for i in range(1, len(wl) + 1):
        if i == len(wl) or wl[i - 1] - wl[i] > _TIE_TOL:
            if i - start > 1:
                v[:, start:i] = _canonical_basis(v[:, start:i])
            start = i
    return np.column_stack([_fix_phase(c) for c in v.T])


def hermitian_eig(m, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK plus a canonical
    post-pass.

    Returns (w, v): eigenvalues w sorted descending, eigenvectors as the
    columns v[:, i].  Each eigenvector is phased so its first component of
    magnitude > 1e-10 is real positive.  Eigenvalues whose neighbours agree
    within 1e-10 share one eigenspace.  Its basis is the axes e_1, e_2, ...
    projected onto it and Gram-Schmidt orthonormalized, skipping axes whose
    residual is below 1e-6, in the order of the axes kept.  Each such vector
    vanishes on the earlier kept axes but may keep a component below 1e-6 on
    an earlier skipped one.  Only when all those are below 1e-10 is it real
    positive at its own axis, and the eigenspace's vectors are then in
    descending lexicographic (real, imag) order, reading entries below 1e-10
    as zero.

    Raises NotHermitianError when m is not Hermitian within tol.
    """
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if not defect <= tol:
        raise NotHermitianError(
            f"matrix is not Hermitian within {tol:g} (defect {defect:.3g})"
        )
    w, v = np.linalg.eigh(hermitian_part(a))
    w, v = w[::-1].copy(), v[:, ::-1]
    return w, _canonicalize(w, v)
