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

# Tolerances, each named once.  Round-off on entries of order one is ~1e-15.

# State validity: entries and trace are sums of a few products, hence the
# tight bounds; a rank-deficient state, as every pure one is, has an
# eigenvalue that may read a little below 0.
HERMITIAN_TOL = 1e-12  # entrywise |m - m^dagger|
TRACE_TOL = 1e-12  # |tr rho - 1|; also |norm - 1| of a normalized ket
PSD_TOL = 1e-10  # how far below 0 the lowest eigenvalue may read
# below this a ket's squares are subnormal: it is rescaled, then normalized
KET_RESCALE_BELOW = math.sqrt(np.finfo(float).tiny)

# Completeness and orthonormality: products of up to 8 x 8 matrices, some
# built from typed kets, so looser than the state checks.  A fill is typed
# as decimals: thirds written to ten digits fall 1e-10 short of one.
ORTHONORMAL_TOL = 1e-10  # entrywise |C^dagger C - I|; ket overlaps
OVERLAP_TOL = 1e-10  # |tr(a b)| of states told apart with certainty
FILL_SUM_TOL = 1e-9  # |sum f - 1| of a fill's typed fractions

# Pruning: amounts at the state checks' round-off scale are noise, not gas.
PRUNE_TOL = 1e-12  # dropped outcomes, moles, mole fractions, eigen-mixture weights
SAME_STATE_TOL = 1e-12  # default entrywise gap of StatisticalMatrix.close_to
SNAP_TOL = 1e-12  # a printed number below this shows as 0

# Degeneracy and phase.  The cut-offs are far above round-off and far below
# O(1).  One residual cut-off serves canonical_basis, both for a degenerate
# eigenspace and for completing a rotation.
TIE_TOL = 1e-10  # gap of neighbouring eigenvalues sharing an eigenspace
PHASE_TOL = 1e-10  # first eigenvector entry above this is made real > 0
BASIS_TOL = 1e-6  # residual of an axis canonical_basis skips

# Closure: the default of --tol, the slack of mix, of cycle closure and of
# Q/(nT) > tol; looser than the state checks, as it compares whole protocol
# runs.  At MAX_TOL mix would pass an effect passing both chambers at 1/2.
CLOSURE_TOL = 1e-9
MAX_TOL = 0.5


def _as_array(x, what: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=complex)
    except ValueError:
        # numpy refuses ragged nesting, e.g. rows of different lengths
        raise DimensionError(f"{what} is not a regular array of numbers") from None


def as_matrix(m) -> np.ndarray:
    """Coerce m to a square complex array, enforcing the 1..8 dimension bound."""
    a = _as_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise DimensionError(f"dimension {a.shape[0]} outside 1..{MAX_DIM}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has a non-finite entry (nan or inf)")
    return a


def _norm(k: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, bit for bit: numpy's own formula
    without its call overhead."""
    re, im = k.real, k.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def as_ket(v) -> np.ndarray:
    """Coerce v to a unit vector: normalization is applied, then checked.
    A complex vector whose norm is exactly 1.0 is returned as is, since
    dividing it by 1.0 would change no bit."""
    k = _as_array(v, "ket")
    if k.ndim != 1:
        raise DimensionError(f"expected a flat ket, got shape {k.shape}")
    if not 1 <= k.size <= MAX_DIM:
        raise DimensionError(f"ket length {k.size} outside 1..{MAX_DIM}")
    with np.errstate(over="ignore"):
        norm = _norm(k)
    if norm == 1.0:
        return k
    if not KET_RESCALE_BELOW <= norm < math.inf:
        if not np.isfinite(k).all():
            raise DomainError("ket has a non-finite entry (nan or inf)")
        if not k.any():
            raise DomainError("cannot normalize a zero ket")
        # part by part: complex division by a subnormal gives nan
        top = np.max(np.abs(k))
        k = k.real / top + 1j * (k.imag / top)
        norm = _norm(k)
    k = k / norm
    if abs(_norm(k) - 1.0) > TRACE_TOL:
        raise DomainError("ket normalization failed")
    return k


def trace_product(a, b) -> complex:
    """tr(a b).  Cyclic, so symmetric in its two arguments."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.trace(a @ b))


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2: exactly Hermitian, whatever round-off m carries.
    On a stack of matrices, the Hermitian part of each."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def as_hermitian(m, message: str) -> np.ndarray:
    """Coerce m with as_matrix and return its exactly Hermitian part; raise
    NotHermitianError(message) when max|m - m^dagger| exceeds HERMITIAN_TOL.

    Finite entries near the float limit overflow to inf or nan in the
    Hermitian part without a warning, so a caller's checks must fail on
    them."""
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(a - a.conj().T)))
        h = hermitian_part(a)
    if not defect <= HERMITIAN_TOL:
        raise NotHermitianError(f"{message} (defect {defect:.3g})")
    return h


def check_orthonormal(columns: np.ndarray, error: type[Exception],
                      message: str) -> None:
    """Raise error(message) unless the columns are orthonormal: C^dagger C
    equals the identity within ORTHONORMAL_TOL entrywise (NaN fails, and
    entries whose products overflow give it without a warning)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(columns.conj().T @ columns - np.eye(columns.shape[1]))
    if not np.max(gap) <= ORTHONORMAL_TOL:
        raise error(message)


def isometry(columns: np.ndarray, error: type[Exception],
             message: str) -> np.ndarray:
    """The columns, checked by check_orthonormal, replaced by their polar
    factor: the nearest matrix with exactly orthonormal columns, frozen.
    Columns orthonormal only within ORTHONORMAL_TOL can move a probability
    or a trace past TRACE_TOL; their polar factor moves it by round-off."""
    check_orthonormal(columns, error, message)
    w, _, vh = np.linalg.svd(columns, full_matrices=False)
    out = w @ vh
    out.flags.writeable = False
    return out


def projector(ket) -> np.ndarray:
    """Rank-one projector |k><k| onto a (normalized) ket."""
    k = as_ket(ket)
    return np.outer(k, k.conj())


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its first component with magnitude > 1e-10 is real positive."""
    for x in v:
        if abs(x) > PHASE_TOL:
            return v * (x.conjugate() / abs(x))
    return v


def canonical_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the orthogonal projector p, fixed by
    the range alone: the axes e_1, e_2, ... projected by p (the columns of
    p) and Gram-Schmidt orthonormalized in turn, skipping residuals at or
    below BASIS_TOL, until tr p vectors are kept.  Returns them as columns.

    A kept residual is projected by p and orthogonalized once more before
    it is normalized: a small one carries round-off of about 1e-16 divided
    by its norm, outside the range and along the vectors kept before it.

    The vectors come in the order of the axes they are built from.  Before
    any phasing each is real positive at its own axis, vanishes on the
    earlier axes that were kept, and is below BASIS_TOL (not necessarily
    zero) on the earlier axes that were skipped.
    """
    rank = round(float(np.trace(p).real))
    q = np.zeros((p.shape[0], rank), dtype=complex)
    k = 0
    for c in p.T:
        if k == rank:
            break
        kept = q[:, :k]
        c = c - kept @ (kept.conj().T @ c)
        if math.sqrt(np.vdot(c, c).real) > BASIS_TOL:
            c = p @ c
            c = c - kept @ (kept.conj().T @ c)
            q[:, k] = c / math.sqrt(np.vdot(c, c).real)
            k += 1
    return q[:, :k]


def tied_runs(w: list[float]) -> list[tuple[int, int]]:
    """(start, stop) of each run of two or more descending eigenvalues w
    whose neighbours agree within TIE_TOL: the degenerate eigenspaces."""
    runs = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i - 1] - w[i] > TIE_TOL:
            if i - start > 1:
                runs.append((start, i))
            start = i
    return runs


def _canonicalize(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvectors v of descending eigenvalues w in canonical form: each run
    of neighbours within 1e-10 shares one eigenspace, given its canonical
    basis when degenerate, and every vector is phased by _fix_phase."""
    for start, stop in tied_runs(w.tolist()):
        b = v[:, start:stop]
        v[:, start:stop] = canonical_basis(b @ b.conj().T)
    return np.column_stack([_fix_phase(c) for c in v.T])


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
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

    Raises NotHermitianError when m is not Hermitian within HERMITIAN_TOL
    and DomainError when its Hermitian part overflows the float range.
    """
    a = as_hermitian(m, f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries overflow the float range")
    w, v = np.linalg.eigh(a)
    w, v = w[::-1].copy(), v[:, ::-1]
    return w, _canonicalize(w, v)


def eigenprojectors(m) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig's eigenvalues of m and the (d, d, d) stack of the
    rank-one projectors |v_i><v_i| onto its eigenvectors, in that order.
    Raises DomainError unless every eigenvector has unit norm within
    TRACE_TOL."""
    w, v = hermitian_eig(m)
    k = v.T
    if not np.all(np.abs(np.linalg.norm(k, axis=1) - 1.0) <= TRACE_TOL):
        raise DomainError("ket normalization failed")
    return w, k[:, :, None] * k.conj()[:, None, :]
