import math

import numpy as np
import pytest

from conftest import ALPHA_MINUS, ALPHA_PLUS, ALPHA_PLUS_KET, MIXTURE, R2, X_PLUS, Z_MINUS, Z_PLUS
from util import random_hermitian, random_unitary
from qgas import linalg
from qgas.errors import DimensionError, DomainError, NotHermitianError


def test_trace_product_identity():
    eye = np.eye(2)
    assert linalg.trace_product(eye, eye) == 2


def test_trace_product_z_x():
    # hand multiplication: z+ x+ = [[1/2, 1/2], [0, 0]], trace 1/2
    assert abs(linalg.trace_product(Z_PLUS, X_PLUS) - 0.5) < 1e-15


def test_trace_product_alphas_orthogonal():
    assert abs(linalg.trace_product(ALPHA_PLUS, ALPHA_MINUS)) < 1e-15


def test_trace_product_cyclic(rng):
    for _ in range(200):
        n = rng.integers(1, 5)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(linalg.trace_product(a, b) - linalg.trace_product(b, a)) <= 1e-14 * max(
            1.0, abs(linalg.trace_product(a, b))
        )


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.trace_product(np.eye(2), np.eye(3))


def test_trace_product_hermitian_inputs_near_real(rng):
    for _ in range(50):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        t = linalg.trace_product(a, b)
        assert abs(t.imag) <= 1e-12 * max(1.0, abs(t))


def test_conjugate_identity():
    assert np.allclose(linalg.conjugate(np.eye(2), Z_PLUS), Z_PLUS)


def test_conjugate_z_on_x():
    # hand multiplication: z+ x+ z+ has a single 1/2 entry at (0, 0)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 0.5
    assert np.allclose(linalg.conjugate(Z_PLUS, X_PLUS), expected, atol=1e-15)


def test_conjugate_orthogonal_annihilates():
    out = linalg.conjugate(Z_MINUS, Z_PLUS)
    assert np.max(np.abs(out)) < 1e-15


def test_conjugate_preserves_hermiticity_and_positivity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = c @ c.conj().T
        rho /= np.trace(rho)
        out = linalg.conjugate(a, rho)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) >= -1e-10


def test_conjugate_dimension_mismatch():
    with pytest.raises(DimensionError):
        linalg.conjugate(np.eye(2), np.eye(3))


def test_hermitian_eig_already_diagonal():
    w, v = linalg.hermitian_eig(np.diag([1.0, 0.0]))
    assert np.allclose(w, [1.0, 0.0])
    assert np.allclose(v, np.eye(2))


def test_hermitian_eig_mixture():
    w, v = linalg.hermitian_eig(MIXTURE)
    assert abs(w[0] - (2 + R2) / 4) < 1e-12
    assert abs(w[1] - (2 - R2) / 4) < 1e-12
    # eigenvectors match the optimal separation kets up to phase
    assert abs(abs(np.vdot(v[:, 0], ALPHA_PLUS_KET)) - 1) < 1e-10
    proj = np.outer(v[:, 1], v[:, 1].conj())
    assert np.max(np.abs(proj - ALPHA_MINUS)) < 1e-10


def test_hermitian_eig_degenerate_tie_break():
    # characteristic polynomial of I/2 is (x - 1/2)^2: both eigenvalues 1/2,
    # and the tie-break keeps the canonical basis
    w, v = linalg.hermitian_eig(np.eye(2) * 0.5)
    assert np.allclose(w, [0.5, 0.5])
    assert np.allclose(v, np.eye(2))


def test_hermitian_eig_block_degenerate():
    # 1/2 (|e0><e0| + |x-like><x-like|) in dim 4: eigenvalues (1/2, 1/2, 0, 0)
    # with the canonical tie-break putting e0 before the (e2+e3) vector
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[2:, 2:] = 0.25
    w, v = linalg.hermitian_eig(m)
    assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(v[:, 0], [1, 0, 0, 0])
    assert np.allclose(v[:, 1], [0, 0, 1 / R2, 1 / R2])


def test_hermitian_eig_reconstruction(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        h = random_hermitian(rng, n)
        w, v = linalg.hermitian_eig(h)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - h)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
        assert all(w[i] >= w[i + 1] - 1e-12 for i in range(n - 1))


def test_hermitian_eig_matches_lapack_up_to_dim_8(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        h = random_hermitian(rng, n, scale=3.0)
        w, _ = linalg.hermitian_eig(h)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(h))) < 1e-10


def test_hermitian_eig_deterministic(rng):
    h = random_hermitian(rng, 5)
    w1, v1 = linalg.hermitian_eig(h)
    w2, v2 = linalg.hermitian_eig(h.copy())
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


def test_hermitian_eig_phase_convention(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        _, v = linalg.hermitian_eig(random_hermitian(rng, n))
        for i in range(n):
            lead = next(x for x in v[:, i] if abs(x) > 1e-10)
            assert lead.real > 0
            assert abs(lead.imag) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("dim", range(2, 9))
def test_hermitian_eig_degenerate_basis_is_canonical(rng, dim):
    # a projector built from two different orthonormal bases of its range
    # gives the same eigenvectors, for a random range and for one spanned
    # by coordinate axes alike
    for k in range(1, dim):
        for u in (random_unitary(rng, dim), np.eye(dim)[:, rng.permutation(dim)]):
            b = u[:, :k]
            c = b @ random_unitary(rng, k)
            w1, v1 = linalg.hermitian_eig(b @ b.conj().T)
            w2, v2 = linalg.hermitian_eig(c @ c.conj().T)
            assert np.max(np.abs(w1 - w2)) <= 1e-12
            assert np.max(np.abs(v1 - v2)) <= 1e-12
            assert np.max(np.abs(v1.conj().T @ v1 - np.eye(dim))) <= 1e-12


def test_hermitian_eig_skipped_axis_keeps_small_component(rng):
    # the 1-eigenspace is within 1e-8 of orthogonal to e_1, so e_1 is skipped
    # and its basis is built from e_2 and e_3; both vectors keep a component
    # of about 1e-8 on e_1, which then sets their phase
    b, _ = np.linalg.qr(np.array([[1e-8 * np.exp(0.3j), 2e-8 * np.exp(-1.1j)],
                                  [1, 0], [0, 1], [0, 0]]))
    projector = b @ b.conj().T
    w1, v1 = linalg.hermitian_eig(projector)
    c = b @ random_unitary(rng, 2)
    _, v2 = linalg.hermitian_eig(c @ c.conj().T)
    assert np.allclose(w1, [1, 1, 0, 0], atol=1e-12)
    assert np.max(np.abs(projector @ v1 - v1 * w1)) <= 1e-12
    assert np.max(np.abs(v1.conj().T @ v1 - np.eye(4))) <= 1e-12
    assert np.max(np.abs(np.abs(v1[:, :2]) - np.eye(4)[:, 1:3])) <= 1e-6
    for lead in v1[0, :2]:
        assert 1e-10 < abs(lead) < 1e-6
        assert lead.real > 0 and abs(lead.imag) <= 1e-22
    assert np.max(np.abs(v1 - v2)) <= 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_non_finite_entries_rejected(bad):
    m = np.eye(2, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(DomainError):
        linalg.as_matrix(m)
    with pytest.raises(DomainError):
        linalg.hermitian_eig(m)
    with pytest.raises(DomainError):
        linalg.as_ket([1, bad])
    with pytest.raises(DomainError):
        linalg.projector([bad, 0])


def test_dimension_bound():
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.eye(9))
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.ones((2, 3)))


def test_ragged_input_is_a_dimension_error():
    with pytest.raises(DimensionError, match="matrix is not a regular array"):
        linalg.as_matrix([[1, 0], [0]])
    with pytest.raises(DimensionError, match="ket is not a regular array"):
        linalg.as_ket([1, [0, 1]])


def test_as_ket_normalizes():
    k = linalg.as_ket([1, 1])
    assert abs(np.linalg.norm(k) - 1) < 1e-12
    assert np.allclose(k, [1 / math.sqrt(2)] * 2)
    with pytest.raises(DomainError):
        linalg.as_ket([0, 0])


def test_as_ket_rejects_a_matrix():
    # flattening used to turn this into a 4-entry ket
    with pytest.raises(DimensionError, match="expected a flat ket"):
        linalg.as_ket([[1, 0], [0, 1]])


@pytest.mark.parametrize("tiny, unit", [
    ([1e-13, 0], [1, 0]),
    ([1e-13, 1e-13], [1 / math.sqrt(2)] * 2),
    ([5e-324, 0], [1, 0]),  # the smallest subnormal: its norm underflows to 0
    ([1e-160, 1e-160j], [1 / math.sqrt(2), 1j / math.sqrt(2)]),
    # complex division by a subnormal used to give nan here; subnormals
    # carry few digits, so the expected ratio is the floats' own
    ([1e-320, 3e-321], np.array([1, 3e-321 / 1e-320]) / math.hypot(1, 3e-321 / 1e-320)),
])
def test_as_ket_normalizes_tiny_nonzero_kets(tiny, unit):
    # only an all-zero ket is zero, whatever the size of its entries
    assert np.allclose(linalg.as_ket(tiny), unit, rtol=0, atol=1e-12)


def test_zero_ket_message():
    with pytest.raises(DomainError, match="cannot normalize a zero ket"):
        linalg.as_ket([0, 0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_as_ket_normalizes_finite_entries_whose_norm_overflows():
    # the norm of these entries is above the largest float; the ket is not
    assert np.allclose(linalg.as_ket([1e200, 0]), [1, 0])
    assert np.allclose(linalg.as_ket([1e308, 1e308j]), [1 / math.sqrt(2), 1j / math.sqrt(2)])
