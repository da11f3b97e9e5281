import warnings

import numpy as np
import pytest

from conftest import (
    ALPHA_MINUS,
    ALPHA_MINUS_KET,
    ALPHA_PLUS,
    ALPHA_PLUS_KET,
    MIXTURE,
    P_HI,
    P_LO,
    R2,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
)
from util import random_povm, random_state, random_unitary, skewed_ket
from qgas import linalg
from qgas.errors import (
    DimensionError,
    DomainError,
    NotHermitianError,
    PovmError,
    StateError,
)
from qgas.quantum import (
    Povm,
    StatisticalMatrix,
    are_orthogonal,
    measure,
    optimal_separation_povm,
)

E0, E1, E2, E3 = np.eye(4, dtype=complex)
Z2 = np.eye(2, dtype=complex)


def sm(matrix):
    return StatisticalMatrix(matrix)


def zpovm():
    return Povm.projective([Z2[0], Z2[1]], labels=("z+", "z-"))


def apovm():
    return Povm.projective([ALPHA_PLUS_KET, ALPHA_MINUS_KET], labels=("a+", "a-"))


class TestStatisticalMatrix:
    def test_accepts_valid(self):
        s = sm(MIXTURE)
        assert s.dim == 2
        assert repr(s) == "<state dim=2>"

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            sm(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateError):
            sm(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(StateError):
            sm(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("matrix", [
        [[1e308, 1e308], [1e308, 1e308]],
        [[1e308, 0], [0, 1e308]],
        [[0.5, 1e308], [1e308, 0.5]],
    ])
    def test_rejects_entries_whose_hermitian_part_overflows(self, matrix):
        # the Hermitian part overflows to inf and nan, which both the trace
        # and the positivity check must reject
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError):
                sm(np.array(matrix))

    def test_matrix_is_read_only(self):
        s = sm(Z_PLUS)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 2.0


class TestDerived:
    def test_stores_what_the_full_check_stores(self, rng):
        for dim in range(1, 9):
            c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = c @ c.conj().T
            m = m / np.trace(m) + 1e-14j * rng.normal(size=(dim, dim))
            full = sm(m)
            (derived,) = StatisticalMatrix._derived(m[None])
            assert derived.matrix.tobytes() == full.matrix.tobytes()
            assert not derived.matrix.flags.writeable

    def test_checks_the_trace(self):
        with pytest.raises(StateError, match="trace must be 1, got 2"):
            StatisticalMatrix._derived(np.eye(2, dtype=complex)[None])


class TestPovm:
    def test_completeness_enforced(self):
        with pytest.raises(PovmError):
            Povm.projective([Z2[0], np.array([1, 1]) / R2])

    def test_no_effect_rejected(self):
        with pytest.raises(PovmError, match="a POVM needs at least one effect"):
            Povm(())

    def test_one_label_per_effect(self):
        with pytest.raises(PovmError, match="need one outcome label per effect"):
            Povm((np.eye(2),), ("a", "b"))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            Povm((np.eye(2), np.zeros((3, 3))))

    def test_effects_whose_products_overflow_rejected(self):
        # A^dagger A of a 1e200 effect overflows; it used to warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PovmError):
                Povm((1e200 * np.eye(2), np.eye(2)))

    def test_labels_default(self):
        p = zpovm()
        assert p.outcome_labels == ("z+", "z-")
        assert len(Povm((np.eye(2),)).outcome_labels) == 1

    def test_effects_are_one_read_only_stack(self):
        p = apovm()
        assert isinstance(p.effects, np.ndarray)
        assert p.effects.shape == (2, 2, 2)
        assert not p.effects.flags.writeable
        with pytest.raises(ValueError):
            p.effects[0, 0, 0] = 0.5
        assert np.allclose(p.effects[0], sm(ALPHA_PLUS).matrix, atol=1e-12)


class TestMeasure:
    def test_projective_on_eigenstate(self):
        results = measure(zpovm(), sm(Z_PLUS))
        assert results[0][0] == pytest.approx(1.0, abs=1e-12)
        assert results[0][1].close_to(sm(Z_PLUS))
        assert results[1][0] == pytest.approx(0.0, abs=1e-12)
        assert results[1][1] is None

    def test_alpha_membranes_on_z(self):
        results = measure(apovm(), sm(Z_PLUS))
        assert results[0][0] == pytest.approx(P_HI, abs=1e-12)
        assert results[1][0] == pytest.approx(P_LO, abs=1e-12)
        assert results[0][1].close_to(sm(ALPHA_PLUS), tol=1e-10)
        assert results[1][1].close_to(sm(ALPHA_MINUS), tol=1e-10)

    def test_alpha_membranes_on_x(self):
        results = measure(apovm(), sm(X_PLUS))
        assert results[0][0] == pytest.approx(P_HI, abs=1e-12)
        assert results[1][0] == pytest.approx(P_LO, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            measure(zpovm(), sm(np.eye(4) / 4))

    def test_probabilities_normalize_random(self, rng):
        for _ in range(200):
            dim = int(rng.choice([2, 4]))
            povm = random_povm(rng, dim, int(rng.integers(2, 5)))
            total = sum(a.conj().T @ a for a in povm.effects)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-10
            results = measure(povm, random_state(rng, dim))
            probs = [p for p, _ in results]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert abs(sum(probs) - 1.0) <= 1e-10

    def test_post_states_are_valid(self, rng):
        for _ in range(50):
            dim = int(rng.choice([2, 4]))
            povm = random_povm(rng, dim, 3)
            for _, post in measure(povm, random_state(rng, dim)):
                if post is not None:
                    assert abs(np.trace(post.matrix) - 1) < 1e-10

    def test_small_probability_post_states(self, rng):
        # a rho a^dag carries round-off of ~1e-18, so dividing it by a
        # probability near 1e-9 leaves the post state accurate to ~1e-9 and
        # used to fail the 1e-12 Hermiticity check
        for _ in range(200):
            u = random_unitary(rng, 8)
            povm = Povm.projective([u[:, i] for i in range(8)])
            results = measure(povm, StatisticalMatrix.pure(skewed_ket(rng, u)))
            for i, (_, post) in enumerate(results):
                assert post.close_to(StatisticalMatrix.pure(u[:, i]), tol=1e-7)

    def test_outcome_read_past_one_is_normalized_by_its_trace(self):
        # complete within ORTHONORMAL_TOL, this effect reads a trace of
        # 1 + 5e-11; dividing by the probability clamped to 1 failed the
        # post state's trace check
        povm = Povm((np.sqrt(1 + 5e-11) * np.diag([1, 0]), np.diag([0, 1.0])))
        (p_up, up), (_, down) = measure(povm, sm(np.diag([1.0, 0])))
        assert p_up == 1.0
        assert np.trace(up.matrix) == pytest.approx(1.0, abs=1e-15)
        assert down is None


class TestOrthogonality:
    def test_distinguishable(self):
        assert are_orthogonal(sm(Z_PLUS), sm(Z_MINUS))

    def test_not_distinguishable(self):
        assert not are_orthogonal(sm(Z_PLUS), sm(X_PLUS))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError) as err:
            are_orthogonal(sm(Z_PLUS), sm(np.eye(3) / 3))
        assert str(err.value) == "dimension mismatch: 2 vs 3"

    def test_lab_level_species_states(self):
        # pure species states in the 4-dim lab are orthogonal even though
        # the coarse observer writes them as overlapping spin matrices
        primed_z = sm(np.outer(E0, E0))
        doubled_x = sm(np.outer((E2 + E3) / R2, (E2 + E3) / R2))
        assert are_orthogonal(primed_z, doubled_x)

    def test_no_perfect_discrimination(self, rng):
        # no two-outcome POVM passes one of two overlapping states with
        # certainty while fully blocking the other
        hits = 0
        for trial in range(200):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_state(rng, dim), random_state(rng, dim)
            overlap = np.trace(rho.matrix @ sigma.matrix).real
            if overlap <= 1e-6:
                continue
            hits += 1
            if trial % 2:
                povm = random_povm(rng, dim, 2)
            else:
                # adversarial attempt: project onto the support of rho
                w, v = np.linalg.eigh(rho.matrix)
                keep = v[:, w > 1e-12]
                proj = keep @ keep.conj().T
                povm = Povm((proj, np.eye(dim) - proj))
            for i in (0, 1):
                a = povm.effects[i]
                p_rho = np.trace(a @ rho.matrix @ a.conj().T).real
                p_sigma = np.trace(a @ sigma.matrix @ a.conj().T).real
                assert not (p_rho > 1 - 1e-9 and p_sigma < 1e-9)
        assert hits > 150


class TestOptimalSeparation:
    def test_mixture_of_z_and_x(self):
        povm = optimal_separation_povm(sm((Z_PLUS + X_PLUS) / 2))
        assert povm.outcome_labels == ("eig0", "eig1")
        assert np.max(np.abs(povm.effects[0] - ALPHA_PLUS)) < 1e-10
        assert np.max(np.abs(povm.effects[1] - ALPHA_MINUS)) < 1e-10

    def test_orthogonal_mixture_tie_is_rejected(self):
        # I/2 has every basis for an eigenbasis: no membranes are the best
        with pytest.raises(DomainError, match="eigenvalue 0.5 of multiplicity 2"):
            optimal_separation_povm(sm((Z_PLUS + Z_MINUS) / 2))

    def test_tie_among_near_equal_kept_eigenvalues_is_rejected(self):
        # eigenvalues TIE_TOL / 2 apart tie, 2 TIE_TOL apart do not
        step = linalg.TIE_TOL / 4
        with pytest.raises(DomainError, match="multiplicity 2"):
            optimal_separation_povm(sm(np.diag([0.5 + step, 0.5 - step])))
        split = optimal_separation_povm(sm(np.diag([0.5 + 4 * step, 0.5 - 4 * step])))
        assert np.max(np.abs(split.effects - np.array([Z_PLUS, Z_MINUS]))) < 1e-12

    def test_two_species_mixture_in_dim_4(self):
        # unequal weights: the two kept eigenvalues differ, the two dropped
        # zeros may tie
        primed_z = sm(np.outer(E0, E0))
        doubled_x = sm(np.outer((E2 + E3) / R2, (E2 + E3) / R2))
        povm = optimal_separation_povm(
            sm(0.7 * primed_z.matrix + 0.3 * doubled_x.matrix))
        assert len(povm) == 4
        assert np.max(np.abs(povm.effects[0] - primed_z.matrix)) < 1e-10
        assert np.max(np.abs(povm.effects[1] - doubled_x.matrix)) < 1e-10

    def test_effects_mutually_orthogonal(self, rng):
        for _ in range(25):
            dim = int(rng.choice([2, 4]))
            weights = rng.random(3)
            weights /= weights.sum()
            aggregate = sum(w * random_state(rng, dim).matrix for w in weights)
            povm = optimal_separation_povm(sm(aggregate))
            for i in range(len(povm)):
                for j in range(i + 1, len(povm)):
                    tr = np.trace(povm.effects[i] @ povm.effects[j])
                    assert abs(tr) <= 1e-10
