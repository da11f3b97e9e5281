import dataclasses
import math

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
from util import random_povm, random_state, random_unitary
from qgas.errors import BasisError, DimensionError, EmbeddingError
from qgas.observers import (
    Observer,
    build_observer,
    coarse_grain,
    equivalence_mismatch,
    identity_observer,
    lift_through,
    states_equivalent,
    view,
)
from qgas.quantum import Povm, StatisticalMatrix, measure
from qgas.thermo import Chamber, LabState, canonical_contents

E4 = np.eye(4, dtype=complex)
E2 = np.eye(2, dtype=complex)


def tatiana():
    table = [(E4[0], E2[0]), (E4[1], E2[1]), (E4[2], E2[0]), (E4[3], E2[1])]
    return build_observer(table, 2, "tatiana")


def johann():
    one = np.array([1.0])
    return build_observer([(E2[0], one), (E2[1], one)], 1, "johann")


def lab_of(chambers, dim):
    return LabState(1.0, chambers, dim)


def pure4(index):
    return StatisticalMatrix.pure(E4[index])


class TestBuildObserver:
    def test_tatiana_has_two_sectors(self):
        obs = tatiana()
        assert len(obs.sector_isometries) == 2
        assert obs.sector_isometries[0].shape == (2, 4)
        total = sum(v.conj().T @ v for v in obs.sector_isometries)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_partly_overlapping_images_each_start_a_sector(self):
        # a row joins a sector only if its image is orthogonal to all of the
        # sector's images: |<a|b>| = 0.3 keeps e0 -> a and e1 -> b apart
        a, b = E2[0], np.array([0.3, math.sqrt(0.91)])
        e3 = np.eye(3)
        obs = build_observer([(e3[0], a), (e3[1], b), (e3[2], a)], obs_dim=2)
        assert obs.sector_isometries.shape == (3, 2, 3)

    def test_sectors_are_one_read_only_stack(self):
        obs = tatiana()
        assert [f.name for f in dataclasses.fields(obs)] == ["name", "sector_isometries"]
        assert obs.sector_isometries.shape == (2, 2, 4)
        assert (obs.obs_dim, obs.lab_dim) == (2, 4)
        assert not obs.sector_isometries.flags.writeable
        assert (johann().obs_dim, johann().lab_dim) == (1, 2)

    def test_identity_observer_single_isometry(self):
        obs = identity_observer(4)
        assert len(obs.sector_isometries) == 1
        assert np.allclose(obs.sector_isometries[0], np.eye(4))

    def test_johann_isometry_rows(self):
        # V1 = |Ar><aAr| and V2 = |Ar><bAr|; V1^dag V1 + V2^dag V2 = I2
        obs = johann()
        assert len(obs.sector_isometries) == 2
        assert np.allclose(obs.sector_isometries[0], [[1, 0]])
        assert np.allclose(obs.sector_isometries[1], [[0, 1]])

    def test_rejects_non_orthonormal_lab_kets(self):
        with pytest.raises(BasisError):
            build_observer([(E2[0], E2[0]), ([1, 1], E2[1])], 2)

    def test_rejects_empty_table(self):
        with pytest.raises(BasisError, match="observer table is empty"):
            build_observer([], 1)

    def test_rejects_lab_kets_of_mixed_dimension(self):
        with pytest.raises(BasisError, match="lab kets must share one dimension"):
            build_observer([(E2[0], E2[0]), (E4[1], E2[1])], 2)

    def test_rejects_incomplete_lab_basis(self):
        with pytest.raises(BasisError):
            build_observer([(E4[0], E2[0]), (E4[1], E2[1])], 2)


class TestObserverChecksItself:
    """An Observer built directly is checked and snapped as build_observer's
    is: its stacked sectors must have orthonormal columns."""

    @pytest.mark.parametrize("stack, error, message", [
        (np.zeros((1, 2, 2)), BasisError, "channel is not trace preserving"),
        (np.full((1, 2, 2), np.nan), BasisError, "channel is not trace preserving"),
        (np.zeros((0, 2, 2)), BasisError, "channel is not trace preserving"),
        (np.eye(2), DimensionError, r"got shape \(2, 2\)"),
        (np.eye(9)[:, :2][None], DimensionError, r"got shape \(1, 9, 2\)"),
        ([[[1, 0]], [[1]]], DimensionError, "not a regular array"),
    ], ids=["zeros", "nan", "no-sectors", "2-d", "obs-dim-9", "ragged"])
    def test_rejects(self, stack, error, message):
        with pytest.raises(error, match=message):
            Observer("o", stack)

    def test_nearly_isometric_stack_is_snapped_and_read_only(self):
        stack = tatiana().sector_isometries + 1e-11
        gap = np.abs(np.einsum("kji,kjl->il", stack.conj(), stack) - np.eye(4))
        assert np.max(gap) > 1e-11
        v = Observer("o", stack).sector_isometries
        gap = np.abs(np.einsum("kji,kjl->il", v.conj(), v) - np.eye(4))
        assert np.max(gap) <= 1e-15
        assert np.max(np.abs(v - stack)) <= 1e-10
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0, 0] = 1

    def test_identity_observer_of_dim_zero(self):
        with pytest.raises(DimensionError):
            identity_observer(0)

class TestCoarseGrain:
    def test_both_species_look_like_z(self):
        obs = tatiana()
        for index in (0, 2):
            out = coarse_grain(obs, pure4(index))
            assert out.close_to(StatisticalMatrix(Z_PLUS))

    def test_doubled_x_looks_like_x(self):
        obs = tatiana()
        doubled_x = StatisticalMatrix.pure((E4[2] + E4[3]) / R2)
        assert coarse_grain(obs, doubled_x).close_to(StatisticalMatrix(X_PLUS), tol=1e-12)

    def test_identity_channel(self):
        obs = identity_observer(2)
        rho = StatisticalMatrix(MIXTURE)
        assert coarse_grain(obs, rho).close_to(rho)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            coarse_grain(tatiana(), StatisticalMatrix(Z_PLUS))

    def test_trace_preserving_and_positive(self, rng):
        observers = [tatiana(), johann(), identity_observer(4)]
        for i in range(200):
            obs = observers[i % len(observers)]
            rho = random_state(rng, obs.lab_dim)
            out = coarse_grain(obs, rho)
            assert abs(np.trace(out.matrix) - 1) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-10


class TestLiftConsistency:
    def test_probabilities_match_for_sector_supported_states(self, rng):
        # random observer: lab basis from a random unitary, one shared
        # observer basis across sectors
        for _ in range(40):
            obs_dim = int(rng.choice([1, 2]))
            sectors = int(rng.choice([1, 2]))
            lab_dim = obs_dim * sectors
            lab_basis = random_unitary(rng, lab_dim)
            obs_basis = random_unitary(rng, obs_dim)
            table = []
            for k in range(sectors):
                for r in range(obs_dim):
                    table.append((lab_basis[:, k * obs_dim + r], obs_basis[:, r]))
            obs = build_observer(table, obs_dim, "random")
            povm = random_povm(rng, obs_dim, 2)
            lifted = lift_through(obs, povm)
            sector = int(rng.integers(0, sectors))
            rho_obs = random_state(rng, obs_dim)
            v = obs.sector_isometries[sector]
            rho_lab = StatisticalMatrix(v.conj().T @ rho_obs.matrix @ v)
            got = [p for p, _ in measure(lifted, rho_lab)]
            want = [p for p, _ in measure(povm, coarse_grain(obs, rho_lab))]
            assert got == pytest.approx(want, abs=1e-9)

    def test_sectors_may_realize_different_bases(self):
        # sector 1 realizes a rotated observer basis; the dual channel
        # needs no basis shared across sectors
        u = np.array([[1, 1], [1, -1]]) / R2
        table = [(E4[0], E2[0]), (E4[1], E2[1]), (E4[2], u[:, 0]), (E4[3], u[:, 1])]
        obs = build_observer(table, 2, "skew")
        povm = apovm()
        lifted = lift_through(obs, povm)
        for v in obs.sector_isometries:
            for rho_obs in (StatisticalMatrix(Z_PLUS), StatisticalMatrix(MIXTURE)):
                rho_lab = StatisticalMatrix(v.conj().T @ rho_obs.matrix @ v)
                got = [p for p, _ in measure(lifted, rho_lab)]
                want = [p for p, _ in measure(povm, coarse_grain(obs, rho_lab))]
                assert got == pytest.approx(want, abs=1e-12)


def zpovm():
    return Povm.projective([E2[0], E2[1]], labels=("z+", "z-"))


def apovm():
    return Povm.projective([ALPHA_PLUS_KET, ALPHA_MINUS_KET], labels=("a+", "a-"))


class TestLiftThrough:
    def test_alpha_membranes_lift_to_block_form(self):
        lifted = lift_through(tatiana(), apovm())
        for sign, effect in zip((+1, -1), lifted.effects):
            block = np.array([[2 + sign * R2, sign * R2],
                              [sign * R2, 2 - sign * R2]]) / 4
            expected = np.zeros((4, 4), dtype=complex)
            expected[:2, :2] = block
            expected[2:, 2:] = block
            assert np.max(np.abs(effect - expected)) < 1e-12

    def test_z_membranes_lift_by_sector_sum(self):
        lifted = lift_through(tatiana(), zpovm())
        assert np.allclose(lifted.effects[0], np.diag([1, 0, 1, 0]))
        assert np.allclose(lifted.effects[1], np.diag([0, 1, 0, 1]))
        assert lifted.outcome_labels == ("z+", "z-")
        total = sum(a.conj().T @ a for a in lifted.effects)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_identity_povm_lifts_to_identity(self):
        lifted = lift_through(tatiana(), Povm((np.eye(2),), ("id",)))
        assert np.allclose(lifted.effects[0], np.eye(4))

    def test_probabilities_commute_with_lift(self):
        # measuring the lifted membranes on a state supported in one sector
        # reproduces the observer-space probabilities
        obs = tatiana()
        rho_obs = StatisticalMatrix(MIXTURE)
        lifted = lift_through(obs, apovm())
        for v in obs.sector_isometries:
            rho_lab = StatisticalMatrix(v.conj().T @ rho_obs.matrix @ v)
            got = [p for p, _ in measure(lifted, rho_lab)]
            want = [p for p, _ in measure(apovm(), rho_obs)]
            assert got == pytest.approx(want, abs=1e-10)

    def test_short_sector_rejected(self):
        # e2 and e3 both look like z+: three sectors, two of them realize
        # only z+ and cannot carry a z- membrane into the lab
        table = [(E4[0], E2[0]), (E4[1], E2[1]), (E4[2], E2[0]), (E4[3], E2[0])]
        obs = build_observer(table, 2, "short")
        assert len(obs.sector_isometries) == 3
        with pytest.raises(EmbeddingError, match="sector 1"):
            lift_through(obs, zpovm())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lift_through(tatiana(), Povm.projective(list(E4)))


class TestView:
    def test_view_is_the_coarse_grained_lab(self, rng):
        lab = lab_of([Chamber("a", 2.0, 0.75, random_state(rng, 4)),
                      Chamber("empty", 0.5),
                      Chamber("b", 0.25, 1.5, pure4(3))], 4)
        for obs in (tatiana(), identity_observer(4)):
            seen = view(obs, lab)
            assert isinstance(seen, LabState)
            assert seen.temperature == lab.temperature
            assert seen.lab_dim == obs.obs_dim
            assert list(seen.chambers) == list(lab.chambers)
            for name, ch in lab.chambers.items():
                chv = seen.chambers[name]
                assert (chv.name, chv.volume, chv.moles) == \
                    (name, ch.volume, ch.moles)
                if ch.state is None:
                    assert chv.state is None
                else:
                    assert np.array_equal(chv.state.matrix,
                                          coarse_grain(obs, ch.state).matrix)

    def test_tatiana_sees_alpha_mixture(self):
        d_x = StatisticalMatrix.pure((E4[2] + E4[3]) / R2)
        mixed = Chamber("cell", 1.0, 1.0,
                        StatisticalMatrix((pure4(0).matrix + d_x.matrix) / 2))
        result = view(tatiana(), lab_of([mixed], 4))
        (chv,) = result.chambers.values()
        assert chv.volume == 1.0
        assert chv.moles == pytest.approx(1.0)
        mixture = canonical_contents(chv)
        weights = [w for w, _ in mixture]
        assert weights == pytest.approx([P_HI, P_LO], abs=1e-10)
        assert mixture[0][1].close_to(StatisticalMatrix(ALPHA_PLUS), tol=1e-10)

    def test_johann_sees_the_same_argon_everywhere(self):
        up = Chamber("up", 0.5, 0.5, StatisticalMatrix(Z_PLUS))
        low = Chamber("low", 0.5, 0.5, StatisticalMatrix(Z_MINUS))
        result = view(johann(), lab_of([up, low], 2))
        for chv in result.chambers.values():
            ((weight, state),) = canonical_contents(chv)
            assert weight == pytest.approx(1.0, abs=1e-12)
            assert state.dim == 1

    def test_identity_view_returns_lab_aggregate(self):
        cell = Chamber("c", 2.0, 1.0, StatisticalMatrix(MIXTURE))
        result = view(identity_observer(2), lab_of([cell], 2))
        recon = sum(w * s.matrix for w, s in canonical_contents(result.chamber("c")))
        assert np.max(np.abs(recon - MIXTURE)) < 1e-10


class TestStatesEquivalent:
    def lab_pair(self):
        a = lab_of(
            [Chamber("up", 0.5, 0.5, pure4(0)),
             Chamber("low", 0.5, 0.5, pure4(2))], 4)
        # same volumes and moles, but species swapped in the low chamber
        b = lab_of(
            [Chamber("up", 0.5, 0.5, pure4(0)),
             Chamber("low", 0.5, 0.5, pure4(0))], 4)
        return a, b

    def test_reflexive_and_symmetric(self):
        a, b = self.lab_pair()
        for obs in (tatiana(), identity_observer(4)):
            assert states_equivalent(obs, a, a)
            assert states_equivalent(obs, a, b) == states_equivalent(obs, b, a)

    def test_coarse_observer_cannot_tell_species_apart(self):
        a, b = self.lab_pair()
        assert states_equivalent(tatiana(), a, b)
        assert not states_equivalent(identity_observer(4), a, b)

    def test_identity_equivalence_implies_coarse_equivalence(self, rng):
        for _ in range(20):
            rho = random_state(rng, 4)
            lab1 = lab_of([Chamber("c", 1.0, 1.0, rho)], 4)
            lab2 = lab_of([Chamber("c", 1.0, 1.0, rho)], 4)
            assert states_equivalent(identity_observer(4), lab1, lab2)
            assert states_equivalent(tatiana(), lab1, lab2)

    def test_volume_and_mole_differences_detected(self):
        base = lab_of([Chamber("c", 1.0, 1.0, pure4(0))], 4)
        bigger = lab_of([Chamber("c", 2.0, 1.0, pure4(0))], 4)
        fewer = lab_of([Chamber("c", 1.0, 0.5, pure4(0))], 4)
        assert not states_equivalent(tatiana(), base, bigger)
        assert not states_equivalent(tatiana(), base, fewer)

    def test_chamber_empty_on_one_side_only(self):
        # 1e-12 moles pass the mole check at tol 1e-9; the emptiness does not
        d = Chamber("d", 1.0, 1.0, pure4(0))
        filled = lab_of([Chamber("c", 1.0, 1e-12, pure4(1)), d], 4)
        empty = lab_of([Chamber("c", 1.0), d], 4)
        for a, b in ((filled, empty), (empty, filled)):
            assert equivalence_mismatch(tatiana(), a, b, 1e-9) == \
                "chamber 'c' is empty on one side only"

    def test_mismatched_chamber_sets(self):
        a = lab_of([Chamber("c", 1.0, 1.0, pure4(0))], 4)
        b = lab_of([Chamber("d", 1.0, 1.0, pure4(0))], 4)
        assert not states_equivalent(tatiana(), a, b)
        assert equivalence_mismatch(tatiana(), a, b) == \
            "chamber sets differ: ['c'] vs ['d']"
