import math
import sys

import numpy as np
import pytest

from conftest import (
    ALPHA_MINUS,
    ALPHA_PLUS,
    LN2,
    P_HI,
    P_LO,
    R2,
    SEPARATION_HEAT,
    X_PLUS,
    Z_MINUS,
    Z_PLUS,
)
from util import (
    random_ket,
    random_orthogonal_pair,
    random_state,
    random_unitary,
    skewed_ket,
)
from qgas import linalg, thermo
from qgas.errors import (
    DimensionError,
    DomainError,
    EmptyChamberError,
    IndistinguishableError,
    PovmError,
    UnitaryError,
    UnknownChamberError,
    UnknownCheckpointError,
)
from qgas.quantum import Povm, StatisticalMatrix, optimal_separation_povm
from qgas.thermo import (
    Chamber,
    LabState,
    Ledger,
    LedgerEvent,
    aggregate_state,
    canonical_contents,
    eigen_mixture,
    isothermal_work,
    join,
    mix,
    partition,
    rotate,
    rotation_unitary,
    separate,
)

E2 = np.eye(2, dtype=complex)


def lab_with(*chambers, dim=2, t=1.0):
    return LabState(t, chambers, dim)


def chamber(name, volume, parts):
    """A chamber filled with (matrix, moles) parts, as a protocol fill does."""
    return thermo._mean_chamber(
        name, volume, [(n, StatisticalMatrix(m)) for m, n in parts])


def z_povm():
    return Povm.projective([E2[0], E2[1]], labels=("z+", "z-"))


class TestIsothermalWork:
    def test_no_volume_change(self):
        assert isothermal_work(1, 1, 0.7, 0.7) == 0.0

    def test_separation_work(self):
        # two half-moles each compressed into half the volume
        total = 2 * isothermal_work(0.5, 1, 1.0, 0.5)
        assert total == pytest.approx(-LN2, abs=1e-12)

    def test_log_antisymmetry(self):
        assert isothermal_work(1, 1, 0.5, 1.0) == pytest.approx(LN2, abs=1e-12)
        assert isothermal_work(1, 1, 0.5, 1.0) == pytest.approx(
            -isothermal_work(1, 1, 1.0, 0.5), abs=1e-15
        )

    def test_rejects_nonpositive(self):
        for args in ((0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
            with pytest.raises(DomainError):
                isothermal_work(*args)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        for i in range(4):
            args = [1.0, 1.0, 1.0, 1.0]
            args[i] = bad
            with pytest.raises(DomainError):
                isothermal_work(*args)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(DomainError, match="finite"):
        Chamber("c", bad)
    with pytest.raises(DomainError, match="finite"):
        LabState(bad, [], 2)
    with pytest.raises(DomainError, match="finite"):
        LedgerEvent(1, "mix", bad, "overflowed")


def test_lab_rejects_a_chamber_of_another_dimension():
    ch = Chamber("c", 1.0, 1.0, StatisticalMatrix(np.eye(3) / 3))
    with pytest.raises(DimensionError) as err:
        LabState(1.0, [Chamber("e", 1.0), ch], 2)
    assert str(err.value) == "chamber 'c' holds dim 3 gas in lab dim 2"


def test_lab_keys_each_chamber_by_its_own_name():
    chambers = [Chamber("b", 1.0), Chamber("a", 2.0, 1.0, StatisticalMatrix(Z_PLUS))]
    lab = LabState(1.0, chambers, 2)
    assert list(lab.chambers) == ["b", "a"]
    assert list(lab.chambers.values()) == chambers
    with pytest.raises(DomainError) as err:
        LabState(1.0, [Chamber("b", 1.0), Chamber("b", 1.0)], 2)
    assert str(err.value) == "chamber 'b' already exists"


def test_lab_rejects_a_subnormal_temperature():
    with pytest.raises(DomainError, match="at least"):
        LabState(1e-320, [], 2)
    assert LabState(sys.float_info.min, [], 2).temperature == sys.float_info.min


def test_chamber_rejects_overflowing_moles():
    parts = [(Z_PLUS, 1.5e308), (Z_MINUS, 1.5e308)]
    with pytest.raises(DomainError, match="inf moles"):
        chamber("c", 1.0, parts)


def test_mix_overflowing_volume_rejected():
    big = 1e308
    lab = lab_with(chamber("a", big, [(Z_PLUS, 0.5)]),
                   chamber("b", big, [(Z_MINUS, 0.5)]))
    with pytest.raises(DomainError, match="volume"):
        mix(lab, "a", "b", z_povm(), "c")


@pytest.mark.parametrize("moles, filled", [
    (0.0, True), (1.0, False), (-1.0, True), (math.nan, True), (math.inf, True),
], ids=["state-without-moles", "moles-without-state", "negative", "nan", "inf"])
def test_chamber_holds_moles_exactly_when_filled(moles, filled):
    state = StatisticalMatrix(Z_PLUS) if filled else None
    with pytest.raises(DomainError, match=r"^chamber 'c' holds \S+ moles$"):
        Chamber("c", 1.0, moles, state)


class TestSeparate:
    def test_perfect_separation(self):
        lab = lab_with(chamber("cell", 1.0, [(Z_PLUS, 0.5), (Z_MINUS, 0.5)]))
        new_lab, event = separate(lab, "cell", z_povm(), names=("top", "bottom"))
        assert set(new_lab.chambers) == {"top", "bottom"}
        top, bottom = new_lab.chambers["top"], new_lab.chambers["bottom"]
        assert top.volume == pytest.approx(0.5, abs=1e-12)
        assert bottom.volume == pytest.approx(0.5, abs=1e-12)
        assert top.state.close_to(StatisticalMatrix(Z_PLUS))
        assert bottom.state.close_to(StatisticalMatrix(Z_MINUS))
        assert event.heat_absorbed_by_gas == pytest.approx(-LN2, abs=1e-9)

    def test_partial_separation(self):
        povm = Povm.projective(
            [[math.cos(math.pi / 8), math.sin(math.pi / 8)],
             [-math.sin(math.pi / 8), math.cos(math.pi / 8)]],
            labels=("a+", "a-"),
        )
        lab = lab_with(chamber("cell", 1.0, [(Z_PLUS, 0.5), (X_PLUS, 0.5)]))
        new_lab, event = separate(lab, "cell", povm, names=("hi", "lo"))
        hi, lo = new_lab.chambers["hi"], new_lab.chambers["lo"]
        assert hi.volume == pytest.approx(P_HI, abs=1e-9)
        assert lo.volume == pytest.approx(P_LO, abs=1e-9)
        assert hi.state.close_to(StatisticalMatrix(ALPHA_PLUS), tol=1e-10)
        assert lo.state.close_to(StatisticalMatrix(ALPHA_MINUS), tol=1e-10)
        assert event.heat_absorbed_by_gas == pytest.approx(-SEPARATION_HEAT, abs=1e-9)

    def test_deterministic_outcome_keeps_single_chamber(self):
        lab = lab_with(chamber("cell", 1.0, [(Z_PLUS, 1.0)]))
        new_lab, event = separate(lab, "cell", z_povm(), names=("same", "never"))
        assert set(new_lab.chambers) == {"same"}
        assert new_lab.chambers["same"].volume == pytest.approx(1.0, abs=1e-12)
        assert event.heat_absorbed_by_gas == pytest.approx(0.0, abs=1e-12)

    def test_outcome_of_prune_share_is_dropped(self):
        # a z- probability of exactly PRUNE_TOL is round-off, not gas
        p = linalg.PRUNE_TOL
        lab = lab_with(Chamber("c", 1.0, 1.0, StatisticalMatrix(np.diag([1 - p, p]))))
        new_lab, _ = separate(lab, "c", z_povm(), names=("kept", "dropped"))
        assert list(new_lab.chambers) == ["kept"]

    def test_never_releases_negative_work(self, rng):
        for _ in range(25):
            rho, sigma = random_orthogonal_pair(rng, 2)
            w = float(rng.uniform(0.2, 0.8))
            lab = lab_with(
                thermo._mean_chamber("c", 1.0, [(w, rho), (1 - w, sigma)])
            )
            povm = Povm((rho.matrix, np.eye(2) - rho.matrix))
            _, event = separate(lab, "c", povm, ("a", "b"))
            assert event.heat_absorbed_by_gas <= 1e-12

    def test_small_probability_outcomes(self, rng):
        for _ in range(50):
            u = random_unitary(rng, 8)
            povm = Povm.projective([u[:, i] for i in range(8)])
            gas = StatisticalMatrix.pure(skewed_ket(rng, u))
            lab = lab_with(Chamber("c", 1.0, 1.0, gas), dim=8)
            new_lab, event = separate(lab, "c", povm, povm.outcome_labels)
            assert len(new_lab.chambers) == 8
            assert event.heat_absorbed_by_gas < 0

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_nearly_orthonormal_povm_conserves_gas(self, rng, dim):
        # kets orthonormal within ORTHONORMAL_TOL: their effects used to
        # resolve the identity only that closely, losing up to 2e-11 of the gas
        for _ in range(10):
            u = random_unitary(rng, dim)
            noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            povm = Povm.projective(list((u + 1e-11 * noise).T))
            parts = [(float(n), random_state(rng, dim))
                     for n in rng.uniform(0.1, 2.0, size=3)]
            n_total = sum(n for n, _ in parts)
            lab = lab_with(thermo._mean_chamber("c", 2.5, parts), dim=dim)
            new_lab, _ = separate(lab, "c", povm, povm.outcome_labels)
            chambers = new_lab.chambers.values()
            assert abs(sum(c.moles for c in chambers) - n_total) <= 1e-14 * n_total
            assert abs(sum(c.volume for c in chambers) - 2.5) <= 1e-14 * 2.5

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_optimal_separation_heat_is_minus_n_t_entropy(self, rng, dim):
        # Q = n T sum_i p_i ln p_i over the eigenvalues p_i of the aggregate
        for _ in range(10):
            parts = []
            for _ in range(int(rng.integers(1, 5))):
                state = (StatisticalMatrix.pure(random_ket(rng, dim))
                         if rng.random() < 0.5 else random_state(rng, dim))
                parts.append((float(rng.uniform(0.1, 2.0)), state))
            n_total = sum(n for n, _ in parts)
            t = float(rng.uniform(0.5, 3.0))
            lab = lab_with(thermo._mean_chamber("c", 1.0, parts), dim=dim, t=t)
            aggregate = sum(n * rho.matrix for n, rho in parts) / n_total
            p = np.linalg.eigvalsh(aggregate)
            entropy = -sum(x * math.log(x) for x in p if x > 0)
            povm = optimal_separation_povm(aggregate_state(lab.chamber("c")))
            _, event = separate(lab, "c", povm, povm.outcome_labels)
            q = event.heat_absorbed_by_gas
            assert abs(q + n_total * t * entropy) <= 1e-12 * n_total * t

    def test_unknown_chamber(self):
        lab = lab_with(chamber("cell", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(UnknownChamberError):
            separate(lab, "nope", z_povm(), ("a", "b"))

    def test_dimension_mismatch(self):
        lab = lab_with(chamber("cell", 1.0, [(Z_PLUS, 1.0)]))
        bad = Povm((np.eye(4),))
        with pytest.raises(DimensionError):
            separate(lab, "cell", bad, ("a",))


class TestMix:
    def test_mix_distinguishable(self):
        lab = lab_with(
            chamber("a", 0.5, [(Z_PLUS, 0.5)]),
            chamber("b", 0.5, [(Z_MINUS, 0.5)]),
        )
        new_lab, event = mix(lab, "a", "b", z_povm(), name="cell")
        assert set(new_lab.chambers) == {"cell"}
        cell = new_lab.chambers["cell"]
        assert cell.volume == pytest.approx(1.0, abs=1e-12)
        assert cell.moles == pytest.approx(1.0, abs=1e-12)
        assert event.heat_absorbed_by_gas == pytest.approx(LN2, abs=1e-9)

    def test_mix_species_sectors(self):
        # species membranes: block-projectors onto the two 2-dim sectors
        primed = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        doubled = np.eye(4) - primed
        povm = Povm((primed, doubled), ("p", "d"))
        pz = np.zeros((4, 4), dtype=complex)
        pz[0, 0] = 1
        dx = np.zeros((4, 4), dtype=complex)
        dx[2:, 2:] = 0.5
        lab = lab_with(
            chamber("a", 0.5, [(pz, 0.5)]),
            chamber("b", 0.5, [(dx, 0.5)]),
            dim=4,
        )
        new_lab, event = mix(lab, "a", "b", povm, name="cell")
        assert event.heat_absorbed_by_gas == pytest.approx(LN2, abs=1e-9)
        # the merged chamber holds the one mole-weighted mean state
        cell = new_lab.chambers["cell"]
        assert cell.moles == 1.0
        assert np.array_equal(cell.state.matrix, 0.5 * pz + 0.5 * dx)

    def test_mix_indistinguishable_rejected(self):
        lab = lab_with(
            chamber("a", 0.5, [(Z_PLUS, 0.5)]),
            chamber("b", 0.5, [(X_PLUS, 0.5)]),
        )
        with pytest.raises(IndistinguishableError):
            mix(lab, "a", "b", z_povm(), name="cell")
        alpha = Povm.projective(
            [[math.cos(math.pi / 8), math.sin(math.pi / 8)],
             [-math.sin(math.pi / 8), math.cos(math.pi / 8)]]
        )
        with pytest.raises(IndistinguishableError):
            mix(lab, "a", "b", alpha, name="cell")

    def test_mix_never_absorbs_negative_heat(self, rng):
        for _ in range(25):
            rho, sigma = random_orthogonal_pair(rng, 4)
            na, nb = rng.uniform(0.2, 1.0, size=2)
            lab = lab_with(
                Chamber("a", float(na), float(na), rho),
                Chamber("b", float(nb), float(nb), sigma),
                dim=4,
            )
            povm = Povm((rho.matrix, np.eye(4) - rho.matrix))
            _, event = mix(lab, "a", "b", povm, "c")
            assert event.heat_absorbed_by_gas >= -1e-12


class TestRotate:
    def test_rotation_to_other_gas(self):
        a_plus = [math.cos(math.pi / 8), math.sin(math.pi / 8)]
        lab = lab_with(chamber("c", 1.0, [(ALPHA_PLUS, 1.0)]))
        new_lab, event = rotate(lab, "c", rotation_unitary([(a_plus, E2[0])], 2))
        assert new_lab.chambers["c"].state.close_to(
            StatisticalMatrix(Z_PLUS), tol=1e-10
        )
        assert event.heat_absorbed_by_gas == 0.0
        assert event.description == "rotate c by a 1-ket mapping"

    def test_unlabelled_rotation_reads_as_a_sentence(self):
        lab = lab_with(chamber("c", 1.0, [(X_PLUS, 1.0)]))
        swap = np.array([[0, 1], [1, 0]])
        _, event = rotate(lab, "c", Povm((swap,)))
        assert event.description == "rotate c by a unitary"
        _, event = rotate(lab, "c", Povm((swap,), ("swap",)))
        assert event.description == "rotate c by a swap"

    def test_identity_mapping(self):
        lab = lab_with(chamber("c", 1.0, [(X_PLUS, 1.0)]))
        u = rotation_unitary([(E2[0], E2[0]), (E2[1], E2[1])], 2)
        new_lab, _ = rotate(lab, "c", u)
        assert new_lab.chambers["c"].state.close_to(
            StatisticalMatrix(X_PLUS)
        )

    def test_sector_rotation_in_dim_4(self):
        c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
        pa = np.array([c8, s8, 0, 0])
        da = np.array([0, 0, c8, s8])
        state = 0.5 * np.outer(pa, pa) + 0.5 * np.outer(da, da)
        lab = lab_with(Chamber("c", 1.0, 1.0, StatisticalMatrix(state)), dim=4)
        e = np.eye(4)
        new_lab, _ = rotate(lab, "c", rotation_unitary([(pa, e[0]), (da, e[2])], 4))
        want = np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex)
        got = new_lab.chambers["c"].state.matrix
        assert np.max(np.abs(got - want)) < 1e-10

    def test_partial_mapping_completed_on_canonical_axes(self):
        # the complement of each side is spanned by the projected axes in
        # order; the image side skips e1, whose residual vanishes
        r = 1 / math.sqrt(2)
        rotation = rotation_unitary([([1, 0, 0], [r, r, 0])], 3)
        want = np.array([[r, r, 0], [r, -r, 0], [0, 0, 1]])
        np.testing.assert_allclose(rotation.effects[0], want, rtol=0, atol=1e-15)

    def test_non_unitary_mapping_rejected(self):
        overlapping = [(E2[0], E2[0]), ([1, 1], E2[1])]
        with pytest.raises(UnitaryError, match="source kets are not orthonormal"):
            rotation_unitary(overlapping, 2)
        with pytest.raises(UnitaryError, match="image kets are not orthonormal"):
            rotation_unitary([(E2[0], E2[0]), (E2[1], E2[0])], 2)
        # each side orthonormal within ORTHONORMAL_TOL only: each is snapped
        # before completion, so the mapping extends to a unitary
        near = [9e-11, 1]
        (u,) = rotation_unitary([(E2[0], E2[0]), (near, near)], 2).effects
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-15
        np.testing.assert_allclose(u, np.eye(2), atol=1e-10)

    def test_valid_mappings_never_refused(self, rng):
        # sources and images orthonormal within ORTHONORMAL_TOL: QR columns
        # in dim 2 to 4 with every entry moved by up to 4e-11, and one ket
        # e0 moved by 1e-10 to 1e-4 on the other two axes of dim 3, whose
        # completion keeps an axis of small residual
        mappings = []
        for _ in range(400):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, dim + 1))
            sides = [random_unitary(rng, dim)[:, :k]
                     + rng.uniform(-4e-11, 4e-11, (dim, k)) for _ in range(2)]
            mappings.append((list(zip(sides[0].T, sides[1].T)), dim))
        for _ in range(400):
            source = np.array([1.0, 0.0, 0.0])
            source[1:] = 10.0 ** rng.uniform(-10, -4, 2) * rng.choice([-1, 1], 2)
            mappings.append(([(source, np.eye(3)[rng.integers(3)])], 3))
        for mapping, dim in mappings:
            (u,) = rotation_unitary(mapping, dim).effects
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-14
            for s, i in mapping:
                np.testing.assert_allclose(u @ linalg.as_ket(s), linalg.as_ket(i),
                                           atol=1e-9)

    def test_empty_mapping_rejected(self):
        with pytest.raises(UnitaryError,
                           match="a rotation needs at least one source -> image pair"):
            rotation_unitary([], 2)

    def test_nearly_unitary_rotation_rotates(self):
        # a matrix unitary only within ORTHONORMAL_TOL moves the trace of
        # u rho u^dag by ~1e-10; built into a one-effect Povm it is snapped
        # to its polar factor, which rotates within TRACE_TOL
        b = np.array([0.8, -0.6000000001])
        u = np.array([[0.6, 0.8], b / np.linalg.norm(b)])
        rho = StatisticalMatrix(Z_PLUS)
        assert abs(np.trace(u @ rho.matrix @ u.T).real - 1) > linalg.TRACE_TOL
        w, _, vh = np.linalg.svd(u.astype(complex), full_matrices=False)
        polar = w @ vh
        lab = lab_with(Chamber("c", 1.0, 1.0, rho))
        new_lab, _ = rotate(lab, "c", Povm((u,)))
        got = new_lab.chambers["c"].state.matrix
        assert abs(np.trace(got).real - 1) <= linalg.TRACE_TOL
        np.testing.assert_allclose(got, polar @ rho.matrix @ polar.conj().T,
                                   rtol=0, atol=1e-15)

    def test_non_unitary_matrix_rejected_when_built(self):
        for m in ([[1, 1], [0, 1]], [[1, 0.5], [0, 1]]):
            with pytest.raises(PovmError, match="effects do not resolve the identity"):
                Povm((np.array(m, dtype=complex),))

    def test_rotation_checked_by_rotate(self):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(DimensionError, match="povm dim 4 does not match lab dim 2"):
            rotate(lab, "c", Povm((np.eye(4),)))
        with pytest.raises(DomainError, match="a rotation has one effect, got 2"):
            rotate(lab, "c", z_povm())

    def test_built_rotation_not_checked_again(self, rng, monkeypatch):
        rotation = Povm((random_unitary(rng, 2),))
        for name in ("check_orthonormal", "isometry"):
            monkeypatch.setattr(linalg, name, lambda *args, name=name: pytest.fail(
                f"rotate calls linalg.{name}"))
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        for _ in range(5):
            lab, _ = rotate(lab, "c", rotation)

    def test_built_unitary_is_read_only(self):
        u = rotation_unitary([(E2[0], E2[1])], 2).effects[0]
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


class TestPartitionJoin:
    def test_partition_halves(self):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 0.6), (Z_MINUS, 0.4)]))
        new_lab, event = partition(lab, "c", 0.5, names=("l", "r"))
        left, right = new_lab.chambers["l"], new_lab.chambers["r"]
        assert left.volume == right.volume == pytest.approx(0.5)
        assert left.moles == pytest.approx(0.5, abs=1e-12)
        assert left.state is right.state is lab.chambers["c"].state
        assert event.heat_absorbed_by_gas == 0.0

    def test_partition_then_join_restores(self):
        lab = lab_with(chamber("c", 1.0, [(X_PLUS, 1.0)]))
        split, _ = partition(lab, "c", 0.5, names=("l", "r"))
        back, event = join(split, "l", "r", name="c")
        cell = back.chambers["c"]
        assert cell.volume == pytest.approx(1.0, abs=1e-12)
        assert cell.moles == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(cell.state.matrix, X_PLUS)
        assert event.heat_absorbed_by_gas == 0.0

    def test_join_then_partition_equivalent(self):
        lab = lab_with(
            chamber("l", 0.5, [(Z_PLUS, 0.5)]),
            chamber("r", 0.5, [(Z_PLUS, 0.5)]),
        )
        joined, _ = join(lab, "l", "r", name="c")
        split, _ = partition(joined, "c", 0.5, names=("l", "r"))
        for name in ("l", "r"):
            ch = split.chambers[name]
            assert ch.volume == pytest.approx(0.5, abs=1e-12)
            assert ch.moles == pytest.approx(0.5, abs=1e-12)
            assert ch.state.close_to(StatisticalMatrix(Z_PLUS))

    def test_partition_fraction_domain(self):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                partition(lab, "c", bad, ("l", "r"))

    @pytest.mark.parametrize("names", [("l",), ("l", "r", "s")])
    def test_partition_needs_two_names(self, names):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(DomainError, match="partition needs exactly two chamber names"):
            partition(lab, "c", 0.5, names)

    def test_join_unknown_chamber(self):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(UnknownChamberError):
            join(lab, "c", "missing", "m")

    @pytest.mark.parametrize("names, clash", [
        (("l", "other"), "other"),  # a chamber that stays
        (("l", "l"), "l"),  # the two new chambers
    ])
    def test_partition_into_existing_name_rejected(self, names, clash):
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]),
                       chamber("other", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(DomainError, match=f"chamber '{clash}' already exists"):
            partition(lab, "c", 0.5, names=names)

    def test_new_chambers_take_the_place_of_the_first_removed(self):
        lab = lab_with(*(chamber(n, 1.0, [(Z_PLUS, 1.0)]) for n in "acd"))
        split, _ = partition(lab, "c", 0.5, ("c.0", "c.1"))
        assert list(split.chambers) == ["a", "c.0", "c.1", "d"]
        joined, _ = join(split, "d", "a", name="m")
        assert list(joined.chambers) == ["m", "c.0", "c.1"]

    @pytest.mark.parametrize("name", ["c", "missing"])
    def test_chamber_cannot_join_or_mix_with_itself(self, name):
        # a self-join used to double the chamber's moles
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        with pytest.raises(DomainError, match="cannot join a chamber with itself"):
            join(lab, name, name, "m")
        with pytest.raises(DomainError, match="cannot mix a chamber with itself"):
            mix(lab, name, name, z_povm(), "m")


class TestCanonicalContents:
    def test_z_x_mixture(self):
        ch = chamber("c", 1.0, [(Z_PLUS, 0.5), (X_PLUS, 0.5)])
        mixture = canonical_contents(ch)
        assert len(mixture) == 2
        assert mixture[0][0] == pytest.approx(P_HI, abs=1e-12)
        assert mixture[1][0] == pytest.approx(P_LO, abs=1e-12)
        assert mixture[0][1].close_to(StatisticalMatrix(ALPHA_PLUS), tol=1e-10)

    def test_pure_gas(self):
        mixture = canonical_contents(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        assert len(mixture) == 1
        assert mixture[0][0] == pytest.approx(1.0, abs=1e-12)
        assert mixture[0][1].close_to(StatisticalMatrix(Z_PLUS))

    def test_species_mixture_canonical_order(self):
        pz = np.zeros((4, 4), dtype=complex)
        pz[0, 0] = 1
        dx = np.zeros((4, 4), dtype=complex)
        dx[2:, 2:] = 0.5
        mixture = canonical_contents(chamber("c", 1.0, [(pz, 0.5), (dx, 0.5)]))
        assert [w for w, _ in mixture] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert mixture[0][1].close_to(StatisticalMatrix(pz), tol=1e-10)
        assert mixture[1][1].close_to(StatisticalMatrix(dx), tol=1e-10)

    def test_weights_sum_to_one(self, rng):
        for _ in range(25):
            parts = []
            weights = rng.random(3)
            weights /= weights.sum()
            for w in weights:
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                parts.append((np.outer(v, v.conj()), float(w)))
            mixture = canonical_contents(chamber("c", 1.0, parts))
            assert sum(w for w, _ in mixture) == pytest.approx(1.0, abs=1e-10)
            assert all(w >= 0 for w, _ in mixture)

    def test_empty_chamber_rejected(self):
        with pytest.raises(EmptyChamberError):
            canonical_contents(Chamber("c", 1.0))


@pytest.mark.parametrize("dim", range(1, 9))
def test_one_part_mean_is_the_formula(rng, dim):
    n = 0.37
    public = random_state(rng, dim)
    lab = lab_with(Chamber("c", 1.0, n, public), dim=dim)
    rotated, _ = rotate(lab, "c", Povm((random_unitary(rng, dim),)))
    derived = rotated.chambers["c"].state
    for state in (public, derived):
        assert aggregate_state(Chamber("c", 1.0, n, state)) is state
        mean = thermo._mean_chamber("c", 1.0, [(n, state)]).state
        assert np.array_equal(mean.matrix, linalg.hermitian_part((n / n) * state.matrix))


@pytest.mark.parametrize("dim", range(1, 9))
def test_eigen_mixture_states_are_the_eigenprojectors(rng, dim):
    state = random_state(rng, dim)
    w, v = linalg.hermitian_eig(state.matrix)
    mixture = eigen_mixture(state)
    assert [weight for weight, _ in mixture] == w[w > linalg.PRUNE_TOL].tolist()
    for i, (_, s) in enumerate(mixture):
        np.testing.assert_allclose(s.matrix, linalg.projector(v[:, i]),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("eigenprojectors_of", [eigen_mixture, optimal_separation_povm])
def test_eigenprojectors_reject_eigenvectors_off_unit_norm(monkeypatch,
                                                           eigenprojectors_of):
    eig = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig",
                        lambda m: (eig(m)[0], (1 + 1e-11) * eig(m)[1]))
    with pytest.raises(DomainError, match="ket normalization failed"):
        eigenprojectors_of(StatisticalMatrix(Z_PLUS))


def test_one_density_matrix_gives_one_set_of_membranes():
    # two preparations of the non-degenerate diag(0.7, 0.3): z+/z- at
    # 0.7/0.3, and (sqrt .7, +-sqrt .3) half and half; the membranes see the
    # density matrix alone
    z_pair = chamber("z", 1.0, [(Z_PLUS, 0.7), (Z_MINUS, 0.3)])
    t_pair = chamber("t", 1.0, [(StatisticalMatrix.pure(k).matrix, 0.5)
                                for k in ([math.sqrt(0.7), math.sqrt(0.3)],
                                          [math.sqrt(0.7), -math.sqrt(0.3)])])
    effects = [optimal_separation_povm(aggregate_state(ch)).effects
               for ch in (z_pair, t_pair)]
    assert all(np.array_equal(a, b) for a, b in zip(*effects, strict=True))


class TestConservationAndReversibility:
    def test_mole_conservation_through_operations(self):
        lab = lab_with(
            chamber("a", 0.5, [(Z_PLUS, 0.5)]),
            chamber("b", 0.5, [(Z_MINUS, 0.5)]),
        )
        total = lab.total_moles()
        lab1, _ = mix(lab, "a", "b", z_povm(), name="c")
        assert lab1.total_moles() == pytest.approx(total, abs=1e-12)
        lab2, _ = partition(lab1, "c", 0.25, names=("l", "r"))
        assert lab2.total_moles() == pytest.approx(total, abs=1e-12)
        lab3, _ = separate(lab2, "l", z_povm(), names=("l1", "l2"))
        assert lab3.total_moles() == pytest.approx(total, abs=1e-12)

    def test_mix_separate_reversibility(self, rng):
        for _ in range(50):
            dim = int(rng.choice([2, 4]))
            rho, sigma = random_orthogonal_pair(rng, dim)
            na, nb = rng.uniform(0.2, 1.0, size=2)
            # volumes at mole fraction: both chambers start at equal pressure
            lab = lab_with(
                Chamber("a", float(na), float(na), rho),
                Chamber("b", float(nb), float(nb), sigma),
                dim=dim,
            )
            povm = Povm((rho.matrix, np.eye(dim) - rho.matrix), ("r", "s"))
            lab1, e1 = mix(lab, "a", "b", povm, name="c")
            lab2, e2 = separate(lab1, "c", povm, names=("a", "b"))
            net = e1.heat_absorbed_by_gas + e2.heat_absorbed_by_gas
            assert abs(net) <= 1e-9
            assert lab2.chambers["a"].volume == pytest.approx(float(na), rel=1e-9)


class TestLedger:
    def test_work_done_is_the_heat(self):
        event = LedgerEvent(0, "mix", 0.25, "a")
        assert event.work_done_by_gas == event.heat_absorbed_by_gas == 0.25
        _, event = mix(lab_with(chamber("a", 1.0, [(Z_PLUS, 0.5)]),
                                chamber("b", 3.0, [(Z_MINUS, 0.5)])),
                       "a", "b", z_povm(), "c")
        assert event.work_done_by_gas == event.heat_absorbed_by_gas > 0

    def test_step_indices_strictly_increase(self):
        ledger = Ledger()
        ledger.append(LedgerEvent(0, "mix", 0.1, "a"))
        with pytest.raises(DomainError):
            ledger.append(LedgerEvent(0, "join", 0.0, "b"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown event kind 'teleport'"):
            LedgerEvent(0, "teleport", 0.0, "a")

    def test_checkpoint_and_span_sum(self):
        ledger = Ledger()
        lab = lab_with(chamber("c", 1.0, [(Z_PLUS, 1.0)]))
        ledger.checkpoint("start", lab, 0)
        ledger.append(LedgerEvent(1, "mix", 0.25, "a"))
        ledger.checkpoint("mid", lab, 2)
        ledger.append(LedgerEvent(3, "separate", -0.1, "b"))
        assert ledger.q_total_since("start") == pytest.approx(0.15, abs=1e-15)
        assert ledger.q_total_since("mid") == pytest.approx(-0.1, abs=1e-15)
        with pytest.raises(UnknownCheckpointError):
            ledger.q_total_since("missing")
