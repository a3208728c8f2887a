import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermint import (
    HamiltonianPoint,
    PointStructure,
    StructureDegenerateError,
    TemperatureDegenerateError,
    assemble_structure,
    contact_evolution_field,
    evolution_field,
    evolution_field_coordinates,
    flat_matrix,
    get_system,
    hamiltonian_point,
    reeb_field,
    structure_defect,
)
from thermint.geometry import canonical_omega


def oscillator_point(q=1.0, p=2.0, S=0.0, gamma=0.1):
    # H = p^2/2 + q^2/2 + gamma S, friction -gamma p
    return HamiltonianPoint(q=[q], p=[p], S=S, dH=[q, p, gamma], Ffr=[-gamma * p])


class TestAssemble:
    def test_oscillator_eta(self):
        # eta = -Ffr dq - H_S dS with Ffr = -0.2, H_S = 0.1
        s = assemble_structure(oscillator_point())
        np.testing.assert_allclose(s.eta, [0.2, 0.0, -0.1], atol=1e-15)
        np.testing.assert_array_equal(s.W, canonical_omega(1))

    def test_frictionless_is_cosymplectic(self):
        pt = HamiltonianPoint(q=[0.5], p=[0.1], S=1.0, dH=[0.5, 0.1, 1.0], Ffr=[0.0])
        s = assemble_structure(pt)
        np.testing.assert_allclose(s.eta, [0.0, 0.0, -1.0], atol=0)

    def test_absolute_zero_rejected(self):
        pt = HamiltonianPoint(q=[1.0], p=[1.0], S=0.0, dH=[1.0, 1.0, 0.0], Ffr=[0.0])
        with pytest.raises(TemperatureDegenerateError):
            assemble_structure(pt)


class TestFlat:
    def test_cosymplectic_block_matrix(self):
        s = PointStructure(W=canonical_omega(1), eta=np.array([0.0, 0.0, 1.0]))
        B = flat_matrix(s)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(B, expected)

    def test_oscillator_structure_invertible(self):
        s = assemble_structure(oscillator_point())
        det = np.linalg.det(flat_matrix(s))
        assert abs(det) > 1e-12
        # for n = 1 the determinant is (dH/dS)^2
        assert det == pytest.approx(0.01)

    def test_zero_eta_singular(self):
        s = PointStructure(W=canonical_omega(1), eta=np.zeros(3))
        assert abs(np.linalg.det(flat_matrix(s))) < 1e-15
        # a failed check is not kept: each field solved from s raises
        pt = HamiltonianPoint(q=[1.0], p=[1.0], S=0.0, dH=[1.0, 1.0, 1.0], Ffr=[0.0])
        for solve in (reeb_field, lambda s: evolution_field(s, pt), reeb_field):
            with pytest.raises(StructureDegenerateError):
                solve(s)

    def test_structure_defect_checks_the_flat_map_once(self, monkeypatch):
        # E and R are solved from one flat matrix, whose condition number is
        # taken once per point; each keeps the bits of numpy's solve of the
        # matrix formed afresh
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda B, *args: conds.append(B) or cond(B, *args))
        for name in ("oscillator", "ideal-gas", "van-der-waals", "two-pistons"):
            entry = get_system(name)
            rng = np.random.default_rng(7)
            for _ in range(5):
                pt = hamiltonian_point(entry, rng.uniform(0.5, 1.5, entry.n),
                                       rng.uniform(-1.0, 1.0, entry.n), rng.uniform(0.0, 2.0))
                conds.clear()
                structure_defect(pt)
                assert len(conds) == 1
                s = assemble_structure(pt)
                B = flat_matrix(s)
                rhs = pt.dH + s.eta
                rhs[: entry.n] -= pt.Fext
                assert evolution_field(s, pt).tobytes() == np.linalg.solve(B, rhs).tobytes()
                assert reeb_field(s).tobytes() == np.linalg.solve(B, s.eta).tobytes()
                assert len(conds) == 2


class TestReeb:
    def test_cosymplectic_reeb_is_dS(self):
        s = PointStructure(W=canonical_omega(1), eta=np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(reeb_field(s), [0.0, 0.0, 1.0], atol=1e-15)

    def test_oscillator_reeb(self):
        # ker omega = span(dS direction); eta(R) = 1 forces R = -(1/gamma) d/dS
        s = assemble_structure(oscillator_point())
        np.testing.assert_allclose(reeb_field(s), [0.0, 0.0, -10.0], atol=1e-12)

    def test_defining_equations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pt = HamiltonianPoint(
                q=rng.normal(size=2), p=rng.normal(size=2), S=rng.normal(),
                dH=rng.normal(size=5) + np.array([0, 0, 0, 0, 2.0]),
                Ffr=rng.normal(size=2),
            )
            s = assemble_structure(pt)
            R = reeb_field(s)
            assert np.max(np.abs(s.W.T @ R)) <= 1e-12
            assert abs(s.eta @ R - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10_000))
def test_flat_reeb_roundtrip(n, seed):
    """flat(reeb) = eta whenever the flat map is invertible."""
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=2 * n + 1)
    s = PointStructure(W=canonical_omega(n), eta=eta)
    B = flat_matrix(s)
    if np.linalg.cond(B) > 1e8:
        return
    R = reeb_field(s)
    np.testing.assert_allclose(B @ R, eta, atol=1e-10)


class TestEvolutionField:
    def test_frictionless_oscillator(self):
        pt = HamiltonianPoint(q=[1.0], p=[2.0], S=0.0, dH=[1.0, 2.0, 0.1], Ffr=[0.0])
        s = assemble_structure(pt)
        np.testing.assert_allclose(evolution_field(s, pt), [2.0, -1.0, 0.0], atol=1e-13)

    def test_eta_annihilates_evolution(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pt = HamiltonianPoint(
                q=rng.normal(size=2), p=rng.normal(size=2), S=rng.normal(),
                dH=rng.normal(size=5) + np.array([0, 0, 0, 0, 2.0]),
                Ffr=rng.normal(size=2), Fext=rng.normal(size=2),
            )
            s = assemble_structure(pt)
            E = evolution_field(s, pt)
            assert abs(s.eta @ E) <= 1e-12

    def test_contraction_identity(self):
        # iota_E omega = dH - R(H) eta - Fext as covectors
        rng = np.random.default_rng(11)
        for _ in range(50):
            pt = HamiltonianPoint(
                q=rng.normal(size=2), p=rng.normal(size=2), S=rng.normal(),
                dH=rng.normal(size=5) + np.array([0, 0, 0, 0, 1.5]),
                Ffr=rng.normal(size=2), Fext=rng.normal(size=2),
            )
            s = assemble_structure(pt)
            E = evolution_field(s, pt)
            R = reeb_field(s)
            fext = np.concatenate([pt.Fext, np.zeros(3)])
            lhs = s.W.T @ E
            rhs = pt.dH - (R @ pt.dH) * s.eta - fext
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals",
                                      "two-pistons"])
    def test_flat_route_matches_coordinates(self, name):
        entry = get_system(name)
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = rng.uniform(0.5, 1.5, size=entry.n)
            p = rng.uniform(-1.0, 1.0, size=entry.n)
            S = rng.uniform(0.0, 2.0)
            pt = hamiltonian_point(entry, q, p, S)
            s = assemble_structure(pt)
            E1 = evolution_field(s, pt)
            E2 = evolution_field_coordinates(pt)
            np.testing.assert_allclose(E1, E2, atol=1e-12)
            assert abs(s.eta @ E1) <= 1e-12

    def test_contact_special_case(self):
        # friction -p dH/dS turns the evolution field into the contact one
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = rng.normal(size=2)
            p = rng.normal(size=2)
            dH = rng.normal(size=5) + np.array([0, 0, 0, 0, 1.2])
            pt = HamiltonianPoint(q=q, p=p, S=rng.normal(), dH=dH, Ffr=-p * dH[-1])
            s = assemble_structure(pt)
            np.testing.assert_allclose(evolution_field(s, pt),
                                       contact_evolution_field(pt), atol=1e-11)


class TestPointStructureValidation:
    def test_rejects_even_dimension(self):
        with pytest.raises(ValueError):
            PointStructure(W=np.zeros((4, 4)), eta=np.zeros(4))

    def test_rejects_inconsistent_shapes(self):
        # the size is read off W: W must be square and eta of its size
        for W, eta in ((np.zeros((3, 5)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(5)),
                       (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match="square"):
                PointStructure(W=W, eta=eta)

    def test_size_read_off_W(self):
        assert PointStructure(W=canonical_omega(2), eta=np.zeros(5)).n == 2

    def test_rejects_nonantisymmetric(self):
        with pytest.raises(ValueError):
            PointStructure(W=np.eye(3), eta=np.zeros(3))

    def test_rejects_nan(self):
        # a NaN defect compares False with the bound; it must still fail
        with pytest.raises(ValueError, match="antisymmetric"):
            PointStructure(W=np.full((3, 3), np.nan), eta=np.zeros(3))

    def test_rank_is_2n(self):
        s = assemble_structure(oscillator_point())
        assert np.linalg.matrix_rank(s.W) == 2
