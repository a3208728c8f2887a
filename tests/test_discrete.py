import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermint import (
    DiscretePath,
    DiscreteThermoSystem,
    DiscreteTriple,
    LagrangianThermoSystem,
    NewtonConfig,
    TemperatureDegenerateError,
    discrete_action,
    discrete_flow,
    discrete_momenta,
    entropy_update,
    get_system,
    hamiltonian_estimates,
    integrate,
    legendre_minus,
    legendre_plus,
    midpoint_discretize,
    momentum_map,
    noether_condition,
    omega_embedded,
    pullback_check,
)
from thermint import bench, continuous, discrete
from thermint.continuous import _constant, fd_gradient, pair
from thermint.discrete import _marked

H = 0.01
GAMMA = 0.1
OSC = get_system("oscillator")
GAS = get_system("ideal-gas")
VDW = get_system("van-der-waals")
TP = get_system("two-pistons")
D_OSC = midpoint_discretize(OSC.lagrangian, H)
D_GAS = midpoint_discretize(GAS.lagrangian, H)
D_VDW = midpoint_discretize(VDW.lagrangian, H)
D_TP = midpoint_discretize(TP.lagrangian, H)


def free_particle(gamma=0.1):
    return LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * float(v @ v) - gamma * S,
        dLdq=lambda q, v, S: np.zeros(1),
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -gamma,
        d2Ldq2=lambda q, v, S: np.zeros((1, 1)),
        d2Ldv2=lambda q, v, S: np.eye(1),
        d2LdqdS=lambda q, v, S: np.zeros(1),
        d2LdvdS=lambda q, v, S: np.zeros(1),
        dFfrdq=lambda q, v, S: np.zeros((1, 1)),
        dFfrdv=lambda q, v, S: np.zeros((1, 1)),
        dFfrdS=lambda q, v, S: np.zeros(1),
        name="free",
    )


D_FREE = midpoint_discretize(free_particle(), H)

B = 0.8
#: [i, j] = d2L/dq_i dv_j of the gyroscopic system
GYRO_QV = 0.5 * B * np.array([[0.0, 1.0], [-1.0, 0.0]])


def gyroscopic(with_mixed_partial):
    """n = 2 with a magnetic term, L = |v|^2/2 + (B/2)(q0 v1 - q1 v0) - |q|^2/2 - S
    and friction -0.1 v: every second partial is supplied except, unless
    asked for, the nonzero d2Ldqdv.  The callables take a point or a stack of
    points, (..., 2), so its Newton matrix takes stacks, derived d2Ldqdv included."""
    zero = lambda q, v, S: np.zeros(2)
    mixed = {"d2Ldqdv": lambda q, v, S: GYRO_QV} if with_mixed_partial else {}
    return LagrangianThermoSystem(
        n=2,
        L=lambda q, v, S: (0.5 * pair(v, v) + 0.5 * B * (q[..., 0] * v[..., 1]
                                                         - q[..., 1] * v[..., 0])
                           - 0.5 * pair(q, q) - S),
        dLdq=lambda q, v, S: 0.5 * B * np.stack([v[..., 1], -v[..., 0]], axis=-1) - q,
        dLdv=lambda q, v, S: v + 0.5 * B * np.stack([-q[..., 1], q[..., 0]], axis=-1),
        dLdS=lambda q, v, S: -1.0,
        Ffr=lambda q, v, S: -0.1 * v,
        d2Ldq2=lambda q, v, S: -np.eye(2), d2Ldv2=lambda q, v, S: np.eye(2),
        d2LdqdS=zero, d2LdvdS=zero, dFfrdq=lambda q, v, S: np.zeros((2, 2)),
        dFfrdv=lambda q, v, S: -0.1 * np.eye(2), dFfrdS=zero, **mixed)


class TestMidpointDiscretize:
    def test_oscillator_ld_formula(self):
        # Ld = (q1-q0)^2/(2h^2) - (q1+q0)^2/8 - gamma S0
        rng = np.random.default_rng(0)
        for _ in range(20):
            q0, q1, S0 = rng.normal(), rng.normal(), rng.normal()
            expected = (q1 - q0) ** 2 / (2 * H * H) - (q1 + q0) ** 2 / 8 - GAMMA * S0
            assert D_OSC.Ld(np.array([q0]), np.array([q1]), S0) == pytest.approx(
                expected, rel=1e-13)

    def test_ideal_gas_ld_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q0, q1 = rng.uniform(0.5, 2.0, size=2)
            S0 = rng.uniform(0, 3)
            expected = (q1 - q0) ** 2 / (2 * H * H) - np.exp(S0) * ((q1 + q0) / 2) ** (-2 / 3)
            assert D_GAS.Ld(np.array([q0]), np.array([q1]), S0) == pytest.approx(
                expected, rel=1e-13)

    def test_zero_velocity_consistency(self):
        for entry, d in ((OSC, D_OSC), (GAS, D_GAS), (VDW, D_VDW), (TP, D_TP)):
            q = np.full(entry.n, 1.1)
            S = 0.7
            assert d.Ld(q, q, S) == pytest.approx(
                entry.lagrangian.L(q, np.zeros(entry.n), S), rel=1e-13)

    def test_rejects_nonpositive_step(self):
        # h <= 0 is False for NaN: a NaN or infinite step failed at step 1
        for h in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                midpoint_discretize(OSC.lagrangian, h)

    def test_second_partials_match_finite_differences(self):
        # analytic chain-rule covector Jacobians against central differences
        # of the covectors, in the q0, q1 and S0 blocks
        from thermint.continuous import fd_gradient

        for d, q0, q1 in ((D_OSC, [0.9], [1.05]), (D_GAS, [0.9], [1.05]),
                          (D_VDW, [0.9], [1.05]), (D_TP, [0.9, 1.2], [1.05, 1.15])):
            q0, q1, S0, n = np.array(q0), np.array(q1), 0.8, d.n
            x = np.concatenate([q0, q1, [S0]])
            for pi, dpi in ((d.pi_minus, d.dpi_minus), (d.pi_plus, d.dpi_plus)):
                got = dpi(q0, q1, S0)
                fd = fd_gradient(lambda y: pi(y[:n], y[n : 2 * n], y[2 * n]), x)
                np.testing.assert_allclose(got[:, : 2 * n], fd[:, : 2 * n], rtol=1e-5, atol=1e-4)
                np.testing.assert_allclose(got[:, 2 * n], fd[:, 2 * n], rtol=1e-5, atol=1e-6)


class TestEntropyUpdate:
    def test_stationary_point_keeps_entropy(self):
        for entry, d in ((OSC, D_OSC), (GAS, D_GAS), (VDW, D_VDW), (TP, D_TP)):
            q = np.full(entry.n, 1.2)
            assert entropy_update(d, DiscreteTriple(q, q, 0.9)) == 0.9

    def test_oscillator_value(self):
        # S1 = S0 + (q1 - q0)^2 / h, independent of gamma
        s1 = entropy_update(D_OSC, DiscreteTriple([0.0], [0.01], 0.0))
        assert s1 == pytest.approx(0.01, rel=1e-14)

    def test_ideal_gas_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q0, q1 = rng.uniform(0.5, 2.0, size=2)
            S0 = rng.uniform(0, 3)
            expected = S0 + (GAMMA / H) * (q1 - q0) ** 2 * ((q1 + q0) / 2) ** (2 / 3) * np.exp(-S0)
            got = entropy_update(D_GAS, DiscreteTriple([q0], [q1], S0))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_van_der_waals_closed_form(self):
        bh = 0.1
        rng = np.random.default_rng(3)
        for _ in range(20):
            q0, q1 = rng.uniform(0.5, 2.0, size=2)
            S0 = rng.uniform(0, 3)
            expected = S0 + (GAMMA / H) * np.exp(-S0) * (q1 - q0) ** 2 * (
                (q1 + q0 - 2 * bh) / 2) ** (2 / 3)
            got = entropy_update(D_VDW, DiscreteTriple([q0], [q1], S0))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_degenerate_temperature_rejected(self):
        bad = LagrangianThermoSystem(
            n=1, L=lambda q, v, S: 0.5 * float(v @ v),
            dLdq=lambda q, v, S: np.zeros(1), dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: 0.0, Ffr=lambda q, v, S: -v)
        d = midpoint_discretize(bad, H)
        with pytest.raises(TemperatureDegenerateError):
            entropy_update(d, DiscreteTriple([0.0], [0.1], 0.0))


#: catalog systems with coordinate and entropy ranges inside their domains
OSC_CASES = [(OSC, (-2.0, 2.0), (-1.0, 1.0))]
GAS_CASES = [(GAS, (0.3, 3.0), (0.0, 4.0)), (VDW, (0.3, 3.0), (0.0, 4.0)),
             (TP, (0.3, 3.0), (0.0, 4.0))]


@st.composite
def dissipativity_cases(draw, cases):
    entry, (lo, hi), (s_lo, s_hi) = draw(st.sampled_from(cases))
    point = st.lists(st.floats(lo, hi), min_size=entry.n, max_size=entry.n)
    h = draw(st.floats(1e-3, 1.0))
    t = DiscreteTriple(draw(point), draw(point), draw(st.floats(s_lo, s_hi)))
    return midpoint_discretize(entry.lagrangian, h), t


def entropy_never_decreases(case):
    d, t = case
    assert entropy_update(d, t) >= t.S0


@settings(max_examples=100)
@given(dissipativity_cases(OSC_CASES))
def test_entropy_dissipativity_oscillator(case):
    """Rayleigh friction at positive temperature never destroys entropy, at
    any step size."""
    entropy_never_decreases(case)


@settings(max_examples=100)
@given(dissipativity_cases(GAS_CASES))
def test_entropy_dissipativity_gases(case):
    """The same on the ideal gas, the van der Waals gas and the two pistons."""
    entropy_never_decreases(case)


def test_entropy_dissipativity_catches_a_friction_of_the_wrong_sign():
    # the property run on two pistons whose friction +0.1 v feeds energy in:
    # it must report a falsifying example, or it could not see the defect
    pushed = dataclasses.replace(TP.lagrangian, Ffr=lambda q, v, S: 0.1 * v)
    cases = [(dataclasses.replace(TP, lagrangian=pushed), (0.3, 3.0), (0.0, 4.0))]
    prop = settings(max_examples=100)(given(dissipativity_cases(cases))(entropy_never_decreases))
    with pytest.raises(AssertionError) as info:
        prop()
    assert any(note.startswith("Falsifying example") for note in info.value.__notes__)


def legendre_hamiltonian_stays_flat(d):
    # the oscillator's friction turns its motion into heat, so the total
    # energy H_plus stays put along 2000 steps of h = 0.01
    path = integrate(d, [0.3], [0.302], 0.2, 2000)
    assert np.ptp(hamiltonian_estimates(OSC, d, path)[0]) <= 1e-12


def test_legendre_hamiltonian_stays_flat_oscillator():
    legendre_hamiltonian_stays_flat(D_OSC)


def test_legendre_hamiltonian_catches_a_whole_friction_weight():
    # pi_minus subtracting the whole of ffr_minus instead of half, with the
    # analytic Jacobians kept: H_plus drifts by ~2e-2
    def whole_weight(q0, q1, S0):
        pi, rest, args = D_OSC.triple_pass(q0, q1, S0)
        return pi - 0.5 * D_OSC.ffr_minus(q0, q1, S0), rest, args
    with pytest.raises(AssertionError):
        legendre_hamiltonian_stays_flat(dataclasses.replace(D_OSC, triple_pass=whole_weight))


class TestDelResidual:
    """The discrete Euler-Lagrange residual
    pi_plus(q_prev, q_curr, S_prev) - pi_minus(q_curr, q_next, S_curr)."""

    def test_frictionless_recurrence_root(self):
        # gamma = 0: residual vanishes iff q2 = 2(4-h^2)/(4+h^2) q1 - q0.
        # The rounded q2 is a few ulps off the true root, which the h^-2
        # residual scale amplifies; measure the defect in q units.
        sys = LagrangianThermoSystem(
            n=1,
            L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - 0.1 * S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -0.1)
        d = midpoint_discretize(sys, H)
        q0, q1 = 0.3, 0.35
        q2 = 2 * (4 - H * H) / (4 + H * H) * q1 - q0
        qa, qb, qc = np.array([q0]), np.array([q1]), np.array([q2])
        r = d.pi_plus(qa, qb, 0.0) - d.pi_minus(qb, qc, 0.0)
        assert np.max(np.abs(r)) * H * H <= 5e-15

    def test_damped_closed_form_is_root(self):
        a, b = OSC.update_coefficients(H)
        q0, q1 = 0.4, 0.42
        S0 = 0.1
        S1 = entropy_update(D_OSC, DiscreteTriple([q0], [q1], S0))
        q2 = a * q1 - b * q0
        qa, qb, qc = np.array([q0]), np.array([q1]), np.array([q2])
        r = D_OSC.pi_plus(qa, qb, S0) - D_OSC.pi_minus(qb, qc, S1)
        assert np.max(np.abs(r)) * H * H <= 5e-15

    def test_closed_form_residual_at_path_scale(self):
        # at trajectory amplitudes the raw residual itself is tiny
        a, b = OSC.update_coefficients(H)
        q0, q1 = 0.0, 0.0099
        S1 = entropy_update(D_OSC, DiscreteTriple([q0], [q1], 0.0))
        qa, qb, qc = np.array([q0]), np.array([q1]), np.array([a * q1 - b * q0])
        r = D_OSC.pi_plus(qa, qb, 0.0) - D_OSC.pi_minus(qb, qc, S1)
        assert np.max(np.abs(r)) <= 1e-13

    def test_newton_root_has_small_residual(self):
        t = DiscreteTriple([1.0], [1.001], 10.0)
        out = discrete_flow(D_GAS, t, NewtonConfig(tol=1e-10))
        r = D_GAS.pi_plus(t.q0, t.q1, t.S0) - D_GAS.pi_minus(t.q1, out.q1, out.S0)
        assert np.max(np.abs(r)) <= 1e-10


class TestLegendreTransforms:
    def test_free_particle_momenta(self):
        d = D_FREE
        t = DiscreteTriple([0.2], [0.27], 0.0)
        _, cov_m, _ = legendre_minus(d, t)
        _, cov_p, _ = legendre_plus(d, t)
        np.testing.assert_allclose(cov_m, [(0.27 - 0.2) / H ** 2], rtol=1e-12)
        np.testing.assert_allclose(cov_p, [(0.27 - 0.2) / H ** 2], rtol=1e-12)
        pm, pp = discrete_momenta(d, t)
        np.testing.assert_allclose(pm, [(0.27 - 0.2) / H], rtol=1e-12)
        np.testing.assert_allclose(pp, [(0.27 - 0.2) / H], rtol=1e-12)

    def test_oscillator_momentum_example(self):
        # gamma = 0, q0 = 0, q1 = h: p_plus = 1 - h^2/4
        sys = LagrangianThermoSystem(
            n=1,
            L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - 0.1 * S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -0.1)
        d = midpoint_discretize(sys, H)
        _, pp = discrete_momenta(d, DiscreteTriple([0.0], [H], 0.0))[0:2]
        np.testing.assert_allclose(pp, [1 - H * H / 4], rtol=1e-12)

    def test_stationary_potential_terms(self):
        # frictionless oscillator at q0 = q1 = q: covectors are +/- (q0+q1)/4
        sys = LagrangianThermoSystem(
            n=1,
            L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - 0.1 * S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -0.1)
        d = midpoint_discretize(sys, H)
        t = DiscreteTriple([0.8], [0.8], 0.0)
        _, cov_m, _ = legendre_minus(d, t)
        _, cov_p, _ = legendre_plus(d, t)
        np.testing.assert_allclose(cov_m, [0.4], atol=1e-14)
        np.testing.assert_allclose(cov_p, [-0.4], atol=1e-14)
        pm, pp = discrete_momenta(d, t)
        np.testing.assert_allclose(pm, -pp, atol=1e-15)

    def test_momentum_matching_along_path(self):
        path = integrate(D_OSC, [0.0], [0.0099], 0.0, 500, NewtonConfig(tol=1e-12))
        worst = 0.0
        for k in range(1, 500):
            q_p, cov_p, S_p = legendre_plus(D_OSC, path.triple(k))
            q_m, cov_m, S_m = legendre_minus(D_OSC, path.triple(k + 1))
            np.testing.assert_array_equal(q_p, q_m)
            worst = max(worst, float(np.max(np.abs(cov_p - cov_m))), abs(S_p - S_m))
        assert worst <= 1e-10


class TestDiscreteFlow:
    def test_matches_oscillator_closed_form(self):
        # wide triples have dq ~ O(1): the residual floor eps*dq/h^2 sits
        # above 1e-12, so the flow runs at an attainable tolerance
        a, b = OSC.update_coefficients(H)
        cfg = NewtonConfig(tol=1e-10)
        rng = np.random.default_rng(5)
        for _ in range(25):
            q0, q1 = rng.uniform(-1, 1, size=2)
            S0 = rng.uniform(0, 1)
            out = discrete_flow(D_OSC, DiscreteTriple([q0], [q1], S0), cfg)
            assert out.q1[0] == pytest.approx(a * q1 - b * q0, abs=1e-12)
            np.testing.assert_array_equal(out.q0, [q1])

    def test_equilibrium_fixed_point(self):
        # q = 0 is a critical point of the oscillator potential
        out = discrete_flow(D_OSC, DiscreteTriple([0.0], [0.0], 0.3))
        np.testing.assert_allclose(out.q1, [0.0], atol=1e-15)
        assert out.S0 == 0.3

    def test_ideal_gas_against_bisection(self):
        from scipy.optimize import bisect

        t = DiscreteTriple([1.0], [1.0], 10.0)
        S1 = entropy_update(D_GAS, t)

        def resid(x):
            return (D_GAS.pi_plus(t.q0, t.q1, t.S0) - D_GAS.pi_minus(t.q1, np.array([x]), S1))[0]

        # the e^10 pressure pushes the first step over a unit of travel
        root = bisect(resid, 1.0, 5.0, xtol=1e-13)
        out = discrete_flow(D_GAS, t, NewtonConfig(tol=1e-10))
        assert out.q1[0] == pytest.approx(root, abs=1e-10)
        assert out.S0 == S1


class TestOmegaMatrices:
    """The matrices of the two-forms omega^{+/-}, as `omega_embedded` forms them."""

    def test_free_particle(self):
        t = DiscreteTriple([0.1], [0.2], 0.0)
        for side in ("plus", "minus"):
            np.testing.assert_allclose(omega_embedded(D_FREE, t, side)[:1, 1:2],
                                       [[1.0 / H ** 2]], rtol=1e-12)

    def test_zero_friction_plus_equals_minus(self):
        # analytic second partials: the two forms come from different
        # covector Jacobians, which central differences match only to ~1e-12
        zero = lambda q, v, S: np.zeros(1)
        sys = LagrangianThermoSystem(
            n=1,
            L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - 0.1 * S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -0.1,
            d2Ldq2=lambda q, v, S: -np.eye(1), d2Ldv2=lambda q, v, S: np.eye(1),
            d2LdqdS=zero, d2LdvdS=zero, dFfrdq=lambda q, v, S: np.zeros((1, 1)),
            dFfrdv=lambda q, v, S: np.zeros((1, 1)), dFfrdS=zero)
        d = midpoint_discretize(sys, H)
        t = DiscreteTriple([0.3], [0.5], 0.0)
        np.testing.assert_allclose(omega_embedded(d, t, "plus"), omega_embedded(d, t, "minus"),
                                   rtol=1e-14)

    @pytest.mark.parametrize("d,triple", [
        (D_OSC, DiscreteTriple([0.4], [0.42], 0.3)),
        (D_GAS, DiscreteTriple([1.0], [1.01], 10.0)),
        (D_TP, DiscreteTriple([1.0, 1.1], [1.01, 1.09], 1.0)),
    ])
    def test_analytic_matches_finite_differences(self, d, triple):
        # strip the analytic covector Jacobians to force the FD fallback
        fd = dataclasses.replace(d, dpi_minus=None, dpi_plus=None)
        for side in ("plus", "minus"):
            W, W_fd = omega_embedded(d, triple, side), omega_embedded(fd, triple, side)
            np.testing.assert_allclose(W, W_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(W)))

    def test_blocks_match_embedded_two_forms(self):
        # n = 2 with a non-symmetric friction Jacobian -A, where a transposed
        # friction block in the analytic covector Jacobians would show
        A = np.array([[1.0, 0.7], [-0.2, 0.5]])
        zero = lambda q, v, S: np.zeros(2)
        sys = LagrangianThermoSystem(
            n=2,
            L=lambda q, v, S: 0.5 * float(v @ v) - S,
            dLdq=zero, dLdv=lambda q, v, S: v, dLdS=lambda q, v, S: -1.0,
            Ffr=lambda q, v, S: -A @ v,
            d2Ldq2=lambda q, v, S: np.zeros((2, 2)), d2Ldv2=lambda q, v, S: np.eye(2),
            d2LdqdS=zero, d2LdvdS=zero, dFfrdq=lambda q, v, S: np.zeros((2, 2)),
            dFfrdv=lambda q, v, S: -A, dFfrdS=zero)
        d = midpoint_discretize(sys, 0.1)
        fd = dataclasses.replace(d, dpi_minus=None, dpi_plus=None)
        t = DiscreteTriple([0.3, -0.2], [0.35, -0.1], 0.5)
        for side in ("plus", "minus"):
            W, W_fd = omega_embedded(d, t, side), omega_embedded(fd, t, side)
            np.testing.assert_allclose(W, W_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(W)))


def _generic_two_pistons():
    """Two-pistons at h = 0.01 with the generic pass and Jacobians."""
    return dataclasses.replace(D_TP, triple_pass=None, pi_minus_dq1=None, dpi_minus=None,
                               dpi_plus=None)


class TestGenericCovectorJacobians:
    T = DiscreteTriple([1.0, 1.1], [1.01, 1.09], 0.5)

    def test_dpi_plus_makes_no_DSLd_call(self):
        # the generic pi_plus is read off the pass, whose rest also forms
        # the entropy increment; its Jacobian differences D2Ld + ffr_plus/2
        calls = []
        d = _generic_two_pistons()
        counted = dataclasses.replace(d, DSLd=lambda *a: calls.append(1) or d.DSLd(*a))
        t = self.T
        counted.dpi_plus(t.q0, t.q1, t.S0)
        assert calls == []
        counted.dpi_minus(t.q0, t.q1, t.S0)
        assert calls == []

    def test_dpi_plus_is_differenced_pi_plus(self):
        # D2Ld + ffr_plus/2 is the rest's expression: the bits of the
        # central differences of the pass's pi_plus
        d, t = _generic_two_pistons(), self.T
        fd = fd_gradient(lambda y: d.pi_plus(y[:2], y[2:4], y[4]), t.as_array())
        assert d.dpi_plus(t.q0, t.q1, t.S0).tobytes() == fd.tobytes()

    def test_two_form_where_DSLd_vanishes_off_the_triple(self):
        # D_S Ld is zero at every perturbed S0: no entropy increment is needed
        t = self.T
        d = _generic_two_pistons()
        degenerate = dataclasses.replace(
            d, DSLd=lambda q0, q1, S0: d.DSLd(q0, q1, S0) if S0 == t.S0 else 0.0)
        with pytest.raises(TemperatureDegenerateError):
            degenerate.entropy_increment(t.q0, t.q1, t.S0 + 1e-3)
        np.testing.assert_array_equal(omega_embedded(degenerate, t, "plus"),
                                      omega_embedded(d, t, "plus"))

    def test_replaced_pass_keeps_its_own_pi_plus(self):
        # a copy that replaces the pass (a mutant) differences its own pi_plus
        d, t = _generic_two_pistons(), self.T

        def doubled_pass(q0, q1, S0):
            pi, rest, args = d.triple_pass(q0, q1, S0)
            pi_plus, dS = rest(*args)
            return pi, lambda: (2.0 * pi_plus, dS), ()

        doubled = dataclasses.replace(d, triple_pass=doubled_pass)
        np.testing.assert_allclose(doubled.dpi_plus(t.q0, t.q1, t.S0),
                                   2.0 * d.dpi_plus(t.q0, t.q1, t.S0), rtol=1e-6)


class TestDerivedSecondPartials:
    @pytest.mark.parametrize("with_mixed_partial", [False, True])
    def test_gyroscopic_covector_jacobians(self, with_mixed_partial):
        # an omitted d2Ldqdv is derived, not read as zero
        d = midpoint_discretize(gyroscopic(with_mixed_partial), H)
        t = DiscreteTriple([0.3, -0.2], [0.31, -0.19], 0.5)
        x = t.as_array()
        J = fd_gradient(lambda y: d.pi_minus(y[:2], y[2:4], y[4]), x)
        atol = 1e-6 * np.max(np.abs(J))
        np.testing.assert_allclose(d.pi_minus_dq1(t.q0, t.q1, t.S0), J[:, 2:4],
                                   rtol=1e-6, atol=atol)
        np.testing.assert_allclose(d.dpi_minus(t.q0, t.q1, t.S0), J, rtol=1e-6, atol=atol)
        assert pullback_check(d, t, NewtonConfig(tol=1e-10)) <= 1e-5

    def test_derived_mixed_partial_index_convention(self):
        sys = gyroscopic(False)
        q, v = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        np.testing.assert_allclose(sys.d2Ldqdv(q, v, 0.5), GYRO_QV, rtol=1e-9, atol=1e-12)


class TestPullback:
    def test_oscillator_random_triples(self):
        cfg = NewtonConfig(tol=1e-10)
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = DiscreteTriple(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1),
                               rng.uniform(0, 1))
            assert pullback_check(D_OSC, t, cfg) <= 1e-6

    def test_ideal_gas_near_start(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            q0 = rng.uniform(0.95, 1.05)
            t = DiscreteTriple([q0], [q0 + rng.uniform(-0.01, 0.01)],
                               10.0 + rng.uniform(-0.1, 0.1))
            assert pullback_check(D_GAS, t, NewtonConfig(tol=1e-10)) <= 1e-5

    def test_free_particle_tight(self):
        assert pullback_check(D_FREE, DiscreteTriple([0.2], [0.25], 0.1)) <= 1e-8


class TestMomentumMapAndNoether:
    def test_zero_generator(self):
        xi = lambda q: np.zeros(2)
        assert momentum_map(D_TP, DiscreteTriple([1.0, 1.0], [1.01, 0.99], 1.0),
                            xi, "plus") == 0.0

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals",
                                      "two-pistons"])
    def test_each_side_is_its_discrete_momentum_paired(self, name):
        # momentum_map forms the momentum of the side it pairs and no other:
        # the other slot derivative raises if called
        d = midpoint_discretize(get_system(name).lagrangian, H)
        rng = np.random.default_rng(2303)
        q0 = rng.uniform(0.9, 1.1, (40, d.n))
        q1, S0 = q0 + rng.uniform(-0.01, 0.01, q0.shape), rng.uniform(0.0, 2.0, 40)
        xi = lambda q: q * q

        def never(*args):
            raise AssertionError("the other side's momentum was formed")

        one_side = {"minus": dataclasses.replace(d, D2Ld=never),
                    "plus": dataclasses.replace(d, D1Ld=never)}
        for t in (DiscreteTriple(q0, q1, S0), DiscreteTriple(q0[0], q1[0], S0[0])):
            p_minus, p_plus = discrete_momenta(d, t)
            for side, p, q in (("minus", p_minus, t.q0), ("plus", p_plus, t.q1)):
                got = momentum_map(one_side[side], t, xi, side)
                assert type(got) is type(pair(p, xi(q)))
                assert np.asarray(got).tobytes() == np.asarray(pair(p, xi(q))).tobytes()

    def test_matching_transfers_momentum_map(self):
        d = midpoint_discretize(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        path = integrate(d, [1.0, 1.0], [1.002, 0.997], 1.0, 200, NewtonConfig(tol=1e-11))
        jp = momentum_map(d, path.stack(), xi, "plus")
        jm = momentum_map(d, path.stack(), xi, "minus")
        np.testing.assert_allclose(jm[1:], jp[:-1], rtol=0, atol=1e-10)

    def test_frictionless_condition_holds(self):
        d = midpoint_discretize(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        rng = np.random.default_rng(8)
        samples = DiscreteTriple(rng.uniform(0.5, 1.5, (30, 2)), rng.uniform(0.5, 1.5, (30, 2)),
                                 rng.uniform(0, 2, 30))
        assert noether_condition(d, xi, samples)

    def test_nan_residual_fails_condition(self):
        d = midpoint_discretize(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        assert not noether_condition(d, xi, DiscreteTriple([1.0, 1.0], [1.0, 1.0], np.nan))
        # one NaN row of a stack fails the whole stack
        stack = DiscreteTriple([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3, [1.0, np.nan, 1.0])
        assert not noether_condition(d, xi, stack)

    def test_friction_breaks_condition(self):
        xi = lambda q: np.array([-1.0, 1.0])
        t = DiscreteTriple([1.0, 1.0], [1.02, 0.99], 1.0)
        assert not noether_condition(D_TP, xi, t)
        # the violation is exactly the friction pairing gamma (dx - dy)/h
        f = D_TP.ffr_minus(t.q0, t.q1, t.S0)
        expected = 0.5 * f @ np.array([-1.0, 1.0]) * 2
        assert expected == pytest.approx(GAMMA * ((1.02 - 1.0) - (0.99 - 1.0)) / H)

    def test_momentum_map_conserved_along_flow(self):
        d = midpoint_discretize(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        N = 1000
        path = integrate(d, [1.0, 1.0], [1.002, 0.997], 1.0, N, NewtonConfig(tol=1e-11))
        J = momentum_map(d, path.stack(), xi, "plus")
        assert np.max(np.abs(J - J[0])) <= N * 1e-11


#: the callables the one-triple diagnostics hand float points where they are marked
DIAGNOSTIC_FIELDS = ("D1Ld", "D2Ld", "ffr_minus", "ffr_plus", "pi_minus", "triple_pass")


def _one_triple_cases(name, rows=24):
    """Seeded triples of a catalog system, (rows, n), (rows, n) and (rows,):
    every fourth with q1 = q0, a velocity of +0.0 entries, and where the
    domain holds a zero coordinate every fourth from the second with q0 = 0
    and q1 = -0.0 in coordinate 0, a velocity entry of -0.0."""
    n = get_system(name).n
    rng = np.random.default_rng(3401)
    q0 = rng.uniform(-1.0 if name == "oscillator" else 0.6, 1.6, (rows, n))
    q1 = q0 + rng.uniform(-0.05, 0.05, (rows, n))
    q1[::4] = q0[::4]
    if name in ("oscillator", "two-pistons"):
        q0[1::4, 0], q1[1::4, 0] = 0.0, -0.0
    return q0, q1, rng.uniform(0.0, 2.0, rows)


def _diagnostics(d, t):
    """momentum_map (both sides, two generators), discrete_momenta and the
    two Legendre transforms at t, one triple or a stack."""
    values = [momentum_map(d, t, xi, side) for side in ("plus", "minus")
              for xi in (np.ones_like, lambda q: q)]
    return values + [*discrete_momenta(d, t), *legendre_plus(d, t), *legendre_minus(d, t)]


def _bytes(values):
    return [(type(x), np.asarray(x).tobytes()) for x in values]


def _flat(value):
    """The value of a diagnostic as a list of its values: a tuple's items."""
    return list(value) if type(value) is tuple else [value]


#: the two-forms of both sides at one triple
OMEGA = [lambda d, t: omega_embedded(d, t, "plus"), lambda d, t: omega_embedded(d, t, "minus")]


def _stiff_oscillator():
    """The oscillator with d2L/dq2 = -q^2, which overflows at |q| > 1.4e154:
    silently on floats, reported by numpy on arrays."""
    return dataclasses.replace(
        OSC.lagrangian, name="stiff",
        d2Ldq2=lambda q, v, S: -q * q if type(q) is float else -np.multiply.outer(q, q))


def _overflow_cases():
    """(system, triple, calls) for the diagnostics at one triple: the shared
    fallback's callers, whose value is not finite on floats, and the
    two-forms and momenta, which take arrays; numpy raises
    FloatingPointError on arrays under over="raise", invalid="raise"."""
    maps = [lambda d, t, xi=xi, side=side: momentum_map(d, t, xi, side)
            for side in ("plus", "minus") for xi in (np.ones_like, lambda q: q)]
    huge = lambda d, t, side: momentum_map(d, t, lambda q: np.full_like(q, 1e308), side)
    legendre = [legendre_plus, legendre_minus, discrete_momenta]
    return [
        # the velocity (q1 - q0)/h overflows
        (OSC.lagrangian, ([1e308], [-1e308], 0.0), maps + legendre),
        # e^S V^(-gamma - 2) of the covector Jacobians overflows
        (GAS.lagrangian, ([0.01], [0.0101], 700.0), OMEGA),
        (_stiff_oscillator(), ([1e200], [1e200], 0.0), OMEGA),
        # the midpoint q0 + q1 overflows, and V^(-gamma) leaves every entry finite
        (GAS.lagrangian, ([1e308], [1e308], 1.0), [*OMEGA, discrete_momenta]),
        # the velocity's dL/dv / h overflows, in one coordinate of two
        (TP.lagrangian, ([1.0, 1.0], [1e306, 1.0], 1.0), legendre),
        # only the pairing with xi overflows
        (GAS.lagrangian, ([1.0], [1.01], 10.0),
         [lambda d, t: huge(d, t, "plus"), lambda d, t: huge(d, t, "minus")]),
    ]


def _error(call, d, t):
    """The FloatingPointError message of call(d, t) under over="raise",
    invalid="raise"; None if it raises none."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            call(d, t)
        except FloatingPointError as exc:
            return str(exc)
    return None


class TestOneTripleOnFloats:
    """The diagnostics at one triple hand each marked callable the float
    points of a step, bit for bit the diagnostics on arrays."""

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals",
                                      "two-pistons"])
    def test_float_points_keep_every_bit(self, name):
        # against the copy declared without float points and against row k
        # of the stacked call; bytes tell -0.0 from +0.0
        lag = get_system(name).lagrangian
        d = midpoint_discretize(lag, H)
        arrays = midpoint_discretize(dataclasses.replace(lag, float_points=False), H)
        assert all(_marked(getattr(d, f)) for f in DIAGNOSTIC_FIELDS)
        assert not any(_marked(getattr(arrays, f)) for f in DIAGNOSTIC_FIELDS)
        q0, q1, S0 = _one_triple_cases(name)
        stacked = _diagnostics(d, DiscreteTriple(q0, q1, S0))
        for k in range(len(S0)):
            t = DiscreteTriple(q0[k], q1[k], S0[k])
            got, expected = (_diagnostics(e, t) + [omega_embedded(e, t, side)
                                                   for side in ("plus", "minus")]
                             for e in (d, arrays))
            assert _bytes(got) == _bytes(expected)
            assert [x for _, x in _bytes(got[:len(stacked)])] == [
                x for _, x in _bytes([value[k] for value in stacked])]

    @pytest.mark.parametrize("name", ["ideal-gas", "two-pistons"])
    def test_wrapped_callables_get_float_points(self, name):
        # a profiler's wrapper (``__wrapped__``) of a marked callable gets the
        # float points; a hand-written callable without the mark gets arrays,
        # as the covector Jacobians, which carry no mark, and discrete_momenta's
        # callables, which it calls on arrays, do
        d = midpoint_discretize(get_system(name).lagrangian, H)
        seen = {}

        def traced(attr, fn):
            def wrapper(q0, q1, S0):
                seen.setdefault(attr, set()).add(type(q0))
                return fn(q0, q1, S0)
            wrapper.__wrapped__ = fn
            return wrapper

        jacobians = ("dpi_minus", "dpi_plus")
        wrapped = dataclasses.replace(d, **{f: traced(f, getattr(d, f))
                                            for f in DIAGNOSTIC_FIELDS + jacobians})
        q0, q1, S0 = _one_triple_cases(name)
        t = DiscreteTriple(q0[2], q1[2], S0[2])
        assert _bytes(_diagnostics(wrapped, t)) == _bytes(_diagnostics(d, t))
        omega_embedded(wrapped, t, "plus")
        omega_embedded(wrapped, t, "minus")
        point = tuple if d.n == 2 else float
        momenta = ("D1Ld", "D2Ld", "ffr_minus", "ffr_plus")
        assert seen == ({f: {point} for f in DIAGNOSTIC_FIELDS}
                        | {f: {point, np.ndarray} for f in momenta}
                        | {f: {np.ndarray} for f in jacobians})

        seen.clear()
        by_hand = dataclasses.replace(d, D2Ld=traced("by hand", lambda *x: d.D2Ld(*x)))
        got = momentum_map(by_hand, t, np.ones_like, "plus")
        assert seen == {"by hand": {np.ndarray}}
        assert _bytes([got]) == _bytes([momentum_map(d, t, np.ones_like, "plus")])

    def test_overflow_is_reported_as_on_arrays(self):
        # float arithmetic overflows silently: a value that is not finite is
        # formed again on arrays, where numpy reports the overflow under the
        # errstate in force, as the copy without float points does, and as
        # the two-forms and the momenta, formed on arrays only, report an
        # overflow that leaves every entry finite; with the errstate off, the
        # values keep the bits of that copy
        for lag, triple, calls in _overflow_cases():
            t = DiscreteTriple(*triple)
            d = midpoint_discretize(lag, H)
            arrays = midpoint_discretize(dataclasses.replace(lag, float_points=False), H)
            for call in calls:
                messages = []
                for e in (d, arrays):
                    with np.errstate(over="raise", invalid="raise"), \
                            pytest.raises(FloatingPointError) as info:
                        call(e, t)
                    messages.append(str(info.value))
                assert messages[0] == messages[1]
                with np.errstate(all="ignore"):
                    assert _bytes(_flat(call(d, t))) == _bytes(_flat(call(arrays, t)))
        arrays = midpoint_discretize(dataclasses.replace(OSC.lagrangian, float_points=False), H)
        t = DiscreteTriple([1e308], [-1e308], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bytes(_diagnostics(D_OSC, t)) == _bytes(_diagnostics(arrays, t))

    def test_overflow_goes_unreported_without_the_array_redo(self, monkeypatch):
        # the mutant: the shared fallback hands back the value on floats and
        # never forms it again on arrays; the overflow checks of its callers
        # then report nothing, or not the array side's error
        from test_bench import TestRk2
        from test_continuous import TestRhs

        cases = [(lag, triple, call) for lag, triple, calls in _overflow_cases()
                 for call in calls]
        expected = [_error(call, midpoint_discretize(dataclasses.replace(lag, float_points=False),
                                                     H), DiscreteTriple(*triple))
                    for lag, triple, call in cases]
        for module in (continuous, discrete, bench):
            monkeypatch.setattr(module, "_or_on_arrays", lambda value, redo, *args: value)
        for (lag, triple, call), message in zip(cases, expected):
            got = _error(call, midpoint_discretize(lag, H), DiscreteTriple(*triple))
            # the two-forms and the momenta take arrays, without the fallback
            assert (got == message) if call in (*OMEGA, discrete_momenta) else (got != message)
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            TestRk2().test_float_step_overflow_raises_at_its_step()
        for name in ("oscillator", "ideal-gas", "van-der-waals"):
            with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
                TestRhs().test_first_order_rhs_overflow_raises_as_on_arrays(name)

    def test_derived_S_block_field_keeps_the_jacobians_on_arrays(self):
        # two-pistons declaring float points with d2L/dqdS derived by central
        # differences, which take arrays only at n = 2: the pass, the slot
        # derivatives and the friction covector take pairs of floats, the
        # covector Jacobians arrays, with the bits of the copy without float
        # points, and they match the finite-difference Jacobians as ever
        lag = dataclasses.replace(TP.lagrangian, d2LdqdS=None)
        assert lag.float_points and lag.d2LdqdS.generic
        d = midpoint_discretize(lag, H)
        assert all(_marked(getattr(d, f)) for f in DIAGNOSTIC_FIELDS[:6] + ("pi_minus_dq1",))
        assert not _marked(d.dpi_minus) and not _marked(d.dpi_plus)
        arrays = midpoint_discretize(dataclasses.replace(lag, float_points=False), H)
        fd = dataclasses.replace(d, dpi_minus=None, dpi_plus=None)
        t = DiscreteTriple([1.0, 1.1], [1.01, 1.09], 1.0)
        for side in ("plus", "minus"):
            W = omega_embedded(d, t, side)
            assert W.tobytes() == omega_embedded(arrays, t, side).tobytes()
            W_fd = omega_embedded(fd, t, side)
            np.testing.assert_allclose(W, W_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(W)))


class TestActionAndBoundary:
    def test_single_segment_action(self):
        t = DiscreteTriple([0.2], [0.23], 0.4)
        S1 = entropy_update(D_OSC, t)
        path = DiscretePath(h=H, qs=np.array([[0.2], [0.23]]), Ss=np.array([0.4, S1]))
        assert discrete_action(D_OSC, path) == pytest.approx(
            D_OSC.Ld(t.q0, t.q1, t.S0), rel=1e-14)

    def test_invalid_path_rejected(self):
        path = DiscretePath(h=H, qs=np.array([[0.2], [0.23]]), Ss=np.array([0.4, 99.0]))
        with pytest.raises(ValueError):
            discrete_action(D_OSC, path)

    def test_boundary_forms_values(self):
        t = DiscreteTriple([0.3], [0.33], 0.2)
        _, th_m, _ = legendre_minus(D_OSC, t)
        _, th_p, _ = legendre_plus(D_OSC, t)
        np.testing.assert_allclose(
            th_m, -(D_OSC.D1Ld(t.q0, t.q1, t.S0) + 0.5 * D_OSC.ffr_minus(t.q0, t.q1, t.S0)))
        np.testing.assert_allclose(
            th_p, D_OSC.D2Ld(t.q0, t.q1, t.S0) + 0.5 * D_OSC.ffr_plus(t.q0, t.q1, t.S0))

    @pytest.mark.parametrize("d", [D_OSC, D_GAS])
    def test_action_variation_matches_ddel(self, d):
        """d A_d along a constrained variation equals sum ddel . delta q."""
        rng = np.random.default_rng(9)
        N = 6
        qs = np.cumsum(rng.uniform(0.001, 0.004, size=(N + 1, 1)), axis=0) + 1.0
        Ss = np.empty(N + 1)
        Ss[0] = 2.0
        for k in range(1, N + 1):
            Ss[k] = entropy_update(d, DiscreteTriple(qs[k - 1], qs[k], Ss[k - 1]))
        path = DiscretePath(h=d.h, qs=qs, Ss=Ss)
        dq = rng.normal(size=(N + 1, 1))
        dq[0] = dq[N] = 0.0

        # variations of S from the variational constraint eta_d(delta) = 0
        dS = np.zeros(N + 1)
        for k in range(1, N + 1):
            t = path.triple(k)
            fm = d.ffr_minus(t.q0, t.q1, t.S0)
            fp = d.ffr_plus(t.q0, t.q1, t.S0)
            dS[k - 1] = (0.5 * fm @ dq[k - 1] + 0.5 * fp @ dq[k]) / d.DSLd(t.q0, t.q1, t.S0)

        eps = 1e-6
        plus = DiscretePath(h=d.h, qs=qs + eps * dq, Ss=Ss + eps * dS)
        minus = DiscretePath(h=d.h, qs=qs - eps * dq, Ss=Ss - eps * dS)
        fd = (discrete_action(d, plus, validate=False)
              - discrete_action(d, minus, validate=False)) / (2 * eps)

        inner = sum(
            float((d.pi_plus(qs[k - 1], qs[k], Ss[k - 1]) - d.pi_minus(qs[k], qs[k + 1], Ss[k]))
                  @ dq[k])
            for k in range(1, N))
        assert fd == pytest.approx(inner, abs=1e-6)


class TestSemiregularity:
    def test_oscillator_invertible_for_small_steps(self):
        for h in (0.001, 0.01, 0.1):
            d = midpoint_discretize(OSC.lagrangian, h)
            t = DiscreteTriple([0.5], [0.52], 0.0)
            M = d.pi_minus_dq1(t.q0, t.q1, t.S0)
            expected = 1.0 / h ** 2 + 0.25 + GAMMA / (2 * h)
            np.testing.assert_allclose(M, [[expected]], rtol=1e-12)
            assert abs(np.linalg.det(M)) > 1e-12

    def test_free_particle(self):
        t = DiscreteTriple([0.0], [0.1], 0.0)
        M = D_FREE.pi_minus_dq1(t.q0, t.q1, t.S0)
        np.testing.assert_allclose(M, [[1.0 / H ** 2]], rtol=1e-12)

    def test_degenerate_lagrangian_flagged(self):
        # Ld independent of q1: the matrix vanishes identically
        d = DiscreteThermoSystem(
            n=1, h=H,
            Ld=lambda q0, q1, S0: float(q0 @ q0) - 0.1 * S0,
            D1Ld=lambda q0, q1, S0: 2 * q0,
            D2Ld=lambda q0, q1, S0: np.zeros(1),
            DSLd=lambda q0, q1, S0: -0.1,
            ffr_minus=lambda q0, q1, S0: np.zeros(1),
            ffr_plus=lambda q0, q1, S0: np.zeros(1),
        )
        t = DiscreteTriple([0.3], [0.4], 0.0)
        M = d.pi_minus_dq1(t.q0, t.q1, t.S0)
        np.testing.assert_allclose(M, [[0.0]], atol=1e-8)

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals",
                                      "two-pistons", "gyroscopic"])
    @pytest.mark.parametrize("h", [0.3, 0.1, 0.01, 0.001])
    def test_newton_matrix_is_q1_block_of_dpi_minus(self, name, h):
        # bit for bit; the gyroscopic system adds a nonzero d2Ldqdv and a
        # non-symmetric, q-dependent friction -A v - 0.3 q
        if name == "gyroscopic":
            A = np.array([[1.0, 0.7], [-0.2, 0.5]])
            sys = dataclasses.replace(
                gyroscopic(True), Ffr=lambda q, v, S: -A @ v - 0.3 * q,
                dFfrdq=lambda q, v, S: -0.3 * np.eye(2), dFfrdv=lambda q, v, S: -A)
        else:
            sys = get_system(name).lagrangian
        d = midpoint_discretize(sys, h)
        n = d.n
        rng = np.random.default_rng(17)
        for _ in range(50):
            q0 = rng.uniform(0.8, 1.2, n)
            q1 = q0 + rng.uniform(-0.05, 0.05, n)
            S0 = rng.uniform(0.0, 2.0)
            np.testing.assert_array_equal(d.pi_minus_dq1(q0, q1, S0),
                                          d.dpi_minus(q0, q1, S0)[:, n : 2 * n])


#: the fields of a Lagrangian that the Newton matrix and the covector Jacobians read
JACOBIAN_FIELDS = ("d2Ldq2", "d2Ldqdv", "d2Ldv2", "d2LdqdS", "d2LdvdS", "dFfrdq", "dFfrdv",
                   "dFfrdS")


def _jacobian_values(d, rng):
    """pi_minus_dq1 (also at float points, n = 1), dpi_minus and dpi_plus at
    50 seeded triples."""
    n, values = d.n, []
    for _ in range(50):
        q0 = rng.uniform(0.8, 1.2, n)
        q1 = q0 + rng.uniform(-0.05, 0.05, n)
        S0 = rng.uniform(0.0, 2.0)
        values += [d.pi_minus_dq1(q0, q1, S0), d.dpi_minus(q0, q1, S0), d.dpi_plus(q0, q1, S0)]
        if n == 1:
            values.append(d.pi_minus_dq1(float(q0[0]), float(q1[0]), S0))
    return values


def _scrambled_constants():
    """n = 2 with point-dependent d2Ldq2 and d2LdqdS and seeded constants
    for the other six fields, none of them zero or an identity, so that a
    reordered sum of the constant products changes bits."""
    rng = np.random.default_rng(2103)
    constants = {f: _constant(rng.uniform(-3.0, 3.0, (2, 2) if f[-1] != "S" else 2))
                 for f in JACOBIAN_FIELDS if f not in ("d2Ldq2", "d2LdqdS")}
    return dataclasses.replace(
        TP.lagrangian, d2Ldq2=lambda q, v, S: np.outer(q, q) * np.exp(S),
        d2LdqdS=lambda q, v, S: q * np.exp(S), **constants)


@pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals", "two-pistons",
                                  "scrambled"])
@pytest.mark.parametrize("h", [0.1, 0.01])
def test_constant_products_keep_every_bit(name, h):
    # midpoint_discretize forms the products of the fields marked constant
    # once; a copy whose marked fields are plain lambdas forms every product
    # at the point.  Unmarking all of them, then each one alone, covers
    # leading constants, constants after a varying term and a varying group
    lag = _scrambled_constants() if name == "scrambled" else get_system(name).lagrangian
    marked = [f for f in JACOBIAN_FIELDS if hasattr(getattr(lag, f), "constant")]
    assert marked

    def unmarked(*fields):
        return dataclasses.replace(lag, **{
            f: (lambda fn: lambda q, v, S: fn(q, v, S))(getattr(lag, f)) for f in fields})

    expected = _jacobian_values(midpoint_discretize(unmarked(*marked), h),
                                np.random.default_rng(2102))
    for sys in (lag, *(unmarked(f) for f in marked)):
        values = _jacobian_values(midpoint_discretize(sys, h), np.random.default_rng(2102))
        assert [type(x) for x in values] == [type(x) for x in expected]
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(values, expected))


def test_constant_blocks_form_no_midpoint():
    # the oscillator's Newton matrix and its two S blocks are sums of
    # constant products only: each is a constant field, called at (q0, q1,
    # S0) with no midpoint formed.  It gives the bits of the same block of a
    # copy whose fields are unmarked, which forms the midpoint and every
    # product at the point: at a float point, at an array point and on a stack
    def blocks(d):
        # the S block is the last of the three column blocks of each side,
        # which its covector Jacobian evaluates at one midpoint, `at_mid`
        def column_blocks(dpi):
            at_midpoint = inspect.getclosurevars(dpi).nonlocals["fn"]
            return inspect.getclosurevars(at_midpoint).nonlocals["blocks"]
        return [d.pi_minus_dq1, *(column_blocks(dpi)[2] for dpi in (d.dpi_minus, d.dpi_plus))]

    lag = OSC.lagrangian
    assert all(hasattr(getattr(lag, f), "constant") for f in JACOBIAN_FIELDS)
    unmarked = dataclasses.replace(lag, **{
        f: (lambda fn: lambda q, v, S: fn(q, v, S))(getattr(lag, f)) for f in JACOBIAN_FIELDS})
    rng = np.random.default_rng(2601)
    q0, q1 = rng.uniform(-1.0, 1.0, (2, 6, 1))
    S0 = rng.uniform(0.0, 2.0, 6)
    points = [(float(q0[0, 0]), float(q1[0, 0]), float(S0[0])), (q0[0], q1[0], float(S0[0])),
              (q0, q1, S0)]
    for block, reference in zip(blocks(D_OSC), blocks(midpoint_discretize(unmarked, H))):
        assert hasattr(block, "constant") and not hasattr(reference, "constant")
        for t in points:
            value, expected = block(*t), reference(*t)
            assert type(value) is type(expected)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


_NZ, _PZ = -0.0, 0.0


@pytest.mark.parametrize("run", [
    [[_NZ, _NZ], [_NZ, _NZ]],
    [[_PZ, _PZ]],
    [[_PZ, _PZ], [_NZ, _NZ]],
    [[_PZ, _PZ], [_PZ, _PZ]],
    [[_NZ, _NZ], [_PZ, _PZ], [1.5, -2.0]],
    [[_NZ, _PZ], [_PZ, _PZ]],
    [[_PZ, _PZ], [_NZ, _PZ]],
    [[_PZ, _PZ], [_NZ, 5.0], [_NZ, _NZ]],
    [[0.25, _PZ], [_PZ, _PZ], [_NZ, _NZ], [-3.0, 7.0], [_PZ, _PZ], [_NZ, _NZ]],
], ids=["neg", "pos-last", "pos-then-neg", "pos-pos", "neg-pos-value", "mixed-pos",
        "pos-mixed", "pos-half-covered", "interleaved"])
def test_zero_addends_fold_exactly(run):
    # a field followed by a run of constants, zeros among them: the block
    # gives the bits of the sum formed term by term, at float points, at
    # array points and on a stack, whatever the field's value (+-0, +-inf,
    # NaN and random values), with each constant's entries in either order
    from thermint.discrete import _sum_of_products

    rng = np.random.default_rng(2701)
    pool = [0.0, -0.0, np.inf, -np.inf, np.nan, *rng.normal(size=3).tolist()]
    stack = np.array([[a, b] for a in pool for b in pool])
    for flip in (False, True):
        constants = [np.array(c[::-1] if flip else c) for c in run]
        value = {}
        block = _sum_of_products([lambda m, w, S0: value["acc"],
                                  *(_constant(c.copy()) for c in constants)])
        points = [(a, a) for a in pool] + [(row, row) for row in stack] + [(stack, stack)]
        for m, acc in points:
            value["acc"] = acc
            expected = acc
            for c in constants:
                expected = expected + (float(c[0]) if type(m) is float else c)
            got = block(m, m, 0.0)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (m, run)


def test_two_pistons_newton_matrix_drops_zero_addends():
    # the constant products after the stiffness: d2L/dqdv twice (all zeros),
    # d2L/dv2 / h^2 and the friction block; the zeros change no bit and go
    from thermint.discrete import _exact_addends

    for gamma in (0.0, GAMMA):
        lag = get_system("two-pistons", gamma=gamma).lagrangian
        k_q, k_qv, k_vq, k_vv = -0.25, -1 / (2 * H), 1 / (2 * H), 1 / (H * H)
        run = [k_qv * lag.d2Ldqdv.constant, k_vq * lag.d2Ldqdv.constant.T,
               k_vv * lag.d2Ldv2.constant,
               k_q * lag.dFfrdq.constant + k_qv * lag.dFfrdv.constant]
        floats, kept = _exact_addends(run)
        assert len(kept) == 2 and kept[0] is run[2] and kept[1] is run[3]
        assert floats == [float(run[2][0, 0]), float(run[3][0, 0])]


def test_covector_jacobian_forms_one_midpoint():
    # the three column blocks of a covector Jacobian are evaluated at one
    # midpoint, formed once per call by `at_mid`'s inner function
    from sys import setprofile

    d = midpoint_discretize(TP.lagrangian, H)
    t = (np.array([1.0, 1.1]), np.array([1.01, 1.09]), 0.5)
    for dpi in (d.dpi_minus, d.dpi_plus):
        calls = []
        setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
                   if event == "call" else None)
        try:
            dpi(*t)
        finally:
            setprofile(None)
        assert calls.count("at_midpoint") == 1


class TestDiscretePath:
    def test_triple_indexing(self):
        path = DiscretePath(h=H, qs=np.array([[0.0], [1.0], [2.0]]),
                            Ss=np.array([0.0, 0.1, 0.2]))
        t = path.triple(2)
        np.testing.assert_array_equal(t.q0, [1.0])
        np.testing.assert_array_equal(t.q1, [2.0])
        assert t.S0 == 0.1
        with pytest.raises(IndexError):
            path.triple(3)

    def test_constraint_residual_of_solver_output(self):
        path = integrate(D_OSC, [0.0], [0.0099], 0.0, 100)
        assert path.constraint_residual(D_OSC) <= 1e-12

    def test_nan_entropy_violates_the_constraint(self):
        path = DiscretePath(h=H, qs=[[0.0], [0.01], [0.02]], Ss=[0.0, np.nan, np.nan])
        assert np.isnan(path.constraint_residual(D_OSC))
        with pytest.raises(ValueError, match="entropy-update constraint"):
            discrete_action(D_OSC, path)


def trapezoidal(sys, h):
    """The trapezoidal discretization, Ld = (L(q0, w, S0) + L(q1, w, S0))/2
    with w = (q1 - q0)/h, built from the six fields a discretization must
    supply; the friction covector is the same average of Ffr."""
    def w(q0, q1):
        return (q1 - q0) / h

    def Ld(q0, q1, S0):
        v = w(q0, q1)
        return 0.5 * (sys.L(q0, v, S0) + sys.L(q1, v, S0))

    def dLdv(q0, q1, S0):
        v = w(q0, q1)
        return (np.asarray(sys.dLdv(q0, v, S0)) + np.asarray(sys.dLdv(q1, v, S0))) / (2 * h)

    def D1Ld(q0, q1, S0):
        return 0.5 * np.asarray(sys.dLdq(q0, w(q0, q1), S0)) - dLdv(q0, q1, S0)

    def D2Ld(q0, q1, S0):
        return 0.5 * np.asarray(sys.dLdq(q1, w(q0, q1), S0)) + dLdv(q0, q1, S0)

    def DSLd(q0, q1, S0):
        v = w(q0, q1)
        return 0.5 * (sys.dLdS(q0, v, S0) + sys.dLdS(q1, v, S0))

    def ffr(q0, q1, S0):
        v = w(q0, q1)
        return 0.5 * (np.asarray(sys.Ffr(q0, v, S0)) + np.asarray(sys.Ffr(q1, v, S0)))

    return DiscreteThermoSystem(n=sys.n, h=h, Ld=Ld, D1Ld=D1Ld, D2Ld=D2Ld, DSLd=DSLd,
                                ffr_minus=ffr, ffr_plus=ffr)


class TestTrapezoidalDiscretization:
    """A second discretization runs through the same kernel, with every
    Jacobian from central differences of its covectors."""

    CFG = NewtonConfig(tol=1e-9)
    # (q0, v0, S0).  The ideal gas starts at S0 = 1: at S0 = 10 its e^10
    # pressure lifts the Newton residual floor to ~1e-10, where a 1e-10
    # tolerance stalls and, at 1e-9, the pullback defect reads 1.1e-5
    STARTS = {"oscillator": ([1.0], [0.2], 0.5), "ideal-gas": ([1.0], [0.2], 1.0),
              "two-pistons": ([1.0, 1.0], [0.2, -0.1], 0.5)}

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_path_guarantees(self, name):
        d = trapezoidal(get_system(name).lagrangian, H)
        q0, v0, S0 = (np.array(x) for x in self.STARTS[name])
        path = integrate(d, q0, q0 + H * v0, S0, 500, self.CFG)
        assert np.all(np.diff(path.Ss) >= 0.0)
        _, cov_p, S_p = legendre_plus(d, path.stack())
        _, cov_m, S_m = legendre_minus(d, path.stack())
        assert np.max(np.abs(cov_p[:-1] - cov_m[1:])) <= 1e-10
        assert np.max(np.abs(S_p[:-1] - S_m[1:])) <= 1e-10
        for k in range(1, 51, 7):
            assert pullback_check(d, path.triple(k), self.CFG) <= 1e-5

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_integrate_is_repeated_discrete_flow(self, name):
        # integrate carries the generic kernel's pass into the next
        # step; the cold steps of discrete_flow give the same bytes
        d = trapezoidal(get_system(name).lagrangian, H)
        q0, v0, S0 = (np.array(x) for x in self.STARTS[name])
        N = 100
        path = integrate(d, q0, q0 + H * v0, S0, N, self.CFG)
        t = DiscreteTriple(q0, q0 + H * v0, S0)
        qs, Ss = [t.q0, t.q1], [t.S0]
        for _ in range(1, N):
            t = discrete_flow(d, t, self.CFG)
            qs.append(t.q1)
            Ss.append(t.S0)
        Ss.append(entropy_update(d, t))
        assert path.qs.tobytes() == np.array(qs).tobytes()
        assert path.Ss.tobytes() == np.array(Ss).tobytes()

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_semiregularity_differences_q1_only(self, name):
        # one Newton iteration per step evaluates pi_minus once for the
        # residual, 2n times for d(pi_minus)/dq1 and once for the final
        # residual: D1Ld is not called for the q0 and S0 columns; the cold
        # pass of triple 1 evaluates it once more
        d = trapezoidal(get_system(name).lagrangian, H)
        calls = []
        counted = dataclasses.replace(d, D1Ld=lambda *a: calls.append(1) or d.D1Ld(*a))
        q0, v0, S0 = (np.array(x) for x in self.STARTS[name])
        N = 100
        integrate(counted, q0, q0 + H * v0, S0, N, self.CFG)
        assert len(calls) == (2 * d.n + 2) * (N - 1) + 1

    def test_frictionless_translation_momentum_conserved(self):
        d = trapezoidal(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        N = 2000
        path = integrate(d, [1.0, 1.0], [1.002, 0.997], 1.0, N, self.CFG)
        assert noether_condition(d, xi, path.stack())
        J = momentum_map(d, path.stack(), xi, "plus")
        assert np.max(np.abs(J - J[0])) <= 1e-10


# ---------------------------------------------------------------------------
# stacked cold steps against per-row loops


def _stacked_cases():
    """(system, q centre, S0 centre, Newton tolerance) of the stacked-step
    checks: two-pistons, the two float-point systems declared without float
    points (their kernels then take stacks of length-1 arrays), the
    trapezoidal two-pistons (generic kernel, differenced Newton matrix) and
    the gyroscopic system (derived, non-symmetric d2Ldqdv)."""
    def on_arrays(name):
        lag = dataclasses.replace(get_system(name).lagrangian, float_points=False)
        return midpoint_discretize(lag, H)

    return {"two-pistons": (D_TP, 1.0, 1.0, 1e-10),
            "oscillator-arrays": (on_arrays("oscillator"), 0.0, 0.5, 1e-10),
            "ideal-gas-arrays": (on_arrays("ideal-gas"), 1.0, 10.0, 1e-10),
            "trapezoidal-two-pistons": (trapezoidal(TP.lagrangian, H), 1.0, 1.0, 1e-9),
            "gyroscopic": (midpoint_discretize(gyroscopic(False), H), 0.0, 0.5, 1e-10)}


STACKED_CASES = _stacked_cases()


def _seeded_stack(n, qc, Sc, rows=60):
    """Seeded triples near (qc, Sc) whose velocities span three decades, so
    that their Newton solves stop after different numbers of updates.
    Around the rest point q = 0 of the linear systems the first row rests
    there: its start is its root, and it takes no update."""
    rng = np.random.default_rng(2302)
    q0 = qc + rng.uniform(-0.05, 0.05, (rows, n))
    scale = np.array([1e-4, 1e-2, 1e-1])[np.arange(rows) % 3, None]
    q1 = q0 + scale * rng.uniform(-1.0, 1.0, (rows, n))
    if qc == 0.0:
        q0[0] = q1[0] = 0.0
    return q0, q1, Sc + rng.uniform(-0.1, 0.1, rows)


def _flow_jacobian_loop(d, t, cfg):
    """The flow Jacobian as the per-triple loop forms it: the Richardson
    combination of two central differences, each flow one cold step on
    array points."""
    from thermint.solve import solve_step

    n, x0 = d.n, t.as_array()

    def flow(x):
        q2, S1 = solve_step(d, x[:n], x[n : 2 * n], float(x[2 * n]), cfg)
        return np.concatenate([x[n : 2 * n], q2, [S1]])

    def central(step):
        cols = []
        for j in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += step
            xm[j] -= step
            cols.append((flow(xp) - flow(xm)) / (2 * step))
        return np.stack(cols, axis=-1)

    return (4.0 * central(5e-5) - central(1e-4)) / 3.0


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_stacked_step_rows_are_single_steps(name):
    from thermint.solve import solve_step

    d, qc, Sc, tol = STACKED_CASES[name]
    cfg = NewtonConfig(tol=tol)
    q0, q1, S0 = _seeded_stack(d.n, qc, Sc)
    rows_per_pass = []

    def counted(a, b, S):
        rows_per_pass.append(len(b))
        return d.triple_pass(a, b, S)

    q2, S1 = solve_step(dataclasses.replace(d, triple_pass=counted), q0, q1, S0, cfg)
    assert q2.shape == q0.shape and S1.shape == S0.shape
    if name != "trapezoidal-two-pistons":
        # rows that met tol were frozen while others went on; every row of
        # the trapezoidal stack meets tol after one update
        assert min(rows_per_pass) < len(S0)
    for k in range(len(S0)):
        q, S = solve_step(d, q0[k], q1[k], float(S0[k]), cfg)
        assert q2[k].tobytes() == q.tobytes()
        assert S1[k].tobytes() == np.float64(S).tobytes()


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_flow_jacobian_columns_are_single_steps(name):
    from thermint.discrete import _flow_jacobian

    d, qc, Sc, tol = STACKED_CASES[name]
    cfg = NewtonConfig(tol=tol)
    q0, q1, S0 = _seeded_stack(d.n, qc, Sc, rows=50)
    for k in range(len(S0)):
        t = DiscreteTriple(q0[k], q1[k], S0[k])
        image, J = _flow_jacobian(d, t, cfg)
        assert J.tobytes() == _flow_jacobian_loop(d, t, cfg).tobytes()
        assert image.as_array().tobytes() == discrete_flow(d, t, cfg).as_array().tobytes()
