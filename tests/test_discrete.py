import dataclasses

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
    del_residual,
    discrete_action,
    discrete_flow,
    discrete_momenta,
    entropy_update,
    get_system,
    integrate,
    legendre_minus,
    legendre_plus,
    midpoint_discretize,
    momentum_map,
    noether_condition,
    omega_embedded,
    omega_matrices,
    pullback_check,
    semiregularity_matrix,
)
from thermint.continuous import fd_gradient

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
    asked for, the nonzero d2Ldqdv."""
    zero = lambda q, v, S: np.zeros(2)
    mixed = {"d2Ldqdv": lambda q, v, S: GYRO_QV} if with_mixed_partial else {}
    return LagrangianThermoSystem(
        n=2,
        L=lambda q, v, S: (0.5 * float(v @ v) + 0.5 * B * (q[0] * v[1] - q[1] * v[0])
                           - 0.5 * float(q @ q) - S),
        dLdq=lambda q, v, S: 0.5 * B * np.array([v[1], -v[0]]) - q,
        dLdv=lambda q, v, S: v + 0.5 * B * np.array([-q[1], q[0]]),
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
        with pytest.raises(ValueError):
            midpoint_discretize(OSC.lagrangian, 0.0)

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


@settings(max_examples=80, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1))
def test_entropy_dissipativity_oscillator(q0, q1, S0):
    """Rayleigh friction at positive temperature never destroys entropy."""
    assert entropy_update(D_OSC, DiscreteTriple([q0], [q1], S0)) >= S0


@settings(max_examples=80, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0, 4))
def test_entropy_dissipativity_gases(q0, q1, S0):
    for d in (D_GAS, D_VDW):
        assert entropy_update(d, DiscreteTriple([q0], [q1], S0)) >= S0


class TestDelResidual:
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
        r = del_residual(d, [q0], [q1], 0.0, [q2], 0.0)
        assert np.max(np.abs(r)) * H * H <= 5e-15

    def test_damped_closed_form_is_root(self):
        a, b = OSC.update_coefficients(H)
        q0, q1 = 0.4, 0.42
        S0 = 0.1
        S1 = entropy_update(D_OSC, DiscreteTriple([q0], [q1], S0))
        q2 = a * q1 - b * q0
        r = del_residual(D_OSC, [q0], [q1], S0, [q2], S1)
        assert np.max(np.abs(r)) * H * H <= 5e-15

    def test_closed_form_residual_at_path_scale(self):
        # at trajectory amplitudes the raw residual itself is tiny
        a, b = OSC.update_coefficients(H)
        q0, q1 = 0.0, 0.0099
        S1 = entropy_update(D_OSC, DiscreteTriple([q0], [q1], 0.0))
        r = del_residual(D_OSC, [q0], [q1], 0.0, [a * q1 - b * q0], S1)
        assert np.max(np.abs(r)) <= 1e-13

    def test_newton_root_has_small_residual(self):
        t = DiscreteTriple([1.0], [1.001], 10.0)
        out = discrete_flow(D_GAS, t, NewtonConfig(tol=1e-10))
        r = del_residual(D_GAS, t.q0, t.q1, t.S0, out.q1, out.S0)
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
            return del_residual(D_GAS, t.q0, t.q1, t.S0, [x], S1)[0]

        # the e^10 pressure pushes the first step over a unit of travel
        root = bisect(resid, 1.0, 5.0, xtol=1e-13)
        out = discrete_flow(D_GAS, t, NewtonConfig(tol=1e-10))
        assert out.q1[0] == pytest.approx(root, abs=1e-10)
        assert out.S0 == S1


class TestOmegaMatrices:
    def test_free_particle(self):
        Wp, Wm = omega_matrices(D_FREE, DiscreteTriple([0.1], [0.2], 0.0))
        np.testing.assert_allclose(Wp, [[-1.0 / H ** 2]], rtol=1e-12)
        np.testing.assert_allclose(Wm, [[-1.0 / H ** 2]], rtol=1e-12)

    def test_zero_friction_plus_equals_minus(self):
        # analytic second partials: the two blocks come from different
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
        Wp, Wm = omega_matrices(d, DiscreteTriple([0.3], [0.5], 0.0))
        np.testing.assert_allclose(Wp, Wm, rtol=1e-14)

    @pytest.mark.parametrize("d,triple", [
        (D_OSC, DiscreteTriple([0.4], [0.42], 0.3)),
        (D_GAS, DiscreteTriple([1.0], [1.01], 10.0)),
        (D_TP, DiscreteTriple([1.0, 1.1], [1.01, 1.09], 1.0)),
    ])
    def test_analytic_matches_finite_differences(self, d, triple):
        # strip the analytic covector Jacobians to force the FD fallback
        fd = dataclasses.replace(d, dpi_minus=None, dpi_plus=None)
        Wp, Wm = omega_matrices(d, triple)
        Wp_fd, Wm_fd = omega_matrices(fd, triple)
        np.testing.assert_allclose(Wp, Wp_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(Wp)))
        np.testing.assert_allclose(Wm, Wm_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(Wm)))

    def test_blocks_match_embedded_two_forms(self):
        # n = 2 with a non-symmetric friction Jacobian -A: each block is the
        # q0 x q1 block of the embedded form, negated and transposed
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
        t = DiscreteTriple([0.3, -0.2], [0.35, -0.1], 0.5)
        for W, side in zip(omega_matrices(d, t), ("plus", "minus")):
            np.testing.assert_array_equal(W, -omega_embedded(d, t, side)[:2, 2:4].T)


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
            float(del_residual(d, qs[k - 1], qs[k], Ss[k - 1], qs[k + 1], Ss[k]) @ dq[k])
            for k in range(1, N))
        assert fd == pytest.approx(inner, abs=1e-6)


class TestSemiregularity:
    def test_oscillator_invertible_for_small_steps(self):
        for h in (0.001, 0.01, 0.1):
            d = midpoint_discretize(OSC.lagrangian, h)
            M = semiregularity_matrix(d, DiscreteTriple([0.5], [0.52], 0.0))
            expected = 1.0 / h ** 2 + 0.25 + GAMMA / (2 * h)
            np.testing.assert_allclose(M, [[expected]], rtol=1e-12)
            assert abs(np.linalg.det(M)) > 1e-12

    def test_free_particle(self):
        M = semiregularity_matrix(D_FREE, DiscreteTriple([0.0], [0.1], 0.0))
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
        M = semiregularity_matrix(d, DiscreteTriple([0.3], [0.4], 0.0))
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
    def test_semiregularity_differences_q1_only(self, name):
        # one Newton iteration per step evaluates pi_minus once for the
        # residual, 2n times for d(pi_minus)/dq1 and once for the final
        # residual: D1Ld is not called for the q0 and S0 columns
        d = trapezoidal(get_system(name).lagrangian, H)
        calls = []
        counted = dataclasses.replace(d, D1Ld=lambda *a: calls.append(1) or d.D1Ld(*a))
        q0, v0, S0 = (np.array(x) for x in self.STARTS[name])
        N = 100
        integrate(counted, q0, q0 + H * v0, S0, N, self.CFG)
        assert len(calls) == (2 * d.n + 2) * (N - 1)

    def test_frictionless_translation_momentum_conserved(self):
        d = trapezoidal(get_system("two-pistons", gamma=0.0).lagrangian, H)
        xi = lambda q: np.array([-1.0, 1.0])
        N = 2000
        path = integrate(d, [1.0, 1.0], [1.002, 0.997], 1.0, N, self.CFG)
        assert noether_condition(d, xi, path.stack())
        J = momentum_map(d, path.stack(), xi, "plus")
        assert np.max(np.abs(J - J[0])) <= 1e-10
