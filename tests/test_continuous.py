import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermint import (
    TemperatureDegenerateError,
    ThermoState,
    Trajectory,
    conserved_along,
    continuous_rhs,
    energy,
    evolution_field_coordinates,
    get_system,
    hamiltonian_point,
    noether_lift_check,
    reference_integrate,
    temperature,
)
from thermint.continuous import _fsum_fma, fd_gradient, pair

OSC = get_system("oscillator")
GAS = get_system("ideal-gas")
TP = get_system("two-pistons")


class TestEnergy:
    def test_oscillator_half(self):
        assert energy(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0)) == pytest.approx(0.5)

    def test_pure_potential(self):
        # with v = 0 the energy is the internal energy itself
        st7 = ThermoState([2.0], [0.0], 0.3)
        sys = OSC.lagrangian
        assert energy(sys, st7) == pytest.approx(-sys.L(st7.q, st7.v, st7.S))

    def test_ideal_gas_e10(self):
        assert energy(GAS.lagrangian, ThermoState([1.0], [0.0], 10.0)) == pytest.approx(
            np.exp(10.0))


class TestTemperature:
    def test_oscillator_constant(self):
        assert temperature(OSC.lagrangian, ThermoState([0.3], [0.7], 5.0)) == pytest.approx(0.1)

    def test_ideal_gas(self):
        assert temperature(GAS.lagrangian, ThermoState([1.0], [0.0], 10.0)) == pytest.approx(
            np.exp(10.0))

    def test_standard_form_dUdS(self):
        # T = dU/dS for L = K(q, v) - U(q, S)
        st8 = ThermoState([1.3], [0.2], 0.7)
        sys = GAS.lagrangian
        d = 1e-6
        dUdS = (-(sys.L(st8.q, st8.v, st8.S + d)) + sys.L(st8.q, st8.v, st8.S - d)) / (2 * d)
        assert temperature(sys, st8) == pytest.approx(dUdS, rel=1e-9)


class TestLegendre:
    # the Legendre transform (q, v, S) -> (q, dL/dv, S)
    def test_quadratic_kinetic(self):
        state = ThermoState([0.0], [1.0], 0.0)
        q, p, S = state.q, OSC.lagrangian.dLdv(state.q, state.v, state.S), state.S
        np.testing.assert_allclose(q, [0.0])
        np.testing.assert_allclose(p, [1.0])
        assert S == 0.0

    def test_two_pistons(self):
        state = ThermoState([1.0, 1.0], [1.0, 2.0], 0.0)
        p = TP.lagrangian.dLdv(state.q, state.v, state.S)
        np.testing.assert_allclose(p, [1.0, 2.0])


class TestRhs:
    def test_oscillator_point(self):
        qd, vd, Sd = continuous_rhs(OSC.lagrangian, ThermoState([1.0], [0.0], 0.0))
        np.testing.assert_allclose(qd, [0.0])
        np.testing.assert_allclose(vd, [-1.0])
        assert Sd == 0.0

    def test_rest_state_produces_no_entropy(self):
        for entry in (OSC, GAS, TP):
            state = ThermoState(np.full(entry.n, 1.0), np.zeros(entry.n), 0.5)
            _, _, Sd = continuous_rhs(entry.lagrangian, state)
            assert Sd == 0.0

    def test_ideal_gas_acceleration(self):
        _, vd, _ = continuous_rhs(GAS.lagrangian, ThermoState([1.0], [0.0], 10.0))
        np.testing.assert_allclose(vd, [(2.0 / 3.0) * np.exp(10.0)], rtol=1e-14)

    def test_generic_hessian_path_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for entry in (OSC, GAS, TP):
            sys = entry.lagrangian
            generic = type(sys)(**{**sys.__dict__, "accel": None})
            for _ in range(25):
                state = ThermoState(rng.uniform(0.8, 1.4, entry.n),
                                    rng.uniform(-1, 1, entry.n), rng.uniform(0, 2))
                _, vd_closed, Sd1 = continuous_rhs(sys, state)
                _, vd_generic, Sd2 = continuous_rhs(generic, state)
                np.testing.assert_allclose(vd_generic, vd_closed, rtol=1e-12, atol=1e-12)
                assert Sd1 == Sd2

    def test_derived_second_partials_match_analytic(self):
        # every second-order field left out is derived from the first partials
        second = ("d2Ldq2", "d2Ldqdv", "d2Ldv2", "d2LdqdS", "d2LdvdS",
                  "dFfrdq", "dFfrdv", "dFfrdS")
        rng = np.random.default_rng(1)
        for entry in (OSC, GAS, TP):
            sys = entry.lagrangian
            derived = dataclasses.replace(sys, **dict.fromkeys(second))
            for _ in range(10):
                q, v = rng.uniform(0.8, 1.4, entry.n), rng.uniform(-1, 1, entry.n)
                S = rng.uniform(0, 2)
                for f in second:
                    exact = np.asarray(getattr(sys, f)(q, v, S), dtype=float)
                    np.testing.assert_allclose(getattr(derived, f)(q, v, S), exact, rtol=1e-6,
                                               atol=1e-6 * max(1.0, np.max(np.abs(exact))))

    def test_derived_second_partials_follow_replaced_fields(self):
        sys = dataclasses.replace(OSC.lagrangian, d2Ldv2=None)
        heavy = dataclasses.replace(sys, dLdv=lambda q, v, S: 2.0 * v)
        assert heavy.d2Ldv2 is not sys.d2Ldv2 and heavy.d2Ldq2 is sys.d2Ldq2
        q, v = np.array([0.3]), np.array([0.7])
        np.testing.assert_allclose(heavy.d2Ldv2(q, v, 0.0), 2.0 * sys.d2Ldv2(q, v, 0.0),
                                   rtol=1e-12)

    def test_zero_dLdS_rejected(self):
        import thermint

        bad = thermint.LagrangianThermoSystem(
            n=1, L=lambda q, v, S: 0.5 * float(v @ v),
            dLdq=lambda q, v, S: np.zeros(1), dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: 0.0)
        with pytest.raises(TemperatureDegenerateError):
            continuous_rhs(bad, ThermoState([0.0], [1.0], 0.0))

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals",
                                      "two-pistons"])
    def test_hamiltonian_side_agrees(self, name):
        # the (q, p, S) equations reproduce the Lagrangian right-hand side
        # under the p = v identification of these systems
        entry = get_system(name)
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.uniform(0.6, 1.4, entry.n)
            v = rng.uniform(-1, 1, entry.n)
            S = rng.uniform(0, 2)
            qd, vd, Sd = continuous_rhs(entry.lagrangian, ThermoState(q, v, S))
            E = evolution_field_coordinates(hamiltonian_point(entry, q, v, S))
            qd2, pd2, Sd2 = E[: entry.n], E[entry.n : 2 * entry.n], E[-1]
            np.testing.assert_allclose(qd, qd2, atol=1e-12)
            np.testing.assert_allclose(vd, pd2, atol=1e-12)
            assert Sd == pytest.approx(Sd2, abs=1e-12)

    def test_hamiltonian_zero_dHdS_rejected(self):
        # the entropy equation divides by dH/dS = -dL/dS, the temperature
        lag = dataclasses.replace(OSC.lagrangian, dLdS=lambda q, v, S: 0.0)
        bad = dataclasses.replace(OSC, lagrangian=lag)
        with pytest.raises(TemperatureDegenerateError):
            evolution_field_coordinates(hamiltonian_point(bad, [0.5], [1.0], 0.0))


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2))
def test_entropy_production_nonnegative(q, v, S):
    """Rayleigh friction with positive temperature produces entropy."""
    _, _, Sd = continuous_rhs(OSC.lagrangian, ThermoState([q], [v], S))
    assert Sd >= 0.0


class TestNoetherLift:
    def test_frictionless_two_pistons(self):
        entry = get_system("two-pistons", gamma=0.0)
        X = lambda q: np.array([1.0, -1.0])
        Xjac = lambda q: np.zeros((2, 2))
        rng = np.random.default_rng(2)
        states = [ThermoState(rng.uniform(0.5, 2, 2), rng.normal(size=2), rng.normal())
                  for _ in range(30)]
        assert noether_lift_check(entry.lagrangian, X, Xjac, states)

    def test_nan_residual_fails(self):
        entry = get_system("two-pistons", gamma=0.0)
        X = lambda q: np.array([1.0, -1.0])
        Xjac = lambda q: np.zeros((2, 2))
        states = [ThermoState([1.0, 1.0], [0.2, -0.3], np.nan)]
        assert not noether_lift_check(entry.lagrangian, X, Xjac, states)

    def test_oscillator_translation_broken(self):
        X = lambda q: np.array([1.0])
        Xjac = lambda q: np.zeros((1, 1))
        states = [ThermoState([0.7], [0.4], 0.0)]
        assert not noether_lift_check(OSC.lagrangian, X, Xjac, states)

    def test_cyclic_coordinate(self):
        import thermint

        free = thermint.LagrangianThermoSystem(
            n=1, L=lambda q, v, S: 0.5 * float(v @ v) - S,
            dLdq=lambda q, v, S: np.zeros(1), dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -1.0)
        X = lambda q: np.array([2.0])
        Xjac = lambda q: np.zeros((1, 1))
        states = [ThermoState([x], [x + 1], 0.0) for x in np.linspace(-2, 2, 9)]
        assert noether_lift_check(free, X, Xjac, states)


class TestTrajectory:
    def test_non_uniform_times_rejected(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            Trajectory(h=0.1, times=[0.0, 0.1, 0.3], qs=np.zeros((3, 1)),
                       vs=np.zeros((3, 1)), Ss=np.zeros(3))

    def test_nan_time_rejected(self):
        # a NaN spacing is not within the tolerance of h
        with pytest.raises(ValueError, match="uniformly spaced"):
            Trajectory(h=0.1, times=[0.0, np.nan, 0.2], qs=np.zeros((3, 1)),
                       vs=np.zeros((3, 1)), Ss=np.zeros(3))


class TestConservedAlong:
    def test_constant_function(self):
        traj = reference_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0),
                                   5.0, h=0.05)
        assert conserved_along(traj, lambda st: 42.0) == 0.0

    def test_nan_state_is_a_nan_drift(self):
        # a NaN after a finite drift must not be skipped, so drift <= tol fails
        traj = Trajectory(h=1.0, times=[0.0, 1.0, 2.0], qs=[[1.0], [np.nan], [1.0]],
                          vs=np.zeros((3, 1)), Ss=np.zeros(3))
        assert np.isnan(conserved_along(traj, lambda st: st.q[0]))

    def test_oscillator_energy(self):
        traj = reference_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0),
                                   50.0, h=0.05)
        drift = conserved_along(traj, lambda st: energy(OSC.lagrangian, st))
        assert drift <= 1e-7

    def test_two_piston_cartan_invariant(self):
        entry = get_system("two-pistons", gamma=0.1)
        traj = reference_integrate(entry.lagrangian,
                                   ThermoState([1.0, 1.0], [0.2, -0.3], 1.0),
                                   20.0, h=0.02)
        drift = conserved_along(traj, entry.invariants["cartan"])
        assert drift <= 1e-7


def test_fd_gradient_matches_analytic():
    f = lambda x: np.array([x[0] ** 2 * x[1], np.sin(x[1])])
    x = np.array([1.2, 0.7])
    J = fd_gradient(f, x)
    expected = np.array([[2 * 1.2 * 0.7, 1.2 ** 2], [0.0, np.cos(0.7)]])
    np.testing.assert_allclose(J, expected, atol=1e-8)


def test_energy_rate_equals_external_power():
    # the closed system conserves its energy along the continuous flow
    traj = reference_integrate(GAS.lagrangian, ThermoState([1.0], [0.0], 1.0),
                               10.0, h=0.01)
    drift = conserved_along(traj, lambda st: energy(GAS.lagrangian, st))
    assert drift <= 1e-7


def _exact_fma(a, b, c):
    """a * b + c of finite floats rounded once, by `Fraction` arithmetic: an
    exact zero is -0.0 when a * b is a negative zero and c is -0.0, else
    +0.0; a result past the float range is an infinity of its sign."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if not exact:
        product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        negative = not (a and b) and product_sign < 0 and math.copysign(1.0, c) < 0
        return -0.0 if negative else 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _fma_arguments(rng, size):
    """Triples spanning the fast range of `_fsum_fma` and its fallbacks:
    products that underflow or overflow, splits that overflow, subnormals,
    sums that overflow ``fsum``, exact cancellations and signed zeros."""
    def floats(lo, hi):
        return rng.choice([-1.0, 1.0], size) * 2.0 ** rng.uniform(lo, hi, size)
    cases = []
    for lo, hi in ((-20, 20), (-1074, -900), (-600, -450), (900, 1023), (280, 520)):
        a, b, c = floats(lo, hi), floats(lo, hi), floats(lo, hi)
        cases += zip(a.tolist(), b.tolist(), c.tolist())
    a, b = floats(-30, 30), floats(-30, 30)
    cases += zip(a.tolist(), b.tolist(), (-a * b).tolist())    # c = -(a * b rounded)
    a, b = floats(990, 1023), floats(-1074, -1000)             # a split that overflows
    cases += zip(a.tolist(), b.tolist(), floats(-60, 60).tolist())
    c = floats(1020, 1023.99)                                  # an fsum that overflows
    cases += zip(floats(490, 497).tolist(), floats(490, 497).tolist(), c.tolist())
    # either side of the split's overflow at |a| ~ 1.3e300 and of |a * b| = 2^996, 2^-960
    edges = [1.3e300, 1.35e300, 2.0 ** 996, 2.0 ** -960, 2.0 ** -959]
    b = 1.0 + 2.0 ** -30
    cases += [(s * x * f, b, c) for x in edges for f in (1 - 2.0 ** -52, 1.0, 1 + 2.0 ** -52)
              for s in (1.0, -1.0) for c in (x / 3, -x * b, 1.0)]
    return cases


#: (a, b, c, fma(a, b, c)) where the sign of a zero decides
SIGNED_ZEROS = [
    (-0.0, 1.0, -0.0, -0.0), (0.0, -1.0, -0.0, -0.0), (-0.0, -1.0, -0.0, 0.0),
    (-0.0, 1.0, 0.0, 0.0), (0.0, 1.0, -0.0, 0.0), (-0.0, 0.0, -0.0, -0.0),
    (1.0, 1.0, -1.0, 0.0), (-1.0, 1.0, 1.0, 0.0), (3.0, 1 / 3, -1.0, -(2.0 ** -54)),
    (1e-200, -1e-200, 0.0, -0.0), (1e-200, -1e-200, -0.0, -0.0),
    (-1e-200, -1e-200, -0.0, 0.0), (5e-324, 0.5, 0.0, 0.0), (5e-324, -0.5, 0.0, -0.0),
    (5e-324, -0.5, -0.0, -0.0), (-0.0, 5.0, 1e-300, 1e-300),
]


#: the fsum fma, and math.fma where Python has it (3.13 on)
FMAS = [_fsum_fma] + ([math.fma] if hasattr(math, "fma") else [])


class TestFma:
    def test_fsum_fma_is_exact_arithmetic_rounded_once(self):
        rng = np.random.default_rng(17)
        for a, b, c in _fma_arguments(rng, 2000):
            assert _fsum_fma(a, b, c).hex() == _exact_fma(a, b, c).hex(), (a, b, c)

    # math.fma, where Python has it (3.13 on), keeps the same table
    @pytest.mark.parametrize("fma", FMAS)
    @pytest.mark.parametrize("a,b,c,expected", SIGNED_ZEROS)
    def test_signed_zeros(self, fma, a, b, c, expected):
        assert fma(a, b, c).hex() == expected.hex()

    def test_non_finite_arguments(self):
        inf, nan = math.inf, math.nan
        for a, b, c, expected in [(inf, 2.0, 1.0, inf), (inf, 0.0, 1.0, nan),
                                  (inf, -1.0, inf, nan), (1e300, 1e300, -inf, -inf),
                                  (1e300, 1e300, 1.0, inf), (-1e300, 1e300, 1.0, -inf),
                                  (2.0, 3.0, nan, nan), (nan, 0.0, 1.0, nan)]:
            got = _fsum_fma(a, b, c)
            assert got == expected or got != got and expected != expected, (a, b, c)

    def test_pair_of_two_floats(self):
        # ``0.0 + a0 * b0``: the sum of ``@`` starts at +0.0
        assert pair((-0.0, -0.0), (1.0, 1.0)).hex() == (0.0).hex()
        assert pair((-0.0, 2.0), (1.0, -0.0)).hex() == (0.0).hex()
        assert pair((0.1, 3.0), (0.7, 1 / 3)) == _exact_fma(3.0, 1 / 3, 0.1 * 0.7)
