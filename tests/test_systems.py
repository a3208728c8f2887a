import dataclasses
import sys
import threading

import numpy as np
import pytest

from thermint import (
    ConvergenceError,
    DiscreteTriple,
    DomainError,
    LagrangianThermoSystem,
    SystemCatalogEntry,
    ThermoState,
    continuous_rhs,
    energy,
    entropy_update,
    evolution_field_coordinates,
    get_system,
    midpoint_discretize,
    reference_integrate,
)
from thermint.continuous import fd_gradient
from thermint.systems import CATALOG, _exp, hamiltonian_point

ALL = ["oscillator", "ideal-gas", "van-der-waals", "two-pistons"]


def random_states(entry, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng.uniform(0.6, 1.6, entry.n), rng.uniform(-1.0, 1.0, entry.n),
               rng.uniform(0.0, 2.0))


@pytest.mark.parametrize("name", ALL)
def test_hamiltonian_composes_with_legendre(name):
    entry = get_system(name)
    for q, v, S in random_states(entry, 100, 10):
        state = ThermoState(q, v, S)
        p = entry.lagrangian.dLdv(state.q, state.v, state.S)
        assert entry.H(state.q, p, state.S) == pytest.approx(energy(entry.lagrangian, state),
                                                   rel=1e-12)


@pytest.mark.parametrize("name", ALL)
def test_catalog_derives_no_callable(name):
    # every catalog callable, and every midpoint one, is analytic: the
    # step does no finite differencing; the midpoint rule's covectors and
    # entropy increment are derived, read off its analytic triple pass
    sys = get_system(name).lagrangian
    d = midpoint_discretize(sys, 0.01)
    from_pass = {"pi_minus", "pi_plus", "entropy_increment"}
    for obj in (sys, d):
        for f in dataclasses.fields(obj):
            derived = getattr(getattr(obj, f.name), "generic", False)
            assert derived == (obj is d and f.name in from_pass), f.name


@pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals"])
def test_float_point_values_are_python_floats(name):
    # the return contract taken literally: at a float point every callable of
    # a one-dimensional entry, H included, and every callable of its midpoint
    # rule returns a Python float, not a numpy scalar, so that an iterate
    # never turns into one; a triple pass returns floats and its rest too
    entry = get_system(name)
    sys = entry.lagrangian
    q, v, S = 1.25, 0.5, 10.0
    for f in dataclasses.fields(sys):
        fn = getattr(sys, f.name)
        if callable(fn):
            assert type(fn(q, v, S)) is float, f.name
    assert type(entry.H(q, v, S)) is float
    d = midpoint_discretize(sys, 0.01)
    triple = (1.25, 1.26, 10.0)
    for attr in ("Ld", "D1Ld", "D2Ld", "DSLd", "ffr_minus", "ffr_plus", "pi_minus",
                 "pi_plus", "pi_minus_dq1", "entropy_increment"):
        assert type(getattr(d, attr)(*triple)) is float, attr
    pi, rest, args = d.triple_pass(*triple)
    assert [type(x) for x in (pi, *rest(*args))] == [float] * 3


@pytest.mark.parametrize("name", ALL)
def test_analytic_partials_match_finite_differences(name):
    entry = get_system(name)
    sys = entry.lagrangian
    for q, v, S in random_states(entry, 100, 11):
        scale = max(1.0, abs(sys.L(q, v, S)))
        dq = fd_gradient(lambda x: sys.L(x, v, S), q)
        dv = fd_gradient(lambda x: sys.L(q, x, S), v)
        np.testing.assert_allclose(sys.dLdq(q, v, S), dq, rtol=1e-6, atol=1e-6 * scale)
        np.testing.assert_allclose(sys.dLdv(q, v, S), dv, rtol=1e-6, atol=1e-6 * scale)
        d = 1e-6 * (1 + abs(S))
        dS = (sys.L(q, v, S + d) - sys.L(q, v, S - d)) / (2 * d)
        assert sys.dLdS(q, v, S) == pytest.approx(dS, rel=1e-6, abs=1e-6 * scale)
        # Hamiltonian-side partials, through the Legendre transform
        p = np.asarray(sys.dLdv(q, v, S))
        dH = hamiltonian_point(entry, q, p, S).dH
        dHq = fd_gradient(lambda x: entry.H(x, p, S), q)
        dHp = fd_gradient(lambda x: entry.H(q, x, S), p)
        np.testing.assert_allclose(dH[: sys.n], dHq, rtol=1e-6, atol=1e-6 * scale)
        np.testing.assert_allclose(dH[sys.n : 2 * sys.n], dHp, rtol=1e-6, atol=1e-6 * scale)
        dHS = (entry.H(q, p, S + d) - entry.H(q, p, S - d)) / (2 * d)
        assert dH[-1] == pytest.approx(dHS, rel=1e-6, abs=1e-6 * scale)


def variable_mass():
    """L = m v^2/2 - q^2/2 - S with mass m = 1 + q^2 + S/10, so p = m v is not
    v; H = p^2/2m + q^2/2 + S is its Legendre transform."""
    def mass(q, S):
        return 1.0 + q[0] ** 2 + 0.1 * S

    lag = LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * mass(q, S) * v[0] ** 2 - 0.5 * q[0] ** 2 - S,
        dLdq=lambda q, v, S: q * v[0] ** 2 - q,
        dLdv=lambda q, v, S: mass(q, S) * v,
        dLdS=lambda q, v, S: 0.05 * v[0] ** 2 - 1.0,
        Ffr=lambda q, v, S: -0.1 * v,
        name="variable-mass",
    )
    return SystemCatalogEntry(
        lagrangian=lag, H=lambda q, p, S: 0.5 * p[0] ** 2 / mass(q, S) + 0.5 * q[0] ** 2 + S)


def test_hamiltonian_point_inverts_the_legendre_transform():
    entry = variable_mass()
    sys = entry.lagrangian
    q, v, S = np.array([0.5]), np.array([0.4]), 0.3
    p = sys.dLdv(q, v, S)
    pt = hamiltonian_point(entry, q, p, S)
    # dH/dp is the velocity with dL/dv(q, v, S) = p, not p itself
    assert pt.dH[1] != p[0]
    assert pt.dH[1] == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(sys.dLdv(q, pt.dH[1:2], S), p, rtol=0, atol=1e-12)
    # the partials are those of H at (q, p, S)
    np.testing.assert_allclose(pt.dH[:1], fd_gradient(lambda x: entry.H(x, p, S), q), rtol=1e-7)
    np.testing.assert_allclose(pt.dH[1:2], fd_gradient(lambda x: entry.H(q, x, S), p), rtol=1e-7)
    assert pt.dH[2] == pytest.approx(fd_gradient(lambda s: entry.H(q, p, s), S), rel=1e-7)
    # the (q, p, S) equations are the Lagrangian ones: pdot = dL/dq + Ffr
    E = evolution_field_coordinates(pt)
    qdot, pdot, Sdot = E[:1], E[1:2], E[-1]
    assert qdot[0] == pytest.approx(0.4, abs=1e-12)
    assert pdot[0] == pytest.approx(-0.46, abs=1e-12)
    _, _, Sd = continuous_rhs(sys, ThermoState(q, v, S))
    assert Sdot == pytest.approx(Sd, rel=1e-12)


@pytest.mark.parametrize("d2Ldv2,message", [
    # v^2 + 1 = 0.5 has no real root, and from v = p = 0.5 no update stalls
    (lambda q, v, S: np.diag(2.0 * v), "Newton residual .* above tol 1.0e-12 after 50 iterations"),
    (lambda q, v, S: np.zeros((1, 1)), "singular Newton Jacobian: Singular matrix"),
], ids=["no-root", "singular"])
def test_hamiltonian_point_fails_as_the_newton_loop(d2Ldv2, message):
    # the velocity of a momentum is the root of the step's Newton loop, which
    # stops and fails by the step's rules
    lag = LagrangianThermoSystem(
        n=1, L=lambda q, v, S: v[0] ** 3 / 3.0 + v[0] - 0.5 * q[0] ** 2 - S,
        dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v * v + 1.0, dLdS=lambda q, v, S: -1.0,
        d2Ldv2=d2Ldv2, name="no-legendre-root")
    entry = SystemCatalogEntry(lagrangian=lag, H=lambda q, p, S: 0.0)
    with pytest.raises(ConvergenceError, match=message):
        hamiltonian_point(entry, [0.5], [0.5], 0.0)


class TestOscillator:
    def test_frictionless_coefficients(self):
        entry = get_system("oscillator", gamma=1e-300)  # gamma -> 0 limit
        h = 0.05
        a, b = entry.update_coefficients(h)
        assert a == pytest.approx(2 * (4 - h * h) / (4 + h * h))
        assert b == pytest.approx(1.0)

    def test_exact_solution_solves_the_ode(self):
        entry = get_system("oscillator")
        sol = entry.exact_solution([0.3], [0.7], 0.0)
        d = 1e-5
        for t in np.linspace(0.1, 30, 17):
            # second-difference roundoff floor is ~4 eps / d^2 ~ 1e-5
            qdd = (sol.q(t + d) - 2 * sol.q(t) + sol.q(t - d)) / d ** 2
            assert qdd + 0.1 * sol.v(t) + sol.q(t) == pytest.approx(0.0, abs=1e-4)
            # velocity handle consistent with the position handle
            vfd = (sol.q(t + d) - sol.q(t - d)) / (2 * d)
            assert sol.v(t) == pytest.approx(vfd, abs=1e-9)

    def test_exact_solution_initial_conditions(self):
        entry = get_system("oscillator")
        sol = entry.exact_solution([0.0], [1.0], 2.0)
        assert sol.q(0.0) == pytest.approx(0.0, abs=1e-15)
        assert sol.v(0.0) == pytest.approx(1.0, rel=1e-14)
        assert sol.entropy(np.array([0.0]))[0] == 2.0

    def test_exact_solution_only_when_underdamped(self):
        assert get_system("oscillator", gamma=1.9).exact_solution is not None
        assert get_system("oscillator", gamma=2.0).exact_solution is None
        assert get_system("oscillator", gamma=3.0).exact_solution is None

    def test_entropy_reference_is_monotone(self):
        entry = get_system("oscillator")
        sol = entry.exact_solution([0.0], [1.0], 0.0)
        ts = np.linspace(0.0, 5.0, 21)
        S = sol.entropy(ts)
        assert np.all(np.diff(S) > 0)
        # total production converges to 1/(2 gamma) = mechanical energy / T
        grid = np.arange(0.0, 301.0, 5.0)
        assert sol.entropy(grid)[-1] == pytest.approx(5.0, rel=1e-6)

    def test_printed_scheme_agreement(self):
        """The midpoint discretization reproduces the explicit recurrence."""
        entry = get_system("oscillator")
        h = 0.01
        d = midpoint_discretize(entry.lagrangian, h)
        rng = np.random.default_rng(12)
        a, b = entry.update_coefficients(h)
        for _ in range(50):
            q0, q1 = rng.uniform(-1, 1, 2)
            S0 = rng.uniform(0, 1)
            S1 = entropy_update(d, DiscreteTriple([q0], [q1], S0))
            assert S1 == pytest.approx(S0 + (q1 - q0) ** 2 / h, rel=1e-12)
            # the discrete Euler-Lagrange residual pi_plus - pi_minus
            qa, qb, qc = np.array([q0]), np.array([q1]), np.array([a * q1 - b * q0])
            r = d.pi_plus(qa, qb, S0) - d.pi_minus(qb, qc, S1)
            # defect measured in q units (the residual scale is h^-2)
            assert np.max(np.abs(r)) * h * h <= 5e-15


class TestIdealGas:
    def test_rest_state_produces_nothing(self):
        entry = get_system("ideal-gas")
        from thermint import continuous_rhs

        _, _, Sd = continuous_rhs(entry.lagrangian, ThermoState([1.3], [0.0], 1.0))
        assert Sd == 0.0

    def test_acceleration_at_reference_point(self):
        from thermint import continuous_rhs

        entry = get_system("ideal-gas")
        _, vd, _ = continuous_rhs(entry.lagrangian, ThermoState([1.0], [0.0], 10.0))
        assert vd[0] == pytest.approx((2.0 / 3.0) * np.exp(10.0), rel=1e-14)

    def test_frictionless_energy_conserved(self):
        entry = get_system("ideal-gas", gamma=1e-300)
        traj = reference_integrate(entry.lagrangian, ThermoState([1.0], [0.0], 1.0),
                                   10.0, h=0.01)
        H0 = entry.H([1.0], [0.0], 1.0)
        devs = [abs(entry.H(traj.qs[k], traj.vs[k], traj.Ss[k]) - H0)
                for k in range(len(traj))]
        assert max(devs) <= 1e-7

    def test_domain_guard(self):
        entry = get_system("ideal-gas")
        with pytest.raises(DomainError):
            entry.lagrangian.L(np.array([-0.5]), np.array([0.0]), 0.0)

    def test_printed_scheme_agreement(self):
        """Residual of the printed implicit method vanishes on its solutions.

        The oracle codes the displayed update independently of the
        midpoint-discretization plumbing.
        """
        h, gamma, c = 0.01, 0.1, 1.5
        entry = get_system("ideal-gas")
        d = midpoint_discretize(entry.lagrangian, h)
        rng = np.random.default_rng(13)
        for _ in range(50):
            qm, qc, qn = rng.uniform(0.8, 1.3, 3)
            Sm = rng.uniform(0, 3)
            Sc = Sm + (gamma / h) * (qc - qm) ** 2 * ((qc + qm) / 2) ** (1 / c) * np.exp(-Sm)

            def printed(qn):
                return (-qn * (1 / h ** 2 + gamma / (2 * h)) + 2 * qc / h ** 2
                        + qm * (gamma / (2 * h) - 1 / h ** 2)
                        + (1 / (2 * c)) * (np.exp(Sc) * ((qn + qc) / 2) ** (-(1 + 1 / c))
                                           + np.exp(Sm) * ((qc + qm) / 2) ** (-(1 + 1 / c))))

            mine = (d.pi_plus(np.array([qm]), np.array([qc]), Sm)
                    - d.pi_minus(np.array([qc]), np.array([qn]), Sc))[0]
            scale = max(1.0, abs(printed(qn)))
            assert mine == pytest.approx(printed(qn), rel=1e-12, abs=1e-12 * scale)


class TestVanDerWaals:
    def test_degenerates_to_ideal_gas(self):
        vdw = get_system("van-der-waals", a_hat=0.0, b_hat=0.0)
        gas = get_system("ideal-gas")
        for q, v, S in random_states(gas, 25, 14):
            assert vdw.lagrangian.L(q, v, S) == pytest.approx(gas.lagrangian.L(q, v, S),
                                                              rel=1e-12)

    def test_acceleration_at_reference_point(self):
        from thermint import continuous_rhs

        entry = get_system("van-der-waals")
        _, vd, _ = continuous_rhs(entry.lagrangian, ThermoState([1.0], [0.0], 10.0))
        expected = (2.0 / 3.0) * (1.0 / 0.9) ** (5.0 / 3.0) * np.exp(10.0) - 1000.0
        assert vd[0] == pytest.approx(expected, rel=1e-13)

    def test_stationary_entropy(self):
        entry = get_system("van-der-waals")
        d = midpoint_discretize(entry.lagrangian, 0.01)
        assert entropy_update(d, DiscreteTriple([1.0], [1.0], 10.0)) == 10.0

    def test_domain_guard_on_excluded_volume(self):
        entry = get_system("van-der-waals")
        with pytest.raises(DomainError):
            entry.lagrangian.L(np.array([0.05]), np.array([0.0]), 0.0)
        d = midpoint_discretize(entry.lagrangian, 0.01)
        # midpoint guard: q0 + q1 <= 2 b_hat is rejected during stepping
        with pytest.raises(DomainError):
            d.Ld(np.array([0.09]), np.array([0.11]), 0.0)

    def test_printed_scheme_agreement(self):
        h, gamma, a, b, c = 0.01, 0.1, 1.0e3, 0.1, 1.5
        entry = get_system("van-der-waals")
        d = midpoint_discretize(entry.lagrangian, h)
        rng = np.random.default_rng(15)
        for _ in range(50):
            qm, qc, qn = rng.uniform(0.8, 1.3, 3)
            Sm = rng.uniform(0, 3)
            Sc = Sm + (gamma / h) * np.exp(-Sm) * (qc - qm) ** 2 * (
                (qc + qm - 2 * b) / 2) ** (2 / 3)

            def printed(qn):
                return ((-1 / h ** 2 - gamma / (2 * h)) * qn + 2 * qc / h ** 2
                        + (gamma / (2 * h) - 1 / h ** 2) * qm
                        + (np.exp(Sc) / 3) * (2 / (qn + qc - 2 * b)) ** (5 / 3)
                        + (np.exp(Sm) / 3) * (2 / (qc + qm - 2 * b)) ** (5 / 3)
                        - 2 * a * (1 / (qn + qc) ** 2 + 1 / (qc + qm) ** 2))

            mine = (d.pi_plus(np.array([qm]), np.array([qc]), Sm)
                    - d.pi_minus(np.array([qc]), np.array([qn]), Sc))[0]
            scale = max(1.0, abs(printed(qn)))
            assert mine == pytest.approx(printed(qn), rel=1e-12, abs=1e-12 * scale)


class TestTwoPistons:
    def test_cartan_invariant_on_frictional_run(self):
        entry = get_system("two-pistons", gamma=0.1)
        traj = reference_integrate(entry.lagrangian,
                                   ThermoState([1.0, 1.0], [0.2, -0.3], 1.0),
                                   20.0, h=0.02)
        g = entry.invariants["cartan"]
        g0 = g(traj.state(0))
        drift = max(abs(g(traj.state(k)) - g0) for k in range(len(traj)))
        assert drift <= 1e-7

    def test_frictionless_relative_velocity_constant(self):
        entry = get_system("two-pistons", gamma=0.0)
        traj = reference_integrate(entry.lagrangian,
                                   ThermoState([1.0, 1.0], [0.2, -0.3], 1.0),
                                   20.0, h=0.02)
        rel = traj.vs[:, 0] - traj.vs[:, 1]
        assert np.max(np.abs(rel - rel[0])) <= 1e-7

    def test_reflection_symmetry(self):
        entry = get_system("two-pistons", gamma=0.1)
        traj = reference_integrate(entry.lagrangian,
                                   ThermoState([1.0, 1.0], [0.4, 0.4], 1.0),
                                   5.0, h=0.01)
        np.testing.assert_allclose(traj.qs[:, 0], traj.qs[:, 1], atol=1e-10)

    def test_second_piston_at_zero_is_the_ideal_gas_bit_for_bit(self):
        # at q = (x, 0), v = (v, 0) the two-piston cylinder encloses the
        # volume of the one-piston cylinder at x: every value, partial and
        # stiffness entry has the bits of the ideal gas's
        tp, gas = get_system("two-pistons"), get_system("ideal-gas")
        hexes = lambda x: [float(y).hex() for y in np.ravel(x)]
        rng = np.random.default_rng(16)
        for _ in range(250):
            x, w, S = rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 4.0)
            one = (np.array([x]), np.array([w]), S)
            two = (np.array([x, 0.0]), np.array([w, 0.0]), S)
            assert hexes(tp.H(*two)) == hexes(gas.H(*one))
            for f, entries in (("L", 1), ("dLdS", 1), ("dLdq", 2), ("d2LdqdS", 2),
                               ("d2Ldq2", 4)):
                tp_value = getattr(tp.lagrangian, f)(*two)
                assert hexes(tp_value) == hexes(getattr(gas.lagrangian, f)(*one)) * entries, f

    def test_domain_guard(self):
        entry = get_system("two-pistons")
        with pytest.raises(DomainError):
            entry.lagrangian.L(np.array([1.0, -1.5]), np.zeros(2), 0.0)


class TestExpMemo:
    """`_exp` keeps no memo: a first call and a repeat, at a float point, both
    give the bits of ``float(np.exp(x))``, and every call raises its own
    flags; nothing is shared between calls or threads."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
               np.nan, 709.78, 709.782712893384, np.nextafter(709.782712893384, np.inf),
               -708.0, -745.0, -745.2, -800.0, 800.0]

    @staticmethod
    def _assert_exact(x):
        with np.errstate(all="ignore"):
            got, want = _exp(1.0, x), float(np.exp(x))
        assert type(got) is float and got.hex() == want.hex(), x

    def test_miss_and_hit_are_exact(self):
        rng = np.random.default_rng(17)
        args = rng.uniform(-750.0, 750.0, 500).tolist() + rng.normal(0.0, 3.0, 500).tolist()
        for x in args + self.SPECIAL:
            self._assert_exact(x)
            self._assert_exact(x)  # a repeat

    def test_interleaved_repeats_are_exact(self):
        rng = np.random.default_rng(18)
        pool = rng.uniform(-5.0, 5.0, 4).tolist() + [0.0, -0.0, np.nan, 800.0, -800.0]
        for i in rng.integers(0, len(pool), 2000).tolist():
            self._assert_exact(pool[i])

    def test_arrays_are_unaffected(self):
        x = np.array([0.5, 1.5, -0.0, 800.0, np.nan])
        for _ in range(2):
            _exp(1.0, 0.5)
            with np.errstate(all="ignore"):
                got = _exp(x, x)
                assert got.tobytes() == np.exp(x).tobytes()
                assert _exp(x[:1], x[:1]).tobytes() == np.exp(x[:1]).tobytes()
                # at an array point, numpy's float, whose arithmetic numpy checks
                assert type(_exp(x[:1], 0.5)) is np.float64

    @pytest.mark.parametrize("x,flag", [(800.0, "over"), (-800.0, "under"),
                                        (-745.0, "under")])
    def test_a_flagged_value_is_never_kept(self, x, flag):
        # the error state of each call decides, as it does for np.exp
        for _ in range(3):
            with np.errstate(**{flag: "ignore"}):
                _exp(1.0, x)
            with np.errstate(**{flag: "raise"}):
                with pytest.raises(FloatingPointError):
                    np.exp(x)
                with pytest.raises(FloatingPointError):
                    _exp(1.0, x)
                with pytest.raises(FloatingPointError):
                    _exp(1.0, x)
        with np.errstate(**{flag: "warn"}):
            with pytest.warns(RuntimeWarning):
                _exp(1.0, x)

    def test_a_hit_is_its_own_arguments_value_across_threads(self):
        # concurrent calls, switching threads often, each get their own
        # argument's value
        args = [[k + 0.25 * t for k in range(8)] for t in range(4)]
        want = {x: float(np.exp(x)) for xs in args for x in xs}
        wrong = []

        def run(xs):
            for _ in range(500):
                for x in xs:
                    if _exp(1.0, x) != want[x] or _exp(1.0, x) != want[x]:
                        wrong.append(x)

        threads = [threading.Thread(target=run, args=(xs,)) for xs in args]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_a_normal_value_raises_nothing(self):
        with np.errstate(all="raise"):
            for x in (1.5, 1.5, -708.0, -708.0, 709.78, 709.78):
                assert _exp(1.0, x) == float(np.exp(x))


#: the guards of the one-dimensional gases: system, lo and today's message
GUARDS = [("ideal-gas", 0.0, "piston position must stay positive"),
          ("van-der-waals", 0.1, "position must exceed the excluded volume 0.1")]


@pytest.mark.parametrize("name,lo,what", GUARDS)
def test_one_dimensional_guard_at_its_boundary(name, lo, what):
    # lo and the float below it raise, the float above it passes, and NaN
    # passes, at a float point, at an array point and as a row of a stack
    entry = get_system(name)
    L = entry.lagrangian.L
    outside = [lo, float(np.nextafter(lo, -np.inf))] + ([-0.0] if lo == 0.0 else [])
    inside = [float(np.nextafter(lo, np.inf)), np.nan]

    def points(x):
        stack = np.full((3, 1), 1.0)
        stack[1, 0] = x
        return [(x, 0.0, 0.5), (np.array([x]), np.array([0.0]), 0.5),
                (stack, np.zeros((3, 1)), np.full(3, 0.5))]

    for x in outside:
        for q, v, S in points(x):
            with pytest.raises(DomainError) as err:
                L(q, v, S)
            assert str(err.value) == f"{what}, got {x}"
    for x in inside:
        for q, v, S in points(x):
            L(q, v, S)


def test_catalog_names():
    assert set(CATALOG) == {"oscillator", "ideal-gas", "van-der-waals", "two-pistons"}
    with pytest.raises(KeyError):
        get_system("pendulum")
