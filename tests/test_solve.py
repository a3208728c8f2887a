import dataclasses

import numpy as np
import pytest

from thermint.bench import default_newton_tol
from thermint.continuous import pair
from thermint.errors import ThermintError

from thermint import (
    ConfigError,
    ConvergenceError,
    DiscreteTriple,
    DomainError,
    ExperimentConfig,
    LagrangianThermoSystem,
    NewtonConfig,
    ThermoState,
    continuous_rhs,
    discrete_flow,
    entropy_update,
    get_system,
    ideal_gas,
    initialize,
    integrate,
    midpoint_discretize,
    newton_solve,
)

OSC = get_system("oscillator")
GAS = get_system("ideal-gas")


class TestNewton:
    def test_linear_single_iteration(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        x, report = newton_solve(lambda x: A @ x - b, lambda x: A, np.zeros(2))
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-14)
        assert report.converged
        assert report.iterations == 1

    def test_oscillator_step_matches_closed_form(self):
        h = 0.01
        d = midpoint_discretize(OSC.lagrangian, h)
        a, b = OSC.update_coefficients(h)
        qa, qb = np.array([0.1]), np.array([0.12])
        S1 = entropy_update(d, DiscreteTriple(qa, qb, 0.0))
        const = d.D2Ld(qa, qb, 0.0) + 0.5 * d.ffr_plus(qa, qb, 0.0)
        resid = lambda x: d.D1Ld(qb, x, S1) + 0.5 * d.ffr_minus(qb, x, S1) + const
        x, _ = newton_solve(resid, None, 2 * qb - qa)
        assert x[0] == pytest.approx(a * 0.12 - b * 0.1, abs=1e-12)

    def test_cubic_against_bisection(self):
        from scipy.optimize import bisect

        f = lambda x: np.array([x[0] ** 3 - 2 * x[0] - 5.0])
        root = bisect(lambda x: x ** 3 - 2 * x - 5.0, 2.0, 3.0, xtol=1e-14)
        x, report = newton_solve(f, None, np.array([2.5]), NewtonConfig(tol=1e-12))
        assert x[0] == pytest.approx(root, abs=1e-12)
        assert report.converged

    def test_max_iter_exceeded(self):
        # gradient pushes the iterate away from the flat region's root
        f = lambda x: np.array([np.exp(x[0]) ])
        with pytest.raises(ConvergenceError):
            newton_solve(f, None, np.array([0.0]), NewtonConfig(tol=1e-12, max_iter=5))

    def test_singular_jacobian(self):
        f = lambda x: np.array([x[0] ** 2])
        J = lambda x: np.array([[0.0]])
        with pytest.raises(ConvergenceError):
            newton_solve(f, J, np.array([1.0]))

    def test_already_converged_zero_iterations(self):
        f = lambda x: np.zeros(1)
        x, report = newton_solve(f, None, np.array([3.0]))
        assert report.iterations == 0
        assert x[0] == 3.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)


class TestIntegrate:
    def test_zero_steps_returns_initial_point(self):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        path = integrate(d, [0.3], [0.31], 0.2, 0)
        assert len(path) == 1
        np.testing.assert_array_equal(path.qs, [[0.3]])
        np.testing.assert_array_equal(path.Ss, [0.2])

    def test_one_step_is_initial_data(self):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        path = integrate(d, [0.3], [0.31], 0.2, 1)
        np.testing.assert_array_equal(path.qs, [[0.3], [0.31]])
        assert path.Ss[1] == entropy_update(d, DiscreteTriple([0.3], [0.31], 0.2))

    def test_oscillator_against_recurrence(self):
        h = 0.01
        N = 5000
        d = midpoint_discretize(OSC.lagrangian, h)
        sol = OSC.exact_solution([0.0], [1.0], 0.0)
        a, b = OSC.update_coefficients(h)
        q0, q1 = 0.0, float(sol.q(h))
        path = integrate(d, [q0], [q1], 0.0, N)
        # per-step: re-seed each Newton solve from the recurrence values
        qs = np.empty(N + 1)
        qs[0], qs[1] = q0, q1
        for k in range(1, N):
            qs[k + 1] = a * qs[k] - b * qs[k - 1]
        worst = np.max(np.abs(path.qs[:, 0] - qs))
        # free-running paths accumulate roundoff through the weakly damped
        # recurrence; the per-step agreement is tested in acceptance
        assert worst <= 1e-10

    def test_ideal_gas_entropy_increases(self):
        d = midpoint_discretize(GAS.lagrangian, 0.01)
        path = integrate(d, [1.0], [1.0], 10.0, 10, NewtonConfig(tol=1e-10))
        diffs = np.diff(path.Ss)
        assert diffs[0] == 0.0  # first segment has q0 = q1
        assert np.all(diffs[1:] > 0.0)

    def test_nonconvergence_reports_step_index(self):
        d = midpoint_discretize(GAS.lagrangian, 0.01)
        with pytest.raises(ConvergenceError) as err:
            integrate(d, [1.0], [1.0], 10.0, 200, NewtonConfig(tol=1e-15, max_iter=3))
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, [1.0], [1.0], 10.0)

    def test_domain_error_reports_step_index(self):
        # the predictor 2*0.1 - 0.5 of step 1 leaves the domain x > 0
        d = midpoint_discretize(ideal_gas().lagrangian, 0.3)
        with pytest.raises(DomainError) as err:
            integrate(d, [0.5], [0.1], 10.0, 20)
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, [0.5], [0.1], 10.0)

    def test_constraint_holds_exactly_by_construction(self):
        d = midpoint_discretize(GAS.lagrangian, 0.01)
        path = integrate(d, [1.0], [1.0], 10.0, 50, NewtonConfig(tol=1e-10))
        assert path.constraint_residual(d) == 0.0

    def test_warm_start_keeps_newton_short(self):
        h = 0.1
        d = midpoint_discretize(OSC.lagrangian, h)
        qa, qb = np.array([0.0]), np.array([0.099])
        S1 = entropy_update(d, DiscreteTriple(qa, qb, 0.0))
        const = d.D2Ld(qa, qb, 0.0) + 0.5 * d.ffr_plus(qa, qb, 0.0)
        resid = lambda x: d.D1Ld(qb, x, S1) + 0.5 * d.ffr_minus(qb, x, S1) + const
        jac = lambda x: -d.pi_minus_dq1(qb, x, S1)
        _, report = newton_solve(resid, jac, 2 * qb - qa, NewtonConfig(tol=1e-12))
        assert report.iterations <= 3


def _assert_triple(t, q0, q1, S0):
    """The triple ``t`` is (q0, q1, S0), bit for bit."""
    assert isinstance(t, DiscreteTriple)
    np.testing.assert_array_equal(t.q0, q0, strict=True)
    np.testing.assert_array_equal(t.q1, q1, strict=True)
    assert t.S0 == S0


def _catalog_start(name, h):
    """Discretized catalog system and its default first two points."""
    entry = get_system(name)
    cfg = ExperimentConfig(system=name, h=h, t_final=h)
    q0, q1, S0 = initialize(entry, cfg.q0, cfg.v0, cfg.S0, h, cfg.init_mode)
    return midpoint_discretize(entry.lagrangian, h), (q0, q1, S0), NewtonConfig(tol=1e-9)


CATALOG_CELLS = [("oscillator", 0.1), ("ideal-gas", 0.01), ("van-der-waals", 0.01),
                 ("two-pistons", 0.01)]


class TestSingleKernel:
    @pytest.mark.parametrize("name,h", CATALOG_CELLS)
    def test_integrate_is_repeated_discrete_flow(self, name, h):
        d, (q0, q1, S0), cfg = _catalog_start(name, h)
        N = 200
        path = integrate(d, q0, q1, S0, N, cfg)
        t = DiscreteTriple(q0, q1, S0)
        for k in range(1, N):
            t = discrete_flow(d, t, cfg)
            np.testing.assert_array_equal(t.q1, path.qs[k + 1])
            assert t.S0 == path.Ss[k]
        assert entropy_update(d, t) == path.Ss[N]

    @pytest.mark.parametrize("name,h", CATALOG_CELLS)
    def test_generic_kernel_matches_fused(self, name, h):
        # without the fused callables the system derives the generic ones
        d, (q0, q1, S0), cfg = _catalog_start(name, h)
        generic = dataclasses.replace(d, pi_minus=None, pi_plus=None, pi_minus_dq1=None,
                                      entropy_increment=None)
        assert generic.pi_minus is not None and generic.pi_minus is not d.pi_minus
        a = integrate(d, q0, q1, S0, 300, cfg)
        b = integrate(generic, q0, q1, S0, 300, cfg)
        np.testing.assert_array_equal(a.qs, b.qs)
        np.testing.assert_array_equal(a.Ss, b.Ss)

    def test_derived_kernel_follows_replaced_fields(self):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        generic = dataclasses.replace(d, pi_minus=None)
        doubled = dataclasses.replace(generic, D1Ld=lambda *a: 2.0 * d.D1Ld(*a))
        t = (np.array([0.1]), np.array([0.2]), 0.0)
        np.testing.assert_allclose(doubled.pi_minus(*t) + 0.5 * d.ffr_minus(*t),
                                   2.0 * (generic.pi_minus(*t) + 0.5 * d.ffr_minus(*t)),
                                   rtol=1e-15)


def _run(d, start, N, cfg):
    """``integrate``'s path as bytes, or its failure as (type, message,
    step index, triple as bytes)."""
    try:
        path = integrate(d, *start, N, cfg)
    except ThermintError as exc:
        t = exc.triple
        return (type(exc), str(exc), exc.step_index,
                t.q0.tobytes() + t.q1.tobytes() + np.float64(t.S0).tobytes())
    return path.qs.tobytes() + path.Ss.tobytes()


FLOAT_CELLS = [(name, h, start) for name in ("oscillator", "ideal-gas", "van-der-waals")
               for h in (0.3, 0.1, 0.01, 0.001)
               for start in (("default", "q1=0.01") if name == "oscillator" else ("default",))]

#: the cells that fail at the parent's array path, and how
FLOAT_FAILURES = {
    ("ideal-gas", 0.3, "default"): (ConvergenceError, 2, "9.546e+113"),
    ("van-der-waals", 0.3, "default"): (ConvergenceError, 2, "1.189e+162"),
    ("oscillator", 0.001, "q1=0.01"): (ConvergenceError, 106, "1.110e-10"),
}


class TestFloatPoints:
    """A one-dimensional catalog system steps on floats, bit for bit the
    length-1 arrays of the same system declared without float points."""

    @pytest.mark.parametrize("name,h,start", FLOAT_CELLS)
    def test_float_path_is_array_path(self, name, h, start):
        entry = get_system(name)
        cfg = ExperimentConfig(system=name, h=h, t_final=h)
        if start == "default":
            data = initialize(entry, cfg.q0, cfg.v0, cfg.S0, h, cfg.init_mode)
        else:
            data = (np.array([0.0]), np.array([0.01]), 0.0)
        newton = NewtonConfig(tol=default_newton_tol(name, h))
        arrays = dataclasses.replace(entry.lagrangian, float_points=False)
        assert entry.lagrangian.float_points and not arrays.float_points
        on_floats = _run(midpoint_discretize(entry.lagrangian, h), data, 2000, newton)
        on_arrays = _run(midpoint_discretize(arrays, h), data, 2000, newton)
        assert on_floats == on_arrays
        failure = FLOAT_FAILURES.get((name, h, start))
        if failure is None:
            assert isinstance(on_floats, bytes)
        else:
            kind, step, residual = failure
            assert on_floats[0] is kind and on_floats[2] == step
            assert f"Newton residual {residual}" in on_floats[1]

    def test_user_system_with_derived_second_partials(self):
        # L = v^2/2 - q^4/4 - S with friction -0.1 v, written once for floats
        # and arrays; every second partial is derived by central differences
        def quartic(float_points):
            return LagrangianThermoSystem(
                n=1, L=lambda q, v, S: 0.5 * pair(v, v) - 0.25 * pair(q * q, q * q) - S,
                dLdq=lambda q, v, S: -(q * q * q), dLdv=lambda q, v, S: v,
                dLdS=lambda q, v, S: -1.0, Ffr=lambda q, v, S: -0.1 * v,
                float_points=float_points)

        runs = [_run(midpoint_discretize(quartic(fp), 0.01), ([0.5], [0.51], 0.0), 500,
                     NewtonConfig(tol=1e-10)) for fp in (True, False)]
        assert isinstance(runs[0], bytes) and runs[0] == runs[1]

    def test_only_one_dimensional_systems_declare_float_points(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            dataclasses.replace(get_system("two-pistons").lagrangian, float_points=True)

    def test_kernel_takes_float_point(self):
        # every n = 1 kernel callable, fused, adapted or generic
        d = midpoint_discretize(GAS.lagrangian, 0.01)
        arrays = midpoint_discretize(dataclasses.replace(GAS.lagrangian, float_points=False),
                                     0.01)
        generic = dataclasses.replace(d, pi_minus=None, pi_plus=None, pi_minus_dq1=None,
                                      entropy_increment=None)
        point, vectors = (1.0, 1.25, 10.0), (np.array([1.0]), np.array([1.25]), 10.0)
        for system in (d, arrays, generic):
            for attr in ("pi_minus", "pi_plus", "pi_minus_dq1", "entropy_increment"):
                fn = getattr(system, attr)
                value = fn(*point)
                assert type(value) in (float, np.float64)
                assert value == np.asarray(fn(*vectors)).item()

    def test_pair_keeps_sign_of_zero(self):
        for a, b in ((-0.0, 1.0), (0.0, -1.0), (-0.0, -0.0), (-2.5, 0.5)):
            dot = float(np.array([a]) @ np.array([b]))
            assert pair(a, b).hex() == dot.hex()

    @pytest.mark.parametrize("jacobian", [None, lambda x: 3 * x ** 2 - 2])
    def test_newton_float_is_length_1_array(self, jacobian):
        cubic = lambda x: x ** 3 - 2 * x - 5.0
        on_arrays = (None if jacobian is None
                     else lambda x: np.array([[float(jacobian(x[0]))]]))
        x, report = newton_solve(cubic, jacobian, 2.5)
        y, report_y = newton_solve(lambda x: np.array([cubic(x[0])]), on_arrays,
                                   np.array([2.5]))
        assert type(x) is float and x.hex() == float(y[0]).hex()
        assert report == report_y

    def test_newton_float_errors(self):
        with pytest.raises(ConvergenceError, match="zero Jacobian"):
            newton_solve(lambda x: x * x, lambda x: 0.0, 1.0)
        with pytest.raises(ConvergenceError, match="above tol"):
            newton_solve(lambda x: np.exp(x), None, 0.0, NewtonConfig(max_iter=5))


class TestInitialize:
    def test_exact_oscillator(self):
        h = 0.01
        gamma = 0.1
        wt = np.sqrt(1 - (gamma / 2) ** 2)
        q0, q1, S0 = initialize(OSC, [0.0], [1.0], 0.0, h, "exact")
        assert q1[0] == pytest.approx(np.exp(-gamma * h / 2) * np.sin(wt * h) / wt,
                                      rel=1e-14)
        np.testing.assert_array_equal(q0, [0.0])
        assert S0 == 0.0

    def test_hold_mode(self):
        q0, q1, _ = initialize(GAS, [1.0], [0.0], 10.0, 0.01, "hold")
        np.testing.assert_array_equal(q1, q0)

    def test_taylor_zero_acceleration(self):
        free = get_system("two-pistons", gamma=0.0)
        # symmetric expansion: accelerations are equal, relative taylor term 0
        q0, q1, _ = initialize(free, [1.0, 1.0], [0.5, 0.5], 0.0, 0.01, "taylor")
        _, a, _ = continuous_rhs(free.lagrangian, ThermoState([1.0, 1.0], [0.5, 0.5], 0.0))
        np.testing.assert_allclose(q1, [1.0 + 0.005 + 0.5e-4 * a[0]] * 2, rtol=1e-12)

    def test_reference_matches_exact(self):
        q0a, q1a, _ = initialize(OSC, [0.0], [1.0], 0.0, 0.01, "exact")
        q0b, q1b, _ = initialize(OSC, [0.0], [1.0], 0.0, 0.01, "reference")
        assert q1a[0] == pytest.approx(q1b[0], abs=1e-10)

    def test_exact_unavailable(self):
        with pytest.raises(ConfigError):
            initialize(GAS, [1.0], [0.0], 10.0, 0.01, "exact")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            initialize(OSC, [0.0], [1.0], 0.0, 0.01, "euler")
