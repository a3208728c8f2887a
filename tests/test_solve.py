import dataclasses
import gc
import hashlib
from functools import partial
from sys import setprofile

import numpy as np
import pytest

from thermint import systems
from thermint.bench import default_newton_tol, rk2_integrate
from thermint.continuous import _constant, fd_gradient, first_order_rhs, pair
from thermint.errors import TemperatureDegenerateError, ThermintError
from thermint.solve import _newton, _point, _solve_pair, _solve_update, solve_step

from thermint import (
    ConfigError,
    ConvergenceError,
    DiscreteThermoSystem,
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
    momentum_map,
    omega_embedded,
    pullback_check,
)

OSC = get_system("oscillator")
GAS = get_system("ideal-gas")


def _newton_on(residual, jacobian, x0, tol=1e-12):
    """`_newton` on residual(x) = 0 from x0, a float or an array, with
    ``residual`` as its pass and ``jacobian`` as its Newton matrix: the root
    and the number of updates, one per matrix call."""
    updates = []

    def matrix(q, x, S):
        updates.append(x)
        return jacobian(x)

    q = 0.0 if type(x0) is float else np.zeros_like(x0)
    x, _, _ = _newton(lambda q, x, S: (residual(x), None, None), matrix, tol, q, 0.0, 0.0, x0)
    return x, len(updates)


class TestNewton:
    def test_linear_single_iteration(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([1.0, -2.0])
        x, iterations = _newton_on(lambda x: A @ x - b, lambda x: A, np.zeros(2))
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-14)
        assert iterations == 1

    def test_oscillator_step_matches_closed_form(self):
        # the step's own solve on length-1 arrays, from the linear extrapolation
        h = 0.01
        d = midpoint_discretize(OSC.lagrangian, h)
        a, b = OSC.update_coefficients(h)
        qa, qb = np.array([0.1]), np.array([0.12])
        S1 = entropy_update(d, DiscreteTriple(qa, qb, 0.0))
        x, _, _ = _newton(d.triple_pass, d.pi_minus_dq1, 1e-12, qb, S1, d.pi_plus(qa, qb, 0.0),
                          2 * qb - qa)
        assert x[0] == pytest.approx(a * 0.12 - b * 0.1, abs=1e-12)

    def test_cubic_against_bisection(self):
        from scipy.optimize import bisect

        f = lambda x: np.array([x[0] ** 3 - 2 * x[0] - 5.0])
        root = bisect(lambda x: x ** 3 - 2 * x - 5.0, 2.0, 3.0, xtol=1e-14)
        x, _ = _newton_on(f, partial(fd_gradient, f), np.array([2.5]))
        assert x[0] == pytest.approx(root, abs=1e-12)
        assert abs(f(x)[0]) <= 1e-12

    def test_max_iter_exceeded(self):
        # x^2 + 1 has no real root, and each update (x^2 + 1)/(2x) is at
        # least 1 in size, so it never stalls: the loop stops after 50
        with pytest.raises(ConvergenceError, match="after 50 iterations"):
            _newton_on(lambda x: x ** 2 + 1.0, lambda x: np.array([[2.0 * x[0]]]),
                       np.array([0.5]))

    def test_singular_jacobian(self):
        f = lambda x: np.array([x[0] ** 2])
        J = lambda x: np.array([[0.0]])
        with pytest.raises(ConvergenceError, match="singular Newton Jacobian"):
            _newton_on(f, J, np.array([1.0]))

    def test_already_converged_zero_iterations(self):
        f = lambda x: np.zeros(1)
        x, iterations = _newton_on(f, partial(fd_gradient, f), np.array([3.0]))
        assert iterations == 0
        assert x[0] == 3.0

    @pytest.mark.parametrize("n", [1, 2], ids=["float", "array"])
    @pytest.mark.parametrize("stop", ["zero-iterations", "tol", "stall"])
    def test_last_residual_call_is_at_the_root(self, n, stop):
        # integrate takes the pass of the last residual call for the pass at
        # the root: on every return that call is made at the returned point.
        # The point loop `_newton` runs on float points (n = 1) and on arrays,
        # here through solve_step and integrate on a scripted system
        vector = (lambda v: v) if n == 1 else (lambda v: np.full(2, v))
        matrix = (lambda v: v) if n == 1 else (lambda v: v * np.eye(2))

        def script():
            seen = []
            if stop == "stall":
                # the second update, 1e-21, is at roundoff level: the loop
                # stops on it, and the residual there meets tol
                values = iter([1.0, 1e-11, 0.0])
                residual, x0 = lambda x: vector(next(values)), 0.0
                jacobian = lambda x: matrix(1.0 if len(seen) == 1 else 1e10)
            else:
                residual = lambda x: 2.0 * x - 1.0
                jacobian = lambda x: matrix(2.0)
                x0 = 0.5 if stop == "zero-iterations" else 0.0

            def recorded(x):
                seen.append(x)
                return residual(x)
            return recorded, jacobian, x0, seen

        iterations = {"zero-iterations": 0, "tol": 1, "stall": 2}[stop]
        cfg = NewtonConfig(tol=1e-12)
        recorded, jacobian, x0, seen = script()
        # the Newton start 2 q1 - q0 is x0
        x, _ = solve_step(_scripted(recorded, jacobian, n), vector(0.0), vector(0.5 * x0),
                          0.0, cfg)
        assert len(seen) == iterations + 1 and x is seen[-1]
        recorded, jacobian, x0, seen = script()
        path = integrate(_scripted(recorded, jacobian, n), [0.0] * n, [0.5 * x0] * n, 0.0, 2,
                         cfg)
        # the entropy increment of the carried pass is the point of that pass
        assert len(seen) == iterations + 1
        np.testing.assert_array_equal(path.qs[2], seen[-1], strict=n == 2)
        assert path.Ss[2] == path.qs[2, 0]

    def test_newton_array_errors(self):
        # every failing stop of `_newton` at array points, through
        # solve_step and through integrate, which names step 1 and its triple
        nan, eye = float("nan"), np.eye(2)
        start = lambda x: x[0] == 0.5
        failures = [
            (lambda x: x * x, lambda x: np.zeros((2, 2)),
             "singular Newton Jacobian: Singular matrix"),
            # no root and no stall (see test_max_iter_exceeded)
            (lambda x: x * x + 1.0, lambda x: np.diag(2.0 * x),
             "above tol 1.0e-12 after 50 iterations"),
            (lambda x: np.full(2, 1e300), lambda x: 1e-300 * eye, "non-finite Newton update"),
            (lambda x: np.ones(2), lambda x: nan * eye, "non-finite Newton update"),
            # the residual floor 1e-10 is above tol: the second update, 1e-22,
            # is at roundoff level and stops the loop
            (lambda x: np.full(2, 1.0 if start(x) else 1e-10),
             lambda x: (1.0 if start(x) else 1e12) * eye,
             "Newton residual 1.000e-10 above tol 1.0e-12 after 2 iterations"),
            # a NaN in the last component, which max alone would skip
            (lambda x: np.array([0.0, nan]), lambda x: eye,
             "Newton residual nan above tol 1.0e-12 after 0 iterations"),
            (lambda x: np.ones(2) if start(x) else np.array([0.0, nan]), lambda x: eye,
             "Newton residual nan above tol 1.0e-12 after 1 iterations"),
        ]
        cfg = NewtonConfig(tol=1e-12)
        q0, q1 = np.zeros(2), np.full(2, 0.25)
        for residual, jacobian, message in failures:
            # the Newton start 2 q1 - q0 is (0.5, 0.5)
            with pytest.raises(ConvergenceError, match=message):
                solve_step(_scripted(residual, jacobian, 2), q0, q1, 0.0, cfg)
            with pytest.raises(ConvergenceError, match=message) as err:
                integrate(_scripted(residual, jacobian, 2), q0, q1, 0.0, 3, cfg)
            assert err.value.step_index == 1
            _assert_triple(err.value.triple, q0, q1, 0.0)

    def test_config_validation(self):
        # tol = inf took any start guess as a root after 0 iterations
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                NewtonConfig(tol=tol)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.nan], [1e-20, np.nan]],
                             ids=["nan-first", "nan-last", "tiny-then-nan"])
    @pytest.mark.parametrize("stage", ["start", "update"])
    def test_array_newton_never_accepts_nan(self, bad, stage):
        # the max norm runs on Python floats, where max(0.0, nan) is 0.0: a
        # NaN component must still make the norm NaN, never a root
        values = iter([[1.0, 1.0], bad] if stage == "update" else [bad])
        residual = lambda x: np.array(next(values))
        with pytest.raises(ConvergenceError, match="residual nan"):
            _newton_on(residual, lambda x: np.eye(2), np.zeros(2))

    def test_solve_update_is_lapack_solve(self):
        # the Newton update calls numpy's solve gufunc without the
        # np.linalg.solve wrapper: the same bits, pinned against a numpy upgrade
        rng = np.random.default_rng(2101)
        for J, r in zip(rng.standard_normal((10_000, 2, 2)), rng.standard_normal((10_000, 2))):
            assert _solve_update(J, r).tobytes() == np.linalg.solve(J, r).tobytes()

    @pytest.mark.parametrize("J", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])],
                             ids=["zero", "rank-1"])
    def test_singular_jacobian_on_arrays(self, J):
        # LAPACK's singular flag reaches the caller as a ConvergenceError,
        # with no RuntimeWarning (the suite turns one into an error)
        with pytest.raises(ConvergenceError, match="singular Newton Jacobian"):
            _newton_on(lambda x: x - 1.0, lambda x: J, np.zeros(2))


def _seeded_systems(kind, seed, size=5000):
    """Seeded 2x2 systems (J, r): standard normal ("general"), with |J10| >
    |J00| so that every row swaps ("swaps"), or near the Newton matrix 1e4 I
    of a step at h = 0.01 ("newton").  Only exactly rounded operations form
    them, so they are the same on every CPU (array ``**`` is not)."""
    rng = np.random.default_rng(seed)
    r = np.ldexp(rng.standard_normal((size, 2)), rng.integers(-27, 10, (size, 1)))
    J = rng.standard_normal((size, 2, 2))
    if kind == "swaps":
        J[:, 1, 0] = J[:, 0, 0] * rng.uniform(1.01, 1e3, size) * rng.choice([-1, 1], size)
    elif kind == "newton":
        J = 1e4 * np.eye(2) + rng.uniform(-50, 50, (size, 1, 1)) * rng.uniform(0.9, 1.1,
                                                                                 (size, 2, 2))
    return J, r


class TestSolvePair:
    """The 2x2 update of a point of two floats, pinned by its bits on seeded
    systems: they are those of `_solve_update` where OpenBLAS runs its
    SkylakeX kernels, but numpy's own bits depend on the host's kernel."""

    @pytest.mark.parametrize("kind,seed,digest", [
        ("general", 170, "a5ce30e11da76de1d77462f9296b9c94990a2be11bb8be9934f076b4fd0b1847"),
        ("swaps", 171, "19029ce53d9745eb03ea21ca54bf2e50a58402a404f00896733a59392d30930f"),
        ("newton", 172, "8f6f1ca9be7e681476f4100138078b1f4af81f9abf5c3895b87f4297aaea05d9"),
    ])
    def test_pinned_bits(self, kind, seed, digest):
        J, r = _seeded_systems(kind, seed)
        x = np.array([_solve_pair(tuple(j.ravel().tolist()), tuple(b.tolist()))
                      for j, b in zip(J, r)])
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("J", [(0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 2.0, 4.0),
                                   (0.0, 1.0, 0.0, 1.0), (-0.0, 1.0, 0.0, 3.0),
                                   (3.0, 0.0, 1.0, 0.0), (0.0, 1.0, float("nan"), 1.0)])
    def test_singular(self, J):
        with pytest.raises(ConvergenceError, match="^singular Newton Jacobian: Singular matrix$"):
            _solve_pair(J, (1.0, 2.0))

    def test_pivot_below_the_normal_range(self):
        # the kernel leaves the column unscaled below the smallest normal pivot
        # (l = 1.3e-308, not 1.3 / 2.2): x1 = 2 - l = 2 and x0 = (1 - x1) / 2.2e-308
        x = _solve_pair((2.2e-308, 1.0, 1.3e-308, 1.0), (1.0, 2.0))
        assert x == (-1.0 / 2.2e-308, 2.0)


class TestStackedStep:
    """A stacked cold step fails when one of its rows fails, with the error
    of the step on that row alone; row 3 of eight two-pistons triples is the
    bad one, rows 0 and 7 step alone."""

    D = midpoint_discretize(get_system("two-pistons").lagrangian, 0.01)
    CFG = NewtonConfig(tol=1e-10)

    @staticmethod
    def _stack():
        rng = np.random.default_rng(2301)
        q0 = rng.uniform(0.95, 1.05, (8, 2))
        return q0, q0 + rng.uniform(-0.01, 0.01, (8, 2)), 1.0 + rng.uniform(-0.1, 0.1, 8)

    def _assert_row_3_fails(self, d, stack, kind, match, cfg=CFG):
        q0, q1, S0 = stack
        with pytest.raises(kind, match=match) as alone:
            solve_step(d, q0[3], q1[3], S0[3], cfg)
        for k in (0, 7):
            solve_step(d, q0[k], q1[k], S0[k], cfg)
        with pytest.raises(kind, match=match) as stacked:
            solve_step(d, q0, q1, S0, cfg)
        assert str(stacked.value).startswith(str(alone.value))
        return str(stacked.value)

    @pytest.mark.parametrize("where", ["pass", "predictor"])
    def test_one_row_outside_the_domain(self, where):
        # "pass": the midpoint of (q0, q1) is outside x + y > 0; "predictor":
        # (q0, q1) is inside, the Newton start 2 q1 - q0 is not
        q0, q1, S0 = self._stack()
        bad = {"pass": ([1.0, 1.0], [-1.0, -1.5]), "predictor": ([2.0, 2.0], [0.5, 0.5])}
        q0[3], q1[3] = bad[where]
        self._assert_row_3_fails(self.D, (q0, q1, S0), DomainError, "total volume")

    def _newton_matrix_at_row_3(self, stack, value):
        # the system whose Newton matrix is value * I where q_curr is row 3's
        marker = stack[1][3, 0]
        dq1 = self.D.pi_minus_dq1

        def newton_matrix(q, x, S):
            J = np.array(dq1(q, x, S))
            J[q[..., 0] == marker] = value * np.eye(2)
            return J
        return dataclasses.replace(self.D, pi_minus_dq1=newton_matrix)

    def test_one_singular_row(self):
        stack = self._stack()
        d = self._newton_matrix_at_row_3(stack, 0.0)
        message = self._assert_row_3_fails(d, stack, ConvergenceError,
                                           "singular Newton Jacobian: Singular matrix")
        assert message.endswith("(row 3 of 8)")

    def test_one_non_finite_row(self):
        # a subnormal Newton matrix passes LAPACK's check; its update overflows
        stack = self._stack()
        d = self._newton_matrix_at_row_3(stack, 1e-320)
        message = self._assert_row_3_fails(d, stack, ConvergenceError,
                                           r"non-finite Newton update \(singular Jacobian\?\)")
        assert message.endswith("(row 3 of 8)")

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.nan], [1e-20, np.nan]],
                             ids=["nan-first", "nan-last", "tiny-then-nan"])
    @pytest.mark.parametrize("stage", ["start", "update"])
    def test_nan_row_never_accepted(self, bad, stage):
        # pi_minus of row 3 is NaN at the Newton start 2 q1 - q0, or after it
        stack = self._stack()
        q0, q1, _ = stack
        start = 2 * q1[3, 0] - q0[3, 0]

        def triple_pass(q, x, S):
            pi, rest, args = self.D.triple_pass(q, x, S)
            at_start = x[..., 0] == start
            nan = (q[..., 0] == q1[3, 0]) & (at_start if stage == "start" else ~at_start)
            if np.any(nan):
                pi = np.array(pi)
                pi[nan] = bad
            return pi, rest, args

        d = dataclasses.replace(self.D, triple_pass=triple_pass)
        self._assert_row_3_fails(d, stack, ConvergenceError, "residual nan")

    @pytest.mark.parametrize("max_iter,stop", [(50, 7), (5, 5)], ids=["stall", "max_iter"])
    def test_row_above_tol(self, max_iter, stop, monkeypatch):
        # at S0 = 20 the pressure e^20 lifts row 3's residual floor above
        # tol: its updates reach roundoff level after 7 of them, and the row
        # stops there, or at the update limit before; the other rows take two
        monkeypatch.setattr("thermint.solve._MAX_ITER", max_iter)
        q0, q1, S0 = self._stack()
        S0[3] = 20.0
        self._assert_row_3_fails(self.D, (q0, q1, S0), ConvergenceError,
                                 f"above tol 1.0e-10 after {stop} iterations")


class TestIntegrate:
    def test_zero_steps_returns_initial_point(self):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        path = integrate(d, [0.3], [0.31], 0.2, 0)
        assert len(path) == 1
        np.testing.assert_array_equal(path.qs, [[0.3]])
        np.testing.assert_array_equal(path.Ss, [0.2])

    @pytest.mark.parametrize("q0,q1,N", [(1.0, [1.0, 1.0], 3), ([1.0], [1.0, 1.0], 3),
                                         ([1.0, 1.0], [1.0, 1.0], -1)],
                             ids=["float-q0", "short-q0", "negative-N"])
    def test_bad_start_rejected(self, q0, q1, N):
        # numpy would broadcast a one-entry start point over both pistons
        d = midpoint_discretize(get_system("two-pistons").lagrangian, 0.01)
        with pytest.raises(ValueError):
            integrate(d, q0, q1, 1.0, N)

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
            integrate(d, [1.0], [1.0], 10.0, 200, NewtonConfig(tol=1e-15))
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, [1.0], [1.0], 10.0)

    def test_domain_error_reports_step_index(self):
        # the predictor 2*0.1 - 0.5 of step 1 leaves the domain x > 0
        d = midpoint_discretize(ideal_gas().lagrangian, 0.3)
        with pytest.raises(DomainError) as err:
            integrate(d, [0.5], [0.1], 10.0, 20)
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, [0.5], [0.1], 10.0)

    @pytest.mark.parametrize("name,q", [("ideal-gas", [1e-250]),
                                        ("two-pistons", [1e-250, 0.0])])
    def test_arithmetic_error_reports_step_index(self, name, q):
        # a float ``**`` overflows at volume 1e-250, as a stack's power does
        # (see test_stacks); the error keeps its type and names step 1 and
        # its triple
        d = midpoint_discretize(get_system(name).lagrangian, 0.01)
        with pytest.raises(OverflowError) as err:
            integrate(d, q, q, 0.0, 5)
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, q, q, 0.0)

    def test_constraint_holds_exactly_by_construction(self):
        d = midpoint_discretize(GAS.lagrangian, 0.01)
        path = integrate(d, [1.0], [1.0], 10.0, 50, NewtonConfig(tol=1e-10))
        assert path.constraint_residual(d) == 0.0

    def test_warm_start_keeps_newton_short(self):
        # the Newton updates of a step from the linear extrapolation, one per
        # call of the Newton matrix
        d = midpoint_discretize(OSC.lagrangian, 0.1)
        updates = []

        def newton_matrix(q0, q1, S0):
            updates.append(q1)
            return d.pi_minus_dq1(q0, q1, S0)

        counted = dataclasses.replace(d, pi_minus_dq1=newton_matrix)
        solve_step(counted, np.array([0.0]), np.array([0.099]), 0.0, NewtonConfig(tol=1e-12))
        assert 1 <= len(updates) <= 3


def _cooling():
    """L = v^2/2 - q^2/2 - T(q) S with friction -0.1 v on float points, where
    the temperature T is 1 below q = 0.5 and 0 from there on: the entropy
    update of the first triple whose midpoint reaches 0.5 divides by zero."""
    T = lambda q: 1.0 if q < 0.5 else 0.0
    return LagrangianThermoSystem(
        n=1, L=lambda q, v, S: 0.5 * v * v - 0.5 * q * q - T(q) * S,
        dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v, dLdS=lambda q, v, S: -T(q),
        Ffr=lambda q, v, S: -0.1 * v, float_points=True)


def _cooling_pair():
    """`_cooling` in two dimensions on points of two floats, with the five
    fields of its Newton matrix supplied: the temperature is 1 below q_0 =
    0.5 and 0 from there on."""
    T = lambda q: 1.0 if q[0] < 0.5 else 0.0
    neg = lambda x: (-x[0], -x[1]) if type(x) is tuple else -x
    eye, zeros = np.eye(2), np.zeros((2, 2))
    return LagrangianThermoSystem(
        n=2, L=lambda q, v, S: 0.5 * pair(v, v) - 0.5 * pair(q, q) - T(q) * S,
        dLdq=lambda q, v, S: neg(q), dLdv=lambda q, v, S: v, dLdS=lambda q, v, S: -T(q),
        Ffr=lambda q, v, S: (-0.1 * v[0], -0.1 * v[1]) if type(v) is tuple else -0.1 * v,
        d2Ldq2=_constant(-eye), d2Ldqdv=_constant(zeros), d2Ldv2=_constant(eye),
        dFfrdq=_constant(zeros), dFfrdv=_constant(-0.1 * eye), float_points=True)


def test_zero_temperature_at_two_floats_is_temperature_degenerate():
    # the rest of a pass at a point of two floats divides by a vanishing
    # D_S Ld as at an array point: TemperatureDegenerateError, and the path
    # fails at the same step on either kind of point
    sys = _cooling_pair()
    d = midpoint_discretize(sys, 0.01)
    arrays = midpoint_discretize(dataclasses.replace(sys, float_points=False), 0.01)
    assert type(_point(d, np.zeros(2))) is tuple
    assert type(_point(arrays, np.zeros(2))) is np.ndarray
    for q0, q1 in (((0.6, 0.0), (0.61, 0.0)), (np.array([0.6, 0.0]), np.array([0.61, 0.0]))):
        _, rest, args = d.triple_pass(q0, q1, 0.0)
        with pytest.raises(TemperatureDegenerateError):
            rest(*args)
    steps = []
    for system in (d, arrays):
        with pytest.raises(TemperatureDegenerateError) as failure:
            integrate(system, [0.0, 0.0], [0.01, 0.0], 0.0, 1000, NewtonConfig(tol=1e-12))
        steps.append(failure.value.step_index)
    assert steps[0] == steps[1] > 1


#: (system, h, Newton tolerance) of a path from (0, 0.01, 0) that fails at a
#: warm step: a Newton stop above tol (a FLOAT_FAILURES cell), and a vanishing
#: temperature in an entropy update
WARM_FAILURES = {
    ConvergenceError: (OSC.lagrangian, 0.001, default_newton_tol("oscillator", 0.001)),
    TemperatureDegenerateError: (_cooling(), 0.01, 1e-12),
}


@pytest.mark.parametrize("kind", list(WARM_FAILURES), ids=lambda kind: kind.__name__)
def test_warm_failure_reports_its_step_and_triple(kind):
    # the failing step k >= 2 took its target and its entropy update from the
    # pass carried from the root of step k - 1: it fails as the cold step
    # `discrete_flow` does on triple k of the cold path, and names that
    # step and that triple, bit for bit
    sys, h, tol = WARM_FAILURES[kind]
    _assert_located_as_cold(kind, midpoint_discretize(sys, h), NewtonConfig(tol=tol))


def _dividing_pass(d):
    """The triple pass of ``d`` with a hand-written rest whose entropy
    increment divides a float by a D_S Ld of 1 below q1 = 0.05 and 0 from
    there on."""
    def triple_pass(q0, q1, S0):
        pi, rest, args = d.triple_pass(q0, q1, S0)
        dsl = 1.0 if q1 < 0.05 else 0.0
        return pi, lambda *a: (rest(*a)[0], (q1 - q0) / dsl), args
    return triple_pass


def test_carried_zero_division_reports_its_step_and_triple():
    # the ZeroDivisionError of a carried rest is a TemperatureDegenerateError
    # located at its step, as the cold step raises it
    d = midpoint_discretize(OSC.lagrangian, 0.01)
    _assert_located_as_cold(TemperatureDegenerateError,
                            dataclasses.replace(d, triple_pass=_dividing_pass(d)),
                            NewtonConfig(tol=1e-12))


def _assert_located_as_cold(kind, d, cfg):
    """The path from (0, 0.01, 0) fails at a warm step k with ``kind``, as
    `discrete_flow` fails on triple k of the cold path, and names that step
    and that triple, bit for bit."""
    t, k = DiscreteTriple([0.0], [0.01], 0.0), 1
    while True:
        try:
            image = discrete_flow(d, t, cfg)
        except kind as exc:
            cold = exc
            break
        t, k = image, k + 1
    assert k >= 2
    with pytest.raises(kind) as err:
        integrate(d, [0.0], [0.01], 0.0, k + 10, cfg)
    assert str(err.value) == str(cold)
    assert err.value.step_index == k
    assert _triple_bytes(err.value.triple) == _triple_bytes(t)


def _triple_bytes(t):
    return t.q0.tobytes() + t.q1.tobytes() + np.float64(t.S0).tobytes()


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
        # integrate carries each triple's pass into the next step; the cold
        # steps of discrete_flow give the same bytes
        d, start, cfg = _catalog_start(name, h)
        assert _run(d, start, 200, cfg) == _cold_path(d, start, 200, cfg)

    @pytest.mark.parametrize("name,h", [("oscillator", 0.1), ("ideal-gas", 0.01)])
    def test_array_kernel_is_repeated_discrete_flow(self, name, h):
        # without float points the midpoint pass steps on length-1 arrays,
        # carried the same way
        _, start, cfg = _catalog_start(name, h)
        d = midpoint_discretize(dataclasses.replace(get_system(name).lagrangian,
                                                    float_points=False), h)
        assert not getattr(d.triple_pass, "generic", False)
        assert _run(d, start, 200, cfg) == _cold_path(d, start, 200, cfg)

    @pytest.mark.parametrize("name,h", CATALOG_CELLS)
    def test_generic_kernel_matches_fused(self, name, h):
        # without the midpoint pass and Newton matrix the system derives the
        # generic ones from its slot derivatives
        d, (q0, q1, S0), cfg = _catalog_start(name, h)
        generic = dataclasses.replace(d, pi_minus_dq1=None, triple_pass=None)
        assert generic.pi_minus is not None and generic.pi_minus is not d.pi_minus
        assert getattr(generic.triple_pass, "generic", False)
        a = integrate(d, q0, q1, S0, 300, cfg)
        b = integrate(generic, q0, q1, S0, 300, cfg)
        np.testing.assert_array_equal(a.qs, b.qs)
        np.testing.assert_array_equal(a.Ss, b.Ss)

    def test_derived_kernel_follows_replaced_pass(self):
        # pi_minus, pi_plus and the entropy increment are read off the final
        # triple pass, so a copy with another pass has their values
        d = midpoint_discretize(GAS.lagrangian, 0.01)

        def doubled(q0, q1, S0):
            pi, rest, args = d.triple_pass(q0, q1, S0)
            return 2.0 * pi, lambda *a: tuple(2.0 * x for x in rest(*a)), args

        e = dataclasses.replace(d, triple_pass=doubled)
        for t in ((1.0, 1.25, 10.0), (np.array([1.0]), np.array([1.25]), 10.0)):
            for attr in ("pi_minus", "pi_plus", "entropy_increment"):
                assert getattr(e, attr)(*t) == 2.0 * getattr(d, attr)(*t), attr

    def test_derived_kernel_follows_replaced_fields(self):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        generic = dataclasses.replace(d, triple_pass=None)
        doubled = dataclasses.replace(generic, D1Ld=lambda *a: 2.0 * d.D1Ld(*a))
        t = (np.array([0.1]), np.array([0.2]), 0.0)
        np.testing.assert_allclose(doubled.pi_minus(*t) + 0.5 * d.ffr_minus(*t),
                                   2.0 * (generic.pi_minus(*t) + 0.5 * d.ffr_minus(*t)),
                                   rtol=1e-15)


def _cold_path(d, start, N, cfg):
    """The path of N - 1 cold `discrete_flow` steps from ``start`` = (q0, q1,
    S0) and the entropy update after them, as the bytes `_run` gives."""
    t = DiscreteTriple(*start)
    qs, Ss = [t.q0, t.q1], [t.S0]
    for _ in range(1, N):
        t = discrete_flow(d, t, cfg)
        qs.append(t.q1)
        Ss.append(t.S0)
    Ss.append(entropy_update(d, t))
    return np.array(qs).tobytes() + np.array(Ss).tobytes()


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


FLOAT_CELLS = [(name, h, start)
               for name in ("oscillator", "ideal-gas", "van-der-waals", "two-pistons")
               for h in (0.3, 0.1, 0.01, 0.001)
               for start in (("default", "q1=0.01") if name == "oscillator" else ("default",))]

#: the cells that fail at the parent's array path, and how
FLOAT_FAILURES = {
    ("ideal-gas", 0.3, "default"): (ConvergenceError, 2, "9.546e+113"),
    ("van-der-waals", 0.3, "default"): (ConvergenceError, 2, "1.189e+162"),
    ("oscillator", 0.001, "q1=0.01"): (ConvergenceError, 106, "1.110e-10"),
}


#: seeded Taylor starts of two-pistons, each drawn once
TWO_PISTON_STARTS = [(q0.tolist(), v0.tolist(), float(S0)) for q0, v0, S0 in (
    (rng.uniform(0.5, 1.5, 2), rng.uniform(-1.0, 1.0, 2), rng.uniform(0.0, 2.0))
    for rng in [np.random.default_rng(31)] for _ in range(5))]


class TestFloatPoints:
    """A catalog system steps on floats, bit for bit the arrays of the same
    system declared without float points: length-1 arrays at n = 1, and
    two-pistons on points of two floats."""

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

    @pytest.mark.parametrize("name,h", [(name, h)
                                        for name in ("oscillator", "ideal-gas", "van-der-waals")
                                        for h in (0.1, 0.01)])
    def test_flow_on_floats_is_length_1_array_step(self, name, h):
        # discrete_flow steps on floats where the kernel is marked, on
        # length-1 arrays otherwise; the step on length-1 arrays must give
        # the same bits, with or without float points declared
        rng = np.random.default_rng(11)
        triples = []
        for _ in range(20):
            if name == "oscillator":
                q0, q1, S0 = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)
            else:
                q0 = rng.uniform(0.95, 1.05)
                q1, S0 = q0 + rng.uniform(-0.01, 0.01), 10.0 + rng.uniform(-0.1, 0.1)
            triples.append(DiscreteTriple([q0], [q1], S0))
        cfg = NewtonConfig(tol=1e-10)
        lag = get_system(name).lagrangian
        for sys in (lag, dataclasses.replace(lag, float_points=False)):
            d = midpoint_discretize(sys, h)
            for t in triples:
                q2, S1 = solve_step(d, t.q0, t.q1, t.S0, cfg)
                assert type(q2) is np.ndarray
                image = discrete_flow(d, t, cfg).as_array()
                assert image.tobytes() == np.concatenate([t.q1, q2, [S1]]).tobytes()

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

    @pytest.mark.parametrize("h", [0.1, 0.01, 1e-3])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5])
    def test_two_pistons_float_path_is_array_path(self, gamma, h):
        # from the default start and five seeded Taylor starts
        entry = get_system("two-pistons", gamma=gamma)
        cfg = ExperimentConfig(system="two-pistons", h=h, t_final=h)
        starts = [initialize(entry, cfg.q0, cfg.v0, cfg.S0, h, cfg.init_mode)]
        starts += [initialize(entry, *start, h, "taylor") for start in TWO_PISTON_STARTS]
        newton = NewtonConfig(tol=default_newton_tol("two-pistons", h))
        arrays = midpoint_discretize(dataclasses.replace(entry.lagrangian, float_points=False), h)
        on_floats = midpoint_discretize(entry.lagrangian, h)
        for data in starts:
            path = _run(on_floats, data, 2000, newton)
            assert isinstance(path, bytes) and path == _run(arrays, data, 2000, newton), (
                "the pair step's update reproduces OpenBLAS's SkylakeX solve and the array "
                "step's calls this host's: see tests/test_platform.py for the kernel that differs")

    @pytest.mark.parametrize("h,start,tol,failure", [
        (0.1, ([0.05, 0.05], [0.0, -0.02], 1.0), 1e-10,
         (DomainError, 1, "total volume x + y must stay positive, got -0.08")),
        (0.01, ([1.0, 1.0], [1.002, 0.997], 1.0), 1e-300,
         (ConvergenceError, 1, "Newton residual 5.720e-13 above tol 1.0e-300 after 3 iterations")),
        (0.01, ([1.0, 1.0], [1.002, 0.997], 705.0), 1e-9,
         (ConvergenceError, 1, "singular Newton Jacobian: Singular matrix")),
        (0.01, ([1.0, np.nan], [1.0, 1.0], 1.0), 1e-9,
         (ConvergenceError, 1, "Newton residual nan above tol 1.0e-09 after 0 iterations")),
        (0.01, ([1e-300, 1e-300], [1e-300, 1.1e-300], 1.0), 1e-9,
         (OverflowError, 1, "(34, 'Numerical result out of range')")),
    ], ids=["outside-the-domain", "above-tol", "singular", "nan-start", "overflow"])
    def test_two_pistons_float_failure_is_array_failure(self, h, start, tol, failure):
        lag = get_system("two-pistons").lagrangian
        runs = []
        for sys in (lag, dataclasses.replace(lag, float_points=False)):
            with pytest.raises(failure[0]) as err:
                integrate(midpoint_discretize(sys, h), *start, 2000, NewtonConfig(tol=tol))
            t = err.value.triple
            runs.append((err.value.step_index, str(err.value),
                         t.q0.tobytes() + t.q1.tobytes() + np.float64(t.S0).tobytes()))
        assert runs[0] == runs[1] and runs[0][:2] == failure[1:]

    def test_two_pistons_flow_on_floats_is_array_step(self):
        # discrete_flow hands the kernel points of two floats; the flows keep
        # the bits of the same system stepped on arrays
        rng = np.random.default_rng(12)
        triples = [DiscreteTriple(q0, q0 + rng.uniform(-0.01, 0.01, 2), rng.uniform(0.9, 1.1))
                   for q0 in rng.uniform(0.95, 1.05, (20, 2))]
        cfg = NewtonConfig(tol=1e-10)
        lag = get_system("two-pistons").lagrangian
        arrays = midpoint_discretize(dataclasses.replace(lag, float_points=False), 0.01)
        d = midpoint_discretize(lag, 0.01)
        seen = set()
        pass_ = d.triple_pass

        def traced(q0, q1, S0):
            seen.add((type(q0), type(q1)))
            return pass_(q0, q1, S0)
        swapped = dataclasses.replace(d, triple_pass=traced)
        for t in triples:
            image = discrete_flow(swapped, t, cfg).as_array()
            assert image.tobytes() == discrete_flow(arrays, t, cfg).as_array().tobytes()
        assert seen == {(tuple, tuple)}

    @pytest.mark.parametrize("marked,kind", [(False, np.ndarray), (True, float)],
                             ids=["unmarked", "marked"])
    def test_kernel_mark_chooses_the_point(self, marked, kind):
        # a hand-written n = 1 pass and Newton matrix, the ideal gas's midpoint
        # kernel behind wrappers that refuse any other kind of point: in a copy
        # declared without float points they are handed arrays, with them
        # floats, and integrate, discrete_flow and pullback_check keep the
        # bytes of the catalog kernel
        h = 0.01
        d = midpoint_discretize(GAS.lagrangian, h)

        def refusing(fn):
            def wrapper(q0, q1, S0):
                if not (type(q0) is kind and type(q1) is kind):
                    raise AssertionError(f"handed {type(q0).__name__} points")
                return fn(q0, q1, S0)
            return wrapper
        by_hand = dataclasses.replace(d, triple_pass=refusing(d.triple_pass),
                                      pi_minus_dq1=refusing(d.pi_minus_dq1), float_points=marked)
        cfg = ExperimentConfig(system="ideal-gas", h=h, t_final=h)
        start = initialize(GAS, cfg.q0, cfg.v0, cfg.S0, h, cfg.init_mode)
        newton = NewtonConfig(tol=default_newton_tol("ideal-gas", h))
        path = _run(d, start, 2000, newton)
        assert isinstance(path, bytes) and _run(by_hand, start, 2000, newton) == path
        rng = np.random.default_rng(32)
        for q0, dq, S0 in zip(rng.uniform(0.95, 1.05, 5), rng.uniform(-0.01, 0.01, 5),
                              rng.uniform(9.9, 10.1, 5)):
            t = DiscreteTriple([q0], [q0 + dq], S0)
            flow = discrete_flow(d, t, newton).as_array()
            assert discrete_flow(by_hand, t, newton).as_array().tobytes() == flow.tobytes()
            defect = pullback_check(d, t, newton)
            assert pullback_check(by_hand, t, newton).hex() == defect.hex()

    def test_derived_newton_matrix_steps_on_arrays(self):
        # a derived field of the Newton matrix takes arrays only: two-pistons
        # with its stiffness left to central differences steps on arrays,
        # with or without float points declared
        lag = dataclasses.replace(get_system("two-pistons").lagrangian, d2Ldq2=None)
        runs = []
        for sys in (lag, dataclasses.replace(lag, float_points=False)):
            d = midpoint_discretize(sys, 0.01)
            assert type(_point(d, np.array([1.0, 1.0]))) is np.ndarray
            runs.append(_run(d, ([1.0, 1.0], [1.002, 0.997], 1.0), 200, NewtonConfig(tol=1e-9)))
        assert isinstance(runs[0], bytes) and runs[0] == runs[1]

    def test_default_friction_takes_float_points(self):
        # a system that declares float points and leaves Ffr out: its zero
        # covector is a float at a float point, so the path and a momentum
        # map on floats are those on arrays
        lag = LagrangianThermoSystem(
            n=1, L=lambda q, v, S: 0.5 * v * v - 0.5 * q * q - S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v, dLdS=lambda q, v, S: -1.0,
            float_points=True)
        discretized = [midpoint_discretize(sys, 0.1)
                       for sys in (lag, dataclasses.replace(lag, float_points=False))]
        runs = [_run(d, ([0.0], [0.1], 0.0), 50, NewtonConfig()) for d in discretized]
        assert isinstance(runs[0], bytes) and runs[0] == runs[1]
        t = DiscreteTriple([0.3], [0.35], 0.0)
        maps = [momentum_map(d, t, np.ones_like, "minus") for d in discretized]
        assert type(maps[0]) is float and maps[0] == maps[1]

    def test_only_one_dimensional_systems_declare_float_points(self):
        # float points are one or two floats; a system of three dimensions,
        # continuous or discrete, cannot declare them, and a discrete system
        # that derives its pass or its Newton matrix steps on arrays
        lag = get_system("two-pistons").lagrangian
        three = LagrangianThermoSystem(n=3, L=lag.L, dLdq=lag.dLdq, dLdv=lag.dLdv,
                                       dLdS=lag.dLdS, float_points=False)
        with pytest.raises(ValueError, match="one or two dimensions"):
            dataclasses.replace(three, float_points=True)
        d = midpoint_discretize(lag, 0.01)
        with pytest.raises(ValueError, match="one or two dimensions"):
            dataclasses.replace(d, n=3)
        for derived in ("triple_pass", "pi_minus_dq1"):
            copy = dataclasses.replace(d, **{derived: None})
            assert not copy.float_points and type(_point(copy, np.ones(2))) is np.ndarray

    def test_kernel_takes_float_point(self):
        # every kernel callable at a float point (the ideal gas: the midpoint
        # pass on floats, marked or not) or at a point of two floats
        # (two-pistons, with and without friction), bit for bit its value on
        # arrays; bytes tell -0.0 from +0.0
        cases = []
        for entry in (GAS, get_system("two-pistons", gamma=0.0), get_system("two-pistons")):
            d = midpoint_discretize(entry.lagrangian, 0.01)
            arrays = midpoint_discretize(
                dataclasses.replace(entry.lagrangian, float_points=False), 0.01)
            if entry.n == 1:
                vectors = (np.array([1.0]), np.array([1.25]), 10.0)
                cases += [(system, (1.0, 1.25, 10.0), system, vectors) for system in (d, arrays)]
            else:
                vectors = (np.array([1.0, 1.1]), np.array([1.25, 0.95]), 1.0)
                cases.append((d, ((1.0, 1.1), (1.25, 0.95), 1.0), arrays, vectors))
        for system, point, reference, vectors in cases:
            for attr in ("pi_minus", "pi_plus", "pi_minus_dq1", "entropy_increment"):
                value = getattr(system, attr)(*point)
                if type(value) is tuple:
                    assert set(map(type, value)) == {float}
                else:
                    assert type(value) in (float, np.float64)
                expected = getattr(reference, attr)(*vectors)
                assert np.array(value).tobytes() == np.array(expected).tobytes(), (attr, point)

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "two-pistons"])
    def test_swapped_kernel_is_called_on_floats(self, name):
        # a profiler swaps each kernel callable, through dataclasses.replace,
        # for a plain wrapper: the wrapper is kept as it is, called with float
        # points (tuples of two floats at n = 2), and the path keeps its bytes
        entry = get_system(name)
        cfg = ExperimentConfig(system=name, h=0.01, t_final=0.01)
        data = initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
        d = midpoint_discretize(entry.lagrangian, cfg.h)
        seen = set()

        def traced(fn):
            def wrapper(q0, q1, S0):
                seen.add((type(q0), type(q1)))
                return fn(q0, q1, S0)
            return wrapper

        wrappers = {attr: traced(getattr(d, attr)) for attr in
                    ("pi_minus", "pi_plus", "pi_minus_dq1", "entropy_increment",
                     "triple_pass")}
        swapped = dataclasses.replace(d, **wrappers)
        for attr, wrapper in wrappers.items():
            assert getattr(swapped, attr) is wrapper
        newton = NewtonConfig(tol=default_newton_tol(name, cfg.h))
        on_wrappers = _run(swapped, data, 500, newton)
        assert isinstance(on_wrappers, bytes) and on_wrappers == _run(d, data, 500, newton)
        point = tuple if entry.n == 2 else float
        assert seen == {(point, point)}

    @pytest.mark.parametrize("name,h", CATALOG_CELLS)
    def test_plainly_wrapped_system_runs_its_own_kernel(self, name, h, monkeypatch):
        # a profiler wraps every callable field of a Lagrangian and of its
        # discretization, through dataclasses.replace, in a plain wrapper that
        # carries no attribute: the copies keep their declarations, so the
        # kernel is handed float points, a warm gas step forms e^S once, and
        # the 500-step path keeps its bytes
        d, start, cfg = _catalog_start(name, h)
        seen = set()

        def plain(fn):
            def wrapper(*args):
                seen.add(type(args[0]))
                return fn(*args)
            return wrapper

        def wrapped(obj):
            return dataclasses.replace(obj, **{
                f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if callable(getattr(obj, f.name))})

        traced = wrapped(midpoint_discretize(wrapped(get_system(name).lagrangian), h))
        path = _run(d, start, 500, cfg)
        assert isinstance(path, bytes) and _run(traced, start, 500, cfg) == path
        assert seen == {float if d.n == 1 else tuple}
        counting = _CountingExp()
        monkeypatch.setattr(systems, "np", counting)
        calls = []
        for N in (12, 2):
            counting.calls = 0
            integrate(traced, *start, N, cfg)
            calls.append(counting.calls)
        assert (calls[0] - calls[1]) / 10 == (name != "oscillator")

    def test_warm_oscillator_step_call_count(self):
        # the Python calls of one cold n = 1 step with a warm interpreter,
        # counted deterministically: a cast creeping back into the kernel
        # raises the count
        cfg = ExperimentConfig(h=0.01, t_final=0.01)
        q0, q1, S0 = initialize(OSC, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
        d = midpoint_discretize(OSC.lagrangian, cfg.h)
        args = (d, float(q0[0]), float(q1[0]), S0, NewtonConfig(tol=cfg.newton_tol))
        solve_step(*args)
        calls = _python_calls(solve_step, *args)
        assert len(calls) == 21, calls

    @pytest.mark.parametrize("name,count", [
        pytest.param("oscillator", 15, id="oscillator"),
        pytest.param("ideal-gas", 26.4, id="ideal-gas"),
        pytest.param("van-der-waals", 25.7, id="van-der-waals"),
        pytest.param("two-pistons", 32, id="two-pistons"),
    ])
    def test_integrate_step_call_count(self, name, count):
        # the Python calls of a step of integrate, which carries each pass:
        # those of a 12-step path less those of a 2-step one, over 10 steps
        entry = get_system(name)
        cfg = ExperimentConfig(system=name, h=0.01, t_final=0.01)
        q0, q1, S0 = initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
        d = midpoint_discretize(entry.lagrangian, cfg.h)
        newton = NewtonConfig(tol=cfg.newton_tol)
        calls = [len(_python_calls(integrate, d, q0, q1, S0, N, newton)) for N in (12, 2)]
        assert (calls[0] - calls[1]) / 10 == count

    @pytest.mark.parametrize("name,y,count", [
        pytest.param("oscillator", [1.0, 0.2, 0.5], 9, id="oscillator"),
        pytest.param("ideal-gas", [1.0, 0.0, 10.0], 10, id="ideal-gas"),
        pytest.param("van-der-waals", [1.0, 0.0, 10.0], 10, id="van-der-waals"),
        pytest.param("two-pistons", [1.0, 1.1, 0.2, -0.3, 1.0], 13, id="two-pistons"),
    ])
    def test_rhs_call_count(self, name, y, count):
        # the Python calls of one right-hand-side evaluation of the RK45
        # reference, warm: a one-dimensional system evaluated on arrays again
        # raises the count
        fun = first_order_rhs(get_system(name).lagrangian)
        y = np.array(y)
        fun(0.0, y)
        calls = _python_calls(fun, 0.0, y)
        assert len(calls) == count, calls

    @pytest.mark.parametrize("name,start,count", [
        pytest.param("oscillator", ([1.0], [0.2], 0.5), 16, id="oscillator"),
        pytest.param("ideal-gas", ([1.0], [0.2], 0.5), 18, id="ideal-gas"),
        pytest.param("van-der-waals", ([1.0], [0.0], 8.0), 18, id="van-der-waals"),
        pytest.param("two-pistons", ([1.0, 1.1], [0.2, -0.3], 0.5), 23, id="two-pistons"),
    ])
    def test_rk2_step_call_count(self, name, start, count):
        # the Python calls of an RK2 step, from the starts of
        # tests/test_bench.py::TestRk2::test_float_path_is_array_path: those of
        # a 12-step path less those of a 2-step one, over 10 steps; a float
        # step taken on arrays again, or a frame added to it, raises the count
        lag, state0 = get_system(name).lagrangian, ThermoState(*start)
        rk2_integrate(lag, state0, 0.01, 12)
        calls = [len(_python_calls(rk2_integrate, lag, state0, 0.01, N)) for N in (12, 2)]
        assert (calls[0] - calls[1]) / 10 == count

    @pytest.mark.parametrize("name,triple,counts", [
        pytest.param("ideal-gas", ([1.0], [1.01], 10.0), (13, 18), id="ideal-gas"),
        pytest.param("two-pistons", ([1.0, 1.1], [1.01, 1.09], 1.0), (16, 14),
                     id="two-pistons"),
    ])
    def test_one_triple_diagnostic_call_count(self, name, triple, counts):
        # the Python calls of one warm momentum_map at one triple, on float
        # points, and one warm omega_embedded, on arrays: a momentum map that
        # hands its callables arrays again, or a frame added to either,
        # changes the counts
        d = midpoint_discretize(get_system(name).lagrangian, 0.01)
        t = DiscreteTriple(*triple)
        ones = np.ones(d.n)
        for fn, args, count in ((momentum_map, (d, t, lambda q: ones, "plus"), counts[0]),
                                (omega_embedded, (d, t, "plus"), counts[1])):
            fn(*args)
            calls = _python_calls(fn, *args)
            assert len(calls) == count, calls

    @pytest.mark.parametrize("name", ["ideal-gas", "van-der-waals", "two-pistons"])
    def test_integrate_step_forms_e_to_the_S_once(self, name, monkeypatch):
        # every callable of a step reads the same S_k, bound once: the np.exp
        # calls of a 12-step path less those of a 2-step one
        entry = get_system(name)
        cfg = ExperimentConfig(system=name, h=0.01, t_final=0.01)
        q0, q1, S0 = initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
        d = midpoint_discretize(entry.lagrangian, cfg.h)
        newton = NewtonConfig(tol=cfg.newton_tol)
        counting = _CountingExp()
        monkeypatch.setattr(systems, "np", counting)
        calls = []
        for N in (12, 2):
            counting.calls = 0
            integrate(d, q0, q1, S0, N, newton)
            calls.append(counting.calls)
        assert (calls[0] - calls[1]) / 10 == 1

    def test_a_held_entropy_keeps_its_binding(self, monkeypatch):
        # without friction two-pistons holds S, so a step after the first
        # forms no e^S: a 12-step path makes as many np.exp calls as a 2-step
        # one, with the bits of the path whose fields form e^S at every call
        free = get_system("two-pistons", gamma=0.0)
        q0, q1, S0 = initialize(free, [1.0, 1.1], [0.2, -0.3], 1.0, 0.01, "taylor")
        d = midpoint_discretize(free.lagrangian, 0.01)
        newton = NewtonConfig(tol=default_newton_tol("two-pistons", 0.01))

        want = integrate(dataclasses.replace(d, bind_S=None), q0, q1, S0, 12, newton)
        counting = _CountingExp()
        monkeypatch.setattr(systems, "np", counting)
        calls = []
        for N in (12, 2):
            counting.calls = 0
            path = integrate(d, q0, q1, S0, N, newton)
            calls.append(counting.calls)
        assert calls[0] == calls[1] == 1
        assert np.all(path.Ss == S0)
        got = integrate(d, q0, q1, S0, 12, newton)
        assert got.qs.tobytes() == want.qs.tobytes() and got.Ss.tobytes() == want.Ss.tobytes()

    @pytest.mark.parametrize("name,start", [
        pytest.param("ideal-gas", ([1.0], [0.2], 0.5), id="ideal-gas"),
        pytest.param("van-der-waals", ([1.0], [0.0], 8.0), id="van-der-waals"),
        pytest.param("two-pistons", ([1.0, 1.1], [0.2, -0.3], 0.5), id="two-pistons"),
    ])
    def test_e_to_the_S_once_per_entropy_off_the_path(self, name, start, monkeypatch):
        # the np.exp calls of a cold solve_step at float points, one for its
        # cold pass at S_prev and one for its Newton loop at S_curr; of an RK2
        # step, one for each of its two stage points; and of one evaluation of
        # the RK45 reference's right-hand side, one
        entry = get_system(name)
        d = midpoint_discretize(entry.lagrangian, 0.01)
        q, v, S = start
        counting = _CountingExp()
        monkeypatch.setattr(systems, "np", counting)

        def exps(fn, *args):
            counting.calls = 0
            fn(*args)
            return counting.calls

        point = _point(d, np.array(q))
        x = point + 0.01 if d.n == 1 else (point[0] + 0.01, point[1] - 0.01)
        assert exps(solve_step, d, point, x, S, NewtonConfig(tol=1e-10)) == 2
        state0 = ThermoState(*start)
        steps = [exps(rk2_integrate, entry.lagrangian, state0, 0.01, N) for N in (12, 2)]
        assert (steps[0] - steps[1]) / 10 == 2
        y = np.array([*q, *v, S])
        assert exps(first_order_rhs(entry.lagrangian), 0.0, y) == 1

    def test_pair_keeps_sign_of_zero(self):
        for a, b in ((-0.0, 1.0), (0.0, -1.0), (-0.0, -0.0), (-2.5, 0.5)):
            dot = float(np.array([a]) @ np.array([b]))
            assert pair(a, b).hex() == dot.hex()

    # None: the central-difference Jacobian of the residual
    @pytest.mark.parametrize("jacobian", [None, lambda x: 3 * x ** 2 - 2])
    def test_newton_float_is_length_1_array(self, jacobian):
        # the float loop of a step and `_newton` on length-1 arrays give the
        # same root, bit for bit, pass for pass
        cubic = lambda x: x ** 3 - 2 * x - 5.0
        cubic_array = lambda x: np.array([cubic(x[0])])
        if jacobian is None:
            jacobian, on_arrays = partial(fd_gradient, cubic), partial(fd_gradient, cubic_array)
        else:
            on_arrays = lambda x: np.array([[float(jacobian(x[0]))]])
        seen = []

        def recorded(x):
            seen.append(x)
            return cubic(x)

        seen_arrays = []

        def recorded_array(x):
            seen_arrays.append(x)
            return cubic_array(x)

        # the Newton start 2 q1 - q0 is 2.5
        x, _ = solve_step(_scripted(recorded, jacobian), 0.0, 1.25, 0.0, None)
        y, iterations = _newton_on(recorded_array, on_arrays, np.array([2.5]))
        assert type(x) is float and x.hex() == float(y[0]).hex()
        assert len(seen) == len(seen_arrays) == iterations + 1
        assert [x.hex() for x in seen] == [float(y[0]).hex() for y in seen_arrays]

    def test_newton_float_errors(self):
        # every failing stop of the float loop, through solve_step and
        # through integrate, which names step 1 and its triple
        nan = float("nan")
        failures = [
            (lambda x: x * x, lambda x: 0.0, "singular Newton Jacobian: zero Jacobian"),
            # no root and no stall (see test_max_iter_exceeded)
            (lambda x: x * x + 1.0, lambda x: 2.0 * x, "above tol 1.0e-12 after 50 iterations"),
            (lambda x: 1e300, lambda x: 1e-300, "non-finite Newton update"),
            (lambda x: 1.0, lambda x: nan, "non-finite Newton update"),
            # the residual floor 1e-10 is above tol: the second update, 1e-22,
            # is at roundoff level and stops the loop
            (lambda x: 1.0 if x == 0.5 else 1e-10, lambda x: 1.0 if x == 0.5 else 1e12,
             "Newton residual 1.000e-10 above tol 1.0e-12 after 2 iterations"),
            (lambda x: nan, lambda x: 1.0,
             "Newton residual nan above tol 1.0e-12 after 0 iterations"),
            (lambda x: 1.0 if x == 0.5 else nan, lambda x: 1.0,
             "Newton residual nan above tol 1.0e-12 after 1 iterations"),
        ]
        cfg = NewtonConfig(tol=1e-12)
        for residual, jacobian, message in failures:
            # the Newton start 2 q1 - q0 is 0.5
            with pytest.raises(ConvergenceError, match=message):
                solve_step(_scripted(residual, jacobian), 0.0, 0.25, 0.0, cfg)
            with pytest.raises(ConvergenceError, match=message) as err:
                integrate(_scripted(residual, jacobian), [0.0], [0.25], 0.0, 3, cfg)
            assert err.value.step_index == 1
            _assert_triple(err.value.triple, [0.0], [0.25], 0.0)

    @pytest.mark.parametrize("q1,tol,message", [
        (0.01, 1e-300, "Newton residual 1.421e-14 above tol 1.0e-300 after 2 iterations"),
        (np.nan, 1e-12, "Newton residual nan above tol 1.0e-12 after 0 iterations"),
    ], ids=["above-tol", "nan-start"])
    def test_oscillator_float_failures_are_pinned(self, q1, tol, message):
        d = midpoint_discretize(OSC.lagrangian, 0.01)
        with pytest.raises(ConvergenceError) as err:
            integrate(d, [0.0], [q1], 0.0, 10, NewtonConfig(tol=tol))
        assert str(err.value) == message
        assert err.value.step_index == 1
        _assert_triple(err.value.triple, [0.0], [q1], 0.0)


def _scripted(pi_minus, newton_matrix, n=1):
    """A system with a scripted Newton solve, declared to step on float
    points at n = 1, on arrays at n = 2: after the cold pass of the
    first triple, whose target pi_plus and entropy increment are 0, the
    pass of (q, x, S) gives pi_minus(x) and a rest whose target is 0 and
    whose entropy increment is the first entry of x, and the Newton matrix
    there is newton_matrix(x)."""
    cold = True
    zero = 0.0 if n == 1 else np.zeros(n)
    rest = (lambda x: (zero, x)) if n == 1 else (lambda x: (zero, float(x[0])))

    def triple_pass(q0, q1, S0):
        nonlocal cold
        if cold:
            cold = False
            return zero, rest, (zero,)
        return pi_minus(q1), rest, (q1,)

    def unused(q0, q1, S0):
        raise AssertionError("a scripted system steps by its pass and matrix only")

    def matrix(q0, q1, S0):
        return newton_matrix(q1)

    return DiscreteThermoSystem(
        n=n, h=1.0, Ld=unused, D1Ld=unused, D2Ld=unused, DSLd=unused, ffr_minus=unused,
        ffr_plus=unused, triple_pass=triple_pass, pi_minus_dq1=matrix, float_points=n == 1)


class _CountingExp:
    """numpy, with its ``exp`` calls counted."""

    calls = 0

    def exp(self, x):
        self.calls += 1
        return np.exp(x)

    def __getattr__(self, name):
        return getattr(np, name)


def _python_calls(fn, *args):
    """The names of the Python functions that ``fn(*args)`` calls, in order.
    The garbage collector is off meanwhile: a collection would add the calls
    of any gc callback that a loaded library has registered."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    collecting = gc.isenabled()
    gc.disable()
    setprofile(profile)
    try:
        fn(*args)
    finally:
        setprofile(None)
        if collecting:
            gc.enable()
    return calls


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

    @pytest.mark.parametrize("mode", ["exact", "reference", "hold", "taylor"])
    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_step(self, mode, h):
        # checked before any mode runs: the reference did not end on a NaN
        # or infinite h and ran backward on a negative one
        with pytest.raises(ConfigError, match="positive and finite"):
            initialize(OSC, [0.0], [1.0], 0.0, h, mode)
