import dataclasses
import math
import os
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

from thermint import (
    ConfigError,
    ExperimentConfig,
    LagrangianThermoSystem,
    ThermoState,
    convergence_study,
    get_system,
    hamiltonian_estimates,
    integrate,
    midpoint_discretize,
    reference_integrate,
    rk2_integrate,
    run_experiment,
)
from thermint import bench
from thermint.bench import (_CSV_BLOCK_ROWS, default_newton_tol, load_config,
                            write_trajectory_csv)
from thermint.solve import initialize

OSC = get_system("oscillator")


class TestRk2:
    def test_zero_rhs_keeps_state(self):
        still = LagrangianThermoSystem(
            n=1, L=lambda q, v, S: -S,
            dLdq=lambda q, v, S: np.zeros(1), dLdv=lambda q, v, S: np.zeros(1),
            dLdS=lambda q, v, S: -1.0,
            accel=lambda q, v, S: np.zeros(1))
        out = rk2_integrate(still, ThermoState([1.0], [0.0], 2.0), 0.1, 1).state(1)
        np.testing.assert_array_equal(out.q, [1.0])
        assert out.S == 2.0

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_step(self, h):
        # a negative h ran backward, h = 0 stood still, and a NaN or infinite
        # h ran every step before Trajectory rejected the times
        with pytest.raises(ConfigError, match="positive and finite"):
            rk2_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0), h, 5)

    def test_rejects_negative_step_count(self):
        # N = -1 raised IndexError on the empty output
        with pytest.raises(ValueError, match="N must be non-negative"):
            rk2_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0), 0.1, -1)

    def test_third_order_local_error(self):
        # one step on qdot = v, vdot = -q from (1, 0): local error is O(h^3)
        sys = LagrangianThermoSystem(
            n=1, L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - S,
            dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
            dLdS=lambda q, v, S: -1.0,
            accel=lambda q, v, S: -q)
        errs = []
        for h in (0.1, 0.05, 0.025):
            out = rk2_integrate(sys, ThermoState([1.0], [0.0], 0.0), h, 1).state(1)
            # the h^3 defect of one midpoint step sits in the velocity here
            errs.append(np.hypot(out.q[0] - np.cos(h), out.v[0] + np.sin(h)))
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(6.0 <= r <= 10.0 for r in rates)  # ~2^3 per halving

    @pytest.mark.parametrize("h", [0.1, 0.01])
    @pytest.mark.parametrize("name,start", [("oscillator", ([1.0], [0.2], 0.5)),
                                            ("ideal-gas", ([1.0], [0.2], 0.5)),
                                            ("van-der-waals", ([1.0], [0.0], 8.0)),
                                            ("two-pistons", ([1.0, 1.1], [0.2, -0.3], 0.5))])
    def test_float_path_is_array_path(self, name, start, h):
        # a one-dimensional float_points system steps on floats, bit for bit
        # the same system stepped on length-1 arrays, over a path that stays
        # finite (from the gases' default S0 = 10, RK2 at h = 0.1 overflows in
        # four steps); two-pistons steps on arrays either way
        state0 = ThermoState(*start)
        lag = get_system(name).lagrangian
        runs, seen = [], []
        for sys in (lag, dataclasses.replace(lag, float_points=False)):
            accel = sys.accel
            traced = dataclasses.replace(
                sys, accel=lambda q, v, S: seen.append(type(q)) or accel(q, v, S))
            traj = rk2_integrate(traced, state0, h, 10_000)
            assert np.isfinite(traj.qs).all() and np.isfinite(traj.Ss).all()
            runs.append(b"".join(x.tobytes() for x in (traj.qs, traj.vs, traj.Ss)))
            assert set(seen) == {float if sys.float_points and sys.n == 1 else np.ndarray}
            seen.clear()
        assert runs[0] == runs[1]

    def test_float_step_overflow_raises_at_its_step(self):
        # float arithmetic overflows silently; the float path redoes the step
        # that left the float range on arrays, so numpy raises there, as the
        # array path does
        state0 = ThermoState([0.0], [1.0], 0.0)
        lag = OSC.lagrangian
        with np.errstate(over="ignore", invalid="ignore"):
            traj = rk2_integrate(lag, state0, 1000.0, 100)
        finite = np.isfinite(np.column_stack([traj.qs, traj.vs, traj.Ss])).all(axis=1)
        k = int(np.argmin(finite))
        assert k > 1 and finite[:k].all()
        messages = []
        for sys in (lag, dataclasses.replace(lag, float_points=False)):
            with np.errstate(over="raise"):
                rk2_integrate(sys, state0, 1000.0, k - 1)
                with pytest.raises(FloatingPointError, match="overflow") as info:
                    rk2_integrate(sys, state0, 1000.0, k)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_oscillator_frozen_error_value(self):
        sol = OSC.exact_solution([0.0], [1.0], 0.0)
        N = 20000  # t = 200 captures the worst error of the full run
        traj = rk2_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0), 0.01, N)
        err = np.max(np.abs(traj.qs[:, 0] - sol.q(traj.times)))
        assert err == pytest.approx(1.226e-4, rel=0.05)


class TestReference:
    def test_oscillator_against_exact(self):
        sol = OSC.exact_solution([0.0], [1.0], 0.0)
        traj = reference_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0),
                                   100.0, h=0.1)
        assert np.max(np.abs(traj.qs[:, 0] - sol.q(traj.times))) <= 1e-7

    def test_zero_horizon(self):
        with pytest.raises(ConfigError):
            reference_integrate(OSC.lagrangian, ThermoState([0.3], [0.4], 0.5), 0.0, h=0.1)

    def test_frictionless_two_piston_energy(self):
        entry = get_system("two-pistons", gamma=0.0)
        state0 = ThermoState([1.0, 1.0], [0.2, -0.3], 1.0)
        traj = reference_integrate(entry.lagrangian, state0, 20.0, h=0.02)
        H0 = entry.H(state0.q, state0.v, state0.S)
        dev = max(abs(entry.H(traj.qs[k], traj.vs[k], traj.Ss[k]) - H0)
                  for k in range(len(traj)))
        assert dev <= 1e-7

    def test_grid_past_t_final_is_integrated_not_extrapolated(self):
        # t_final / h = 3.5 rounds up to a grid ending at 1.2: its last row is
        # the run integrated to 1.2, bit for bit
        entry = get_system("two-pistons")
        state0 = ThermoState([1.0, 1.0], [0.2, -0.3], 1.0)
        short = reference_integrate(entry.lagrangian, state0, 1.05, h=0.3)
        full = reference_integrate(entry.lagrangian, state0, 1.2, h=0.3)
        assert short.times[-1] == full.times[-1] == 1.2
        for a, b in ((short.qs, full.qs), (short.vs, full.vs), (short.Ss, full.Ss)):
            assert a[-1].tobytes() == b[-1].tobytes()

    @pytest.mark.parametrize("name", ["oscillator", "ideal-gas", "van-der-waals"])
    def test_float_rhs_is_array_rhs(self, name):
        # the RK45 reference of a one-dimensional float_points system runs on
        # a float right-hand side, bit for bit the same system on length-1
        # arrays, from the gas cells' seeded rest starts to t = 25
        lag = get_system(name).lagrangian
        rng = np.random.default_rng(3301)
        for _ in range(2):
            state0 = ThermoState([rng.uniform(0.95, 1.05)], [0.0], rng.uniform(9.9, 10.1))
            runs = []
            for sys in (lag, dataclasses.replace(lag, float_points=False)):
                traj = reference_integrate(sys, state0, 25.0, h=0.01)
                assert np.isfinite(traj.qs).all() and np.isfinite(traj.Ss).all()
                runs.append(b"".join(x.tobytes() for x in (traj.qs, traj.vs, traj.Ss)))
            assert runs[0] == runs[1]

    def test_invalid_tolerances(self):
        # solve_ivp does not end on a NaN or infinite tolerance, and a step of
        # 0, -0.1 or NaN failed as ZeroDivisionError, IndexError or ValueError
        good = dict(t_final=1.0, rtol=1e-10, atol=1e-10, h=0.1)
        for key in good:
            for bad in (0.0, -0.1, np.nan, np.inf):
                with pytest.raises(ConfigError):
                    reference_integrate(OSC.lagrangian, ThermoState([0.0], [1.0], 0.0),
                                        **{**good, key: bad})


@pytest.fixture(scope="module")
def short_run():
    h = 0.01
    d = midpoint_discretize(OSC.lagrangian, h)
    q0, q1, S0 = initialize(OSC, [0.0], [1.0], 0.0, h, "exact")
    path = integrate(d, q0, q1, S0, 2000)
    return d, path


class TestHamiltonianEstimates:

    def test_plus_minus_nearly_identical(self, short_run):
        d, path = short_run
        hp, hm, hv = hamiltonian_estimates(OSC, d, path)
        assert np.max(np.abs(hp - hm)) <= 1e-12

    def test_plus_deviation_magnitude(self, short_run):
        # the h = 0.01 deviation is already saturated on a short window
        d, path = short_run
        hp, _, _ = hamiltonian_estimates(OSC, d, path)
        assert np.max(np.abs(hp - 0.5)) == pytest.approx(8.24e-6, rel=0.05)

    def test_velocity_estimator_is_coarser(self, short_run):
        d, path = short_run
        hp, _, hv = hamiltonian_estimates(OSC, d, path)
        assert np.max(np.abs(hv - 0.5)) >= 10 * np.max(np.abs(hp - 0.5))

    def test_conservative_limit(self):
        # frictionless oscillator: the Legendre estimators stay O(h^2) from
        # H0; the velocity estimator is first order (the published error
        # table decays one decade per decade of h)
        entry = get_system("oscillator", gamma=1e-300)
        for h in (0.1, 0.05):
            d = midpoint_discretize(entry.lagrangian, h)
            q0, q1, S0 = initialize(entry, [0.0], [1.0], 0.0, h, "exact")
            path = integrate(d, q0, q1, S0, int(round(20.0 / h)))
            hp, hm, hv = hamiltonian_estimates(entry, d, path)
            assert np.max(np.abs(hp - 0.5)) <= 2.0 * h ** 2
            assert np.max(np.abs(hm - 0.5)) <= 2.0 * h ** 2
            assert np.max(np.abs(hv - 0.5)) <= 0.5 * h


class TestExperiment:
    def test_oscillator_cell_frozen_errors(self, tmp_path):
        cfg = ExperimentConfig(system="oscillator", h=0.01, t_final=200.0,
                               methods=("variational", "rk2"), out=str(tmp_path))
        report = run_experiment(cfg)
        # worst error over the run occurs before t = 200
        assert report.methods["variational"].max_pos_err == pytest.approx(6.182e-5,
                                                                          rel=0.05)
        assert report.methods["rk2"].max_pos_err == pytest.approx(1.226e-4, rel=0.05)
        assert (tmp_path / "oscillator_variational.csv").exists()
        assert (tmp_path / "oscillator_rk2.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_deterministic_csv_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(system="oscillator", h=0.05, t_final=5.0,
                                   methods=("variational", "rk2"), out=str(out))
            run_experiment(cfg)
        for name in ("oscillator_variational.csv", "oscillator_rk2.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(system="two-pistons", h=0.05, t_final=1.0,
                               methods=("variational",), out=str(tmp_path))
        run_experiment(cfg)
        header = (tmp_path / "two-pistons_variational.csv").read_text().splitlines()[0]
        assert header == "t,q_1,q_2,v_1,v_2,S,H_plus,H_minus,H_vel"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "system,method,h,max_pos_err,max_S_err,max_H_dev"

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="oscillator", h=0.01, t_final=1.0, methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="oscillator", h=0.01, t_final=1.0,
                             methods=("leapfrog",))

    @pytest.mark.parametrize("key", ["q0", "v0", "q1"])
    def test_initial_data_of_wrong_length_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must have 2 value"):
            ExperimentConfig(system="two-pistons", h=0.1, t_final=1.0, **{key: [1.0]})

    def test_horizon_shorter_than_step_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="oscillator", h=0.1, t_final=0.01)

    def test_explicit_second_point(self):
        # q1 given directly: the variational run starts from it verbatim
        cfg = ExperimentConfig(system="oscillator", h=0.1, t_final=1.0,
                               q0=[0.0], q1=[0.099], methods=("variational",))
        np.testing.assert_allclose(cfg.v0, [0.99])
        report = run_experiment(cfg)
        assert report.methods["variational"].max_pos_err < 1.0

    def test_gas_hamiltonian_ordering(self):
        cfg = ExperimentConfig(system="ideal-gas", h=0.01, t_final=5.0,
                               methods=("variational", "rk2"))
        report = run_experiment(cfg)
        var = report.methods["variational"]
        rk2 = report.methods["rk2"]
        assert var.H_dev["p_plus"] < rk2.H_dev["velocity"]

    def test_rk45_reference_integrated_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return reference_integrate(*args, **kwargs)

        monkeypatch.setattr("thermint.bench.reference_integrate", counted)
        cfg = ExperimentConfig(system="ideal-gas", h=0.01, t_final=5,
                               methods=("variational", "reference"))
        report = run_experiment(cfg)
        assert len(calls) == 1
        # the reused trajectory is the error reference itself
        assert report.methods["reference"].max_pos_err == 0.0
        assert report.methods["reference"].max_S_err == 0.0

    def test_trajectory_csv_matches_per_value_format(self, tmp_path):
        # several row blocks, with the values a float formatter special-cases
        m = 2 * _CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(3)
        ts = 0.01 * np.arange(m)
        qs, vs = rng.standard_normal((2, m, 2)) * 10.0 ** rng.integers(-300, 300, (2, m, 2))
        Ss, Hp, Hm, Hv = rng.standard_normal((4, m))
        Ss[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        write_trajectory_csv(tmp_path / "t.csv", ts, qs, vs, Ss, Hp, Hm, Hv)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "t,q_1,q_2,v_1,v_2,S,H_plus,H_minus,H_vel"
        expected = [",".join(format(float(x), ".17g")
                             for x in [ts[k], *qs[k], *vs[k], Ss[k], Hp[k], Hm[k], Hv[k]])
                    for k in range(m)]
        assert lines[1:] == expected


def _below_ten_to(x, k):
    """x < 10^k, exactly."""
    num, den = abs(x).as_integer_ratio()
    return num < den * 10 ** k if k >= 0 else num * 10 ** -k < den


def _carries(x):
    """x rounds to 17 digits as the power of ten above it."""
    digits, exp = format(x, ".16e").split("e")
    return digits.lstrip("-") == "1." + "0" * 16 and _below_ten_to(x, int(exp))


def _powers_of_ten(low, high):
    """Every power of ten from 10^low to 10^high and both neighbours of each."""
    tens = np.array([float(f"1e{k}") for k in range(low, high + 1)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


class TestTrajectoryCsvFormat:
    """The trajectory writer's bytes, formatted in numpy, against
    ``format(x, ".17g")`` joined per row, which is `bench._fmt`."""

    @staticmethod
    def _check(tmp_path, values):
        # rows of t, q_1, v_1, S and the three H columns
        x = np.asarray(values, dtype=float)
        x = np.concatenate([x, np.ones(-x.size % 7)]).reshape(-1, 7)
        write_trajectory_csv(tmp_path / "f.csv", x[:, 0], x[:, 1:2], x[:, 2:3], *x[:, 3:].T)
        got = (tmp_path / "f.csv").read_bytes().decode().split("\n")
        expected = [",".join(format(v, ".17g") for v in row) for row in x.tolist()]
        assert got[0] == "t,q_1,v_1,S,H_plus,H_minus,H_vel" and got[-1] == ""
        bad = [(g, e) for g, e in zip(got[1:-1], expected) if g != e]
        assert len(got) == len(expected) + 2 and not bad, bad[:5]
        return got[1:-1]

    @staticmethod
    def _recording_fmt(monkeypatch):
        """The values the writer hands to `bench._fmt`, its fallback."""
        taken, fmt = [], bench._fmt
        monkeypatch.setattr(bench, "_fmt", lambda x: taken.append(x) or fmt(x))
        return taken

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        x = _powers_of_ten(-320, 308)
        self._check(tmp_path, np.concatenate([x, -x]))

    def test_g_switches_notation(self, tmp_path):
        # %.17g writes 1e-5 with an exponent and 1e-4 without, 1e16 without
        # and 1e17 with; and so both neighbours of each
        switch = np.array([1e-5, 1e-4, 1e16, 1e17])
        x = np.concatenate([switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)])
        rows = self._check(tmp_path, np.concatenate([x, -x]))
        assert rows[0].split(",")[:4] == [
            "1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"]

    def test_rounding_that_carries_into_the_next_power_of_ten(self, tmp_path):
        x = [v for v in _powers_of_ten(-320, 308).tolist() if _carries(v)]
        assert len(x) >= 10
        self._check(tmp_path, x + [-v for v in x])

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_a_last_bit_of_log10_moves_no_byte(self, tmp_path, monkeypatch, direction):
        # log10 picks the power of ten; one it misses by a last bit either way
        # leaves floor(y) outside [10^16, 10^17), or carries, and either way
        # the bytes stay: with log10 rounded down, the writer itself carries
        # the values whose 17 digits round up to a power of ten
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
        taken = self._recording_fmt(monkeypatch)
        rng = np.random.default_rng(37)
        tens = _powers_of_ten(-320, 308)
        self._check(tmp_path, np.concatenate([tens, -tens, rng.standard_normal(5000)
                                              * 10.0 ** rng.uniform(-250, 250, 5000)]))
        carried = [v for v in tens.tolist() if _carries(v) and 1e-200 <= v < 1e200]
        assert len(carried) >= 10
        if direction < 0:
            assert not set(carried) & set(taken)

    def test_exact_ties_round_half_to_even(self, tmp_path):
        # w / 2^j with w odd has j decimals and ends in 5; with 18 significant
        # digits it lies halfway between two 17-digit neighbours
        rng = np.random.default_rng(38)
        ties = []
        for j in range(2, 26):
            low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
            ties += [math.ldexp(int(w) | 1, -j) for w in rng.integers(low, high, 40)]
        digits = [Decimal(v).as_tuple().digits for v in ties]
        halves = [v for v, d in zip(ties, digits) if len(d) == 18 and d[-1] == 5]
        assert len(halves) >= 500
        dyadic = [math.ldexp(int(w), -int(j)) for w, j in zip(
            rng.integers(1, 2 ** 53, 3000), rng.integers(1, 80, 3000))]
        x = np.array(halves + dyadic)
        self._check(tmp_path, x * rng.choice([-1.0, 1.0], x.size))

    def test_integers(self, tmp_path):
        rng = np.random.default_rng(39)
        twos = 2.0 ** np.arange(1024)
        x = np.concatenate([np.arange(-10_000, 10_001), rng.integers(-2 ** 53, 2 ** 53, 5000),
                            twos, twos[:54] - 1, twos[:54] + 1, -twos])
        self._check(tmp_path, x)

    def test_zeros_infinities_nan_subnormals_and_the_table_edges(self, tmp_path):
        rng = np.random.default_rng(40)
        edges = np.array([1e-200, 1e200, 2.2250738585072014e-308, 5e-324])
        near = [edges]
        down = up = edges
        for _ in range(3):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            near += [down, up]
        subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], *near, subnormal])
        rows = self._check(tmp_path, np.concatenate([x, -x]))
        # the range check is on floor(y): one on the rounded digits instead
        # printed 1e-200, which log10 puts at E = -200, as "1e-200"
        assert rows[0].split(",")[6] == "9.9999999999999998e-201"

    def test_seeded_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(41)
        self._check(tmp_path, rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize("h, t_final", [(0.1, 50.0), (0.01, 25.0)])
    def test_oscillator_cells_fall_back_only_at_their_zeros(self, tmp_path, monkeypatch, h,
                                                            t_final):
        # the oscillator cell of tests/test_digest.py, and 2501 rows at h = 0.01
        run_experiment(ExperimentConfig(system="oscillator", h=h, t_final=t_final,
                                        methods=("variational", "rk2", "reference"),
                                        out=str(tmp_path)))
        taken = self._recording_fmt(monkeypatch)
        for method in ("variational", "rk2", "reference"):
            written = (tmp_path / f"oscillator_{method}.csv").read_bytes()
            x = np.array([[float(v) for v in line.split(",")]
                          for line in written.decode().splitlines()[1:]])
            write_trajectory_csv(tmp_path / "again.csv", x[:, 0], x[:, 1:2], x[:, 2:3],
                                 *x[:, 3:].T)
            assert (tmp_path / "again.csv").read_bytes() == written
        assert taken and all(v == 0.0 for v in taken)

    def test_import_builds_no_table(self):
        # the tables cost milliseconds: the first write builds them
        code = ("import sys, thermint.cli; from thermint import bench; "
                "assert bench._csv_tables.cache_info().currsize == 0; "
                "assert 'fractions' not in sys.modules")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestConvergence:
    def test_single_step_size_rejected(self):
        with pytest.raises(ConfigError):
            convergence_study("oscillator", [0.01])

    def test_second_order_on_short_horizon(self):
        slope, errors = convergence_study("oscillator", [0.1, 0.05, 0.025],
                                          t_final=20.0)
        assert 1.9 <= slope <= 2.1
        assert all(e > 0 for e in errors)

    def test_rk2_baseline_is_second_order(self):
        slope, _ = convergence_study("oscillator", [0.1, 0.05, 0.025],
                                     t_final=20.0, method="rk2")
        assert 1.9 <= slope <= 2.1


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# oscillator cell\n"
            "system = oscillator\n"
            "h = 0.05\n"
            "t-final = 2.0\n"
            "methods = variational, rk2\n")
        raw = load_config(cfgfile)
        assert raw == {"system": "oscillator", "h": "0.05", "t_final": "2.0",
                       "methods": "variational, rk2"}
        cfg = ExperimentConfig(**raw)
        assert (cfg.system, cfg.h, cfg.t_final, cfg.methods) == (
            "oscillator", 0.05, 2.0, ("variational", "rk2"))

    def test_malformed_line(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(cfgfile)


def test_default_newton_tolerances():
    assert default_newton_tol("oscillator", 0.01) == 1e-12
    assert default_newton_tol("oscillator", 0.001) == pytest.approx(1e-10)
    assert default_newton_tol("ideal-gas", 0.01) == 3e-8
    assert default_newton_tol("two-pistons", 0.01) == 1e-9


@pytest.mark.parametrize("h", [1e-160, 1e-320])
def test_step_too_small_for_the_newton_tolerance(h):
    # (0.01 / h)^2 overflows (1e-160) or is already inf (1e-320)
    with pytest.raises(ConfigError, match="h = "):
        default_newton_tol("oscillator", h)
    with pytest.raises(ConfigError, match="h = "):
        ExperimentConfig(h=h, t_final=10 * h)
    # the largest tolerance short of the overflow is left as it was
    assert default_newton_tol("oscillator", 1e-156) == 1e-12 * (0.01 / 1e-156) ** 2


def test_exact_start_without_exact_solution_fails_before_any_run(monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference ran")

    monkeypatch.setattr(bench, "reference_integrate", no_reference)
    with pytest.raises(ConfigError, match="init_mode"):
        ExperimentConfig(system="oscillator", params={"gamma": 3.0}, t_final=1.0)
    # a given q1, another start or no variational method needs no exact solution
    for ok in (dict(q1=[0.01]), dict(init_mode="reference"), dict(methods=("rk2",))):
        ExperimentConfig(system="oscillator", params={"gamma": 3.0}, t_final=1.0, **ok)
