"""Stacks of points through the catalog callables and the whole-path diagnostics.

Row k of a stacked call must give the bits of the single-point call on row
k, and the whole-path diagnostics must give the bits of the per-step loops
kept here as references.  A last bit moves when a stack takes array ``**``
instead of ``np.float_power`` or an einsum instead of ``np.vecdot``, so
every comparison is by ``tobytes()``.
"""

import dataclasses

import numpy as np
import pytest

from thermint import (DiscretePath, DiscreteTriple, DomainError, ExperimentConfig,
                      LagrangianThermoSystem, NewtonConfig, TemperatureDegenerateError,
                      ThermoState, discrete_action, discrete_flow, discrete_momenta,
                      entropy_update, get_system, hamiltonian_estimates, initialize,
                      integrate, legendre_minus, legendre_plus, midpoint_discretize,
                      momentum_map, noether_condition, omega_embedded, pullback_check,
                      rk2_integrate, run_experiment)
from thermint.continuous import fd_gradient, pair
from thermint.solve import solve_step
from test_discrete import _one_triple_cases

ALL = ["oscillator", "ideal-gas", "van-der-waals", "two-pistons"]
ROWS = 2000


def _stack(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.6, 1.6, (ROWS, n)), rng.uniform(-1.0, 1.0, (ROWS, n)),
            rng.uniform(0.0, 2.0, ROWS))


def _rows(fn, *stacks):
    """fn at each point of the stacks (a float S per row), stacked."""
    *arrays, S = stacks
    return np.array([fn(*(a[k] for a in arrays), float(S[k])) for k in range(len(S))])


def _assert_same_bits(stacked, rows):
    # a value that does not depend on the point may come back unbroadcast
    got = np.broadcast_to(np.asarray(stacked, dtype=float), rows.shape)
    assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", ALL)
def test_lagrangian_and_hamiltonian_callables_take_stacks(name):
    entry = get_system(name)
    sys = entry.lagrangian
    q, v, S = _stack(entry.n, 31)
    for fn in (sys.L, sys.dLdq, sys.dLdv, sys.dLdS, sys.Ffr, sys.d2LdqdS, sys.d2LdvdS,
               sys.dFfrdS, entry.H):
        _assert_same_bits(fn(q, v, S), _rows(fn, q, v, S))


@pytest.mark.parametrize("name", ALL)
def test_a_point_stays_scalar(name):
    # integrate calls the callables once per point: a scalar result must be
    # a float, not a 0-d array, and a covector must have shape (n,)
    entry = get_system(name)
    sys = entry.lagrangian
    q, v, S = (x[0] for x in _stack(entry.n, 32))
    S = float(S)
    for fn in (sys.L, sys.dLdS, entry.H):
        value = fn(q, v, S)
        assert isinstance(value, float) and not isinstance(value, np.ndarray)
    for fn in (sys.dLdq, sys.dLdv, sys.Ffr):
        assert np.shape(fn(q, v, S)) == (entry.n,)


@pytest.mark.parametrize("name", ALL)
def test_discrete_callables_take_stacks(name):
    entry = get_system(name)
    d = midpoint_discretize(entry.lagrangian, 0.01)
    q0, _, S0 = _stack(entry.n, 33)
    q1 = q0 + np.random.default_rng(34).uniform(-0.02, 0.02, q0.shape)
    for fn in (d.D1Ld, d.D2Ld, d.DSLd, d.ffr_minus, d.ffr_plus, d.entropy_increment):
        _assert_same_bits(fn(q0, q1, S0), _rows(fn, q0, q1, S0))


#: the catalog, and its float-point systems declared without float points
NEWTON_MATRIX_SYSTEMS = ALL + ["oscillator-arrays", "ideal-gas-arrays", "van-der-waals-arrays"]


@pytest.mark.parametrize("name", NEWTON_MATRIX_SYSTEMS)
def test_newton_matrix_takes_stacks(name):
    # the stacked cold step solves every row with one call of pi_minus_dq1;
    # a constant matrix may come back once for the stack
    lag = get_system(name.removesuffix("-arrays")).lagrangian
    if name.endswith("-arrays"):
        lag = dataclasses.replace(lag, float_points=False)
    d = midpoint_discretize(lag, 0.01)
    q0, _, S0 = _stack(d.n, 43)
    q1 = q0 + np.random.default_rng(44).uniform(-0.02, 0.02, q0.shape)
    _assert_same_bits(d.pi_minus_dq1(q0, q1, S0), _rows(d.pi_minus_dq1, q0, q1, S0))


def test_fd_gradient_of_a_stack_is_its_rows():
    # the derived second partials and the generic kernel's Newton matrix
    # difference a stack along its last axis
    q, v, S = _stack(2, 45)
    dLdq = get_system("two-pistons").lagrangian.dLdq
    f = lambda x: dLdq(x, v, S)
    rows = np.array([fd_gradient(lambda x: dLdq(x, v[k], float(S[k])), q[k])
                     for k in range(ROWS)])
    assert fd_gradient(f, q).tobytes() == rows.tobytes()
    scalar = lambda x: np.vecdot(x, x)
    rows = np.array([fd_gradient(scalar, q[k]) for k in range(ROWS)])
    assert fd_gradient(scalar, q).tobytes() == rows.tobytes()


@pytest.mark.parametrize("name", ["ideal-gas", "van-der-waals", "two-pistons"])
def test_one_row_outside_the_domain_raises(name):
    # each callable that reads q guards its own input, and nothing else
    # checks the domain: a stack with one row outside, that row as an array
    # point and, at n = 1, as a float point all raise, naming the bad value
    entry = get_system(name)
    sys = entry.lagrangian
    d = midpoint_discretize(sys, 0.01)
    q, v, S = _stack(entry.n, 35)
    q[7] = -0.5
    points = [(q, v, S), (q[7], v[7], float(S[7]))]
    if entry.n == 1:
        points.append((-0.5, float(v[7, 0]), float(S[7])))
    bad = f"got {-0.5 * entry.n}$"
    for q, v, S in points:
        for fn in (sys.L, sys.dLdq, sys.dLdS, sys.d2Ldq2, sys.d2LdqdS, sys.accel, entry.H):
            with pytest.raises(DomainError, match=bad):
                fn(q, v, S)
        # the midpoint of (q, q) is q
        for fn in (d.Ld, d.D1Ld, d.D2Ld, d.DSLd, d.triple_pass, d.pi_minus_dq1):
            with pytest.raises(DomainError, match=bad):
                fn(q, q, S)


@pytest.mark.parametrize("name,point", [("ideal-gas", [1e-250]),
                                        ("two-pistons", [1e-250, 0.0]),
                                        ("van-der-waals", [1e200])],
                         ids=["ideal-gas", "two-pistons", "van-der-waals"])
def test_one_overflowing_row_raises(name, point):
    # a float ``**`` raises OverflowError where its value leaves the float
    # range: each callable that raises it at a point raises it with that
    # point as a row of a stack, and so does the stacked cold step
    entry = get_system(name)
    sys = entry.lagrangian
    q, v, S = _stack(entry.n, 36)
    q[7] = point
    points = [(q[7], v[7], float(S[7]))]
    if entry.n == 1:
        points.append((point[0], float(v[7, 0]), float(S[7])))
    overflowing = {}
    for fn in (sys.L, sys.dLdq, sys.dLdv, sys.dLdS, sys.Ffr, sys.d2Ldq2, sys.d2Ldqdv,
               sys.d2Ldv2, sys.d2LdqdS, sys.d2LdvdS, sys.dFfrdq, sys.dFfrdv, sys.dFfrdS,
               entry.H):
        for p in points:
            try:
                fn(*p)
            except OverflowError as exc:
                overflowing[fn] = str(exc)
    assert len(overflowing) >= 2
    for fn, message in overflowing.items():
        with pytest.raises(OverflowError) as err:
            fn(q, v, S)
        assert str(err.value) == message
    # the midpoint of (q, q) is q
    with pytest.raises(OverflowError):
        solve_step(midpoint_discretize(sys, 0.01), q, q, S, NewtonConfig(tol=1e-10))


def test_overflowing_e_to_the_S_product_raises_at_an_array_point():
    # e^700 is finite and its product with V^(-1/c - 2) overflows: numpy's
    # error state sees that product at an array point, as it sees it on the
    # same triple as a one-row stack, with the bits of the stack's row where
    # it is off
    lag = dataclasses.replace(get_system("ideal-gas").lagrangian, float_points=False)
    matrix = midpoint_discretize(lag, 0.01).pi_minus_dq1
    q0, q1, S0 = np.array([0.01]), np.array([0.0101]), 700.0
    with np.errstate(over="raise"):
        for point in ((q0, q1, S0), (q0[None], q1[None], np.array([S0]))):
            with pytest.raises(FloatingPointError, match="overflow"):
                matrix(*point)
    with np.errstate(over="ignore"):
        row = matrix(q0[None], q1[None], np.array([S0]))[0]
        assert matrix(q0, q1, S0).tobytes() == row.tobytes()


# ---------------------------------------------------------------------------
# stacked triples against per-triple loops


def _triples(n, seed):
    """A stacked DiscreteTriple of ROWS rows, and its rows one triple each."""
    q0, _, S0 = _stack(n, seed)
    q1 = q0 + np.random.default_rng(seed + 1).uniform(-0.02, 0.02, q0.shape)
    return DiscreteTriple(q0, q1, S0), [DiscreteTriple(q0[k], q1[k], S0[k]) for k in range(ROWS)]


def _xi(q):
    # a generator that depends on the point, so a stack must reach it whole
    return q * q


@pytest.mark.parametrize("name", ALL)
def test_stacked_triple_matches_per_triple_loop(name):
    d = midpoint_discretize(get_system(name).lagrangian, 0.01)
    stack, rows = _triples(d.n, 38)
    _assert_same_bits(entropy_update(d, stack), np.array([entropy_update(d, t) for t in rows]))
    for fn in (legendre_minus, legendre_plus, discrete_momenta):
        for i, part in enumerate(fn(d, stack)):
            _assert_same_bits(part, np.array([fn(d, t)[i] for t in rows]))
    for side in ("plus", "minus"):
        _assert_same_bits(momentum_map(d, stack, _xi, side),
                          np.array([momentum_map(d, t, _xi, side) for t in rows]))


@pytest.mark.parametrize("name", ALL)
def test_noether_condition_on_a_stack_is_the_worst_row(name):
    d = midpoint_discretize(get_system(name).lagrangian, 0.01)
    stack, rows = _triples(d.n, 39)
    worst = max(abs(float(d.pi_plus(t.q0, t.q1, t.S0) @ _xi(t.q1)
                          - d.pi_minus(t.q0, t.q1, t.S0) @ _xi(t.q0))) for t in rows)
    # the stacked residual's maximum is the loop's, bit for bit
    assert noether_condition(d, _xi, stack, tol=worst)
    assert not noether_condition(d, _xi, stack, tol=np.nextafter(worst, 0.0))


@pytest.mark.parametrize("name", ALL)
def test_discrete_action_sums_the_loop_in_path_order(name):
    d = midpoint_discretize(get_system(name).lagrangian, 0.01)
    qs, _, Ss = _stack(d.n, 40)
    path = DiscretePath(h=0.01, qs=qs, Ss=Ss)
    loop = float(sum(d.Ld(t.q0, t.q1, t.S0) for t in path.triples()))
    assert discrete_action(d, path, validate=False).hex() == loop.hex()


def test_path_stack_rows_are_its_triples():
    qs, _, Ss = _stack(2, 41)
    path = DiscretePath(h=0.01, qs=qs[:50], Ss=Ss[:50])
    stack = path.stack()
    assert stack.q0.shape == (49, 2) and stack.S0.shape == (49,)
    for k, t in enumerate(path.triples()):
        for a, b in ((stack.q0[k], t.q0), (stack.q1[k], t.q1), (stack.S0[k], t.S0)):
            assert np.asarray(a).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_triple_shapes_must_agree():
    with pytest.raises(ValueError):
        DiscreteTriple([1.0, 2.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        DiscreteTriple(np.ones((3, 2)), np.ones((3, 2)), 0.0)
    with pytest.raises(ValueError):
        DiscreteTriple(np.ones((3, 2)), np.ones((3, 2)), np.zeros(2))
    t = DiscreteTriple([0.5], [0.6], 1)
    assert t.q0.shape == (1,) and type(t.S0) is float


_ONE_TRIPLE = {
    "discrete_flow": lambda d, t: discrete_flow(d, t, NewtonConfig(tol=1e-10)),
    "pullback_check": lambda d, t: pullback_check(d, t, NewtonConfig(tol=1e-10)),
    "as_array": lambda d, t: t.as_array(),
}


@pytest.mark.parametrize("fn", _ONE_TRIPLE.values(), ids=_ONE_TRIPLE.keys())
@pytest.mark.parametrize("name", ALL)
def test_one_triple_functions_reject_a_stack(name, fn):
    d = midpoint_discretize(get_system(name).lagrangian, 0.01)
    stack, rows = _triples(d.n, 42)
    fn(d, rows[0])
    with pytest.raises(ValueError, match="one triple"):
        fn(d, DiscreteTriple(stack.q0[:2], stack.q1[:2], stack.S0[:2]))


def _quartic():
    """L = v^2/2 - q^4/4 - S with friction -0.1 v, every second partial
    derived by central differences, as in tests/test_solve.py."""
    return LagrangianThermoSystem(
        n=1, L=lambda q, v, S: 0.5 * pair(v, v) - 0.25 * pair(q * q, q * q) - S,
        dLdq=lambda q, v, S: -(q * q * q), dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -1.0, Ffr=lambda q, v, S: -0.1 * v, float_points=True)


def test_two_form_blocks_of_a_two_row_stack_raise():
    # a (2, 2) stack of two-pistons triples once gave one non-symmetric
    # block mixing the two rows: each block is now its row's, and one row
    # whose midpoint q0 + q1 overflows raises, as that row alone does on arrays
    d = midpoint_discretize(get_system("two-pistons").lagrangian, 0.01)
    q0 = np.array([[1.0, 1.0], [1.1, 0.9]])
    t = DiscreteTriple(q0, q0 + 0.01, [1.0, 1.0])
    for side in ("plus", "minus"):
        expected = [omega_embedded(d, DiscreteTriple(q0[k], q0[k] + 0.01, 1.0), side)
                    for k in range(2)]
        assert omega_embedded(d, t, side).tobytes() == np.array(expected).tobytes()
    q0[1] = 1e308
    t = DiscreteTriple(q0, q0, [1.0, 1.0])
    for side in ("plus", "minus"):
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(FloatingPointError, match="overflow encountered in add"):
            omega_embedded(d, t, side)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("case", [*ALL, "ideal-gas-generic", "quartic"])
def test_two_forms_of_a_stack_are_its_rows(case, side):
    # row k of the two-form and of the covector Jacobian of a stack has the
    # bytes of the call on triple k: the catalog's analytic Jacobians, the
    # central differences of the generic kernel, and the analytic Jacobians
    # of derived second partials; the stacks hold q1 = q0 rows and +-0.0
    # entries, and a (4, 6) stack gives the rows of the 24-row one
    name = "oscillator" if case == "quartic" else case.removesuffix("-generic")
    d = midpoint_discretize(_quartic() if case == "quartic" else get_system(name).lagrangian,
                            0.01)
    if case.endswith("-generic"):
        d = dataclasses.replace(d, dpi_minus=None, dpi_plus=None)
    q0, q1, S0 = _one_triple_cases(name)
    rows = [DiscreteTriple(q0[k], q1[k], S0[k]) for k in range(len(S0))]
    grid = (4, 6)
    dpi = d.dpi_plus if side == "plus" else d.dpi_minus
    jacobians = np.array([dpi(t.q0, t.q1, t.S0) for t in rows])
    for stacked, expected in (
            (omega_embedded(d, DiscreteTriple(q0, q1, S0), side),
             np.array([omega_embedded(d, t, side) for t in rows])),
            (dpi(q0, q1, S0), jacobians),
            (dpi(*(x.reshape(grid + x.shape[1:]) for x in (q0, q1, S0))),
             jacobians.reshape(grid + jacobians.shape[1:]))):
        assert stacked.shape == expected.shape and stacked.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# whole-path diagnostics against per-step loops


def _loop_estimates(entry, d, path):
    N = path.n_steps
    hp, hm, hv = np.empty(N), np.empty(N), np.empty(N)
    for k in range(1, N + 1):
        t = path.triple(k)
        p_minus, p_plus = discrete_momenta(d, t)
        hp[k - 1] = entry.H(t.q1, p_plus, path.Ss[k])
        hm[k - 1] = entry.H(t.q0, p_minus, t.S0)
        hv[k - 1] = entry.H(t.q1, (t.q1 - t.q0) / d.h, path.Ss[k])
    return hp, hm, hv


def _loop_residual(d, path):
    worst = 0.0
    for k in range(1, len(path)):
        s_pred = entropy_update(d, path.triple(k))
        worst = max(worst, abs(path.Ss[k] - s_pred) / max(1.0, abs(path.Ss[k])))
    return worst


def _read_columns(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh]
    return dict(zip(header, np.array(rows).T))


@pytest.mark.parametrize("name", ALL)
def test_estimators_and_h_series_match_per_step_loops(name, tmp_path):
    cfg = ExperimentConfig(system=name, h=0.01, t_final=3.0, methods=("variational", "rk2"),
                           out=str(tmp_path))
    report = run_experiment(cfg)
    entry = get_system(name)
    d = midpoint_discretize(entry.lagrangian, cfg.h)
    q0, q1, S0 = initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
    path = integrate(d, q0, q1, S0, cfg.n_steps, NewtonConfig(tol=cfg.newton_tol))
    H0 = entry.H(cfg.q0, cfg.v0, cfg.S0)

    expected = _loop_estimates(entry, d, path)
    for got, want in zip(hamiltonian_estimates(entry, d, path), expected):
        assert got.tobytes() == want.tobytes()
    csv = _read_columns(tmp_path / f"{name}_variational.csv")
    for column, want in zip(("H_plus", "H_minus", "H_vel"), expected):
        assert csv[column].tobytes() == np.concatenate([[H0], want]).tobytes()

    traj = rk2_integrate(entry.lagrangian, ThermoState(cfg.q0, cfg.v0, cfg.S0), cfg.h,
                         cfg.n_steps)
    hseries = np.array([entry.H(traj.qs[k], traj.vs[k], traj.Ss[k])
                        for k in range(cfg.n_steps + 1)])
    csv = _read_columns(tmp_path / f"{name}_rk2.csv")
    for column in ("H_plus", "H_minus", "H_vel"):
        assert csv[column].tobytes() == hseries.tobytes()
    assert report.methods["rk2"].H_dev["velocity"] == float(np.max(np.abs(hseries - H0)))


@pytest.mark.parametrize("name", ALL)
def test_constraint_residual_matches_per_triple_loop(name):
    entry = get_system(name)
    d = midpoint_discretize(entry.lagrangian, 0.01)
    n = entry.n
    qs = 1.0 + np.cumsum(np.random.default_rng(36).uniform(-0.01, 0.01, (400, n)), axis=0)
    Ss = np.empty(400)
    Ss[0] = 1.0
    for k in range(1, 400):
        Ss[k] = entropy_update(d, DiscreteTriple(qs[k - 1], qs[k], Ss[k - 1]))
    # a relative violation of ~1e-9 in every row, different per row
    Ss[1:] *= 1.0 + 1e-9 * np.random.default_rng(37).uniform(0.5, 1.5, 399)
    path = DiscretePath(h=0.01, qs=qs, Ss=Ss)
    assert path.constraint_residual(d) == _loop_residual(d, path) > 0.0


def _cold_system():
    # D_S L = S - 1 vanishes at S = 1
    return LagrangianThermoSystem(
        n=1, L=lambda q, v, S: 0.0, dLdq=lambda q, v, S: -q, dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: S - 1.0, Ffr=lambda q, v, S: -0.1 * v)


@pytest.mark.parametrize("kernel", ["fused", "generic"])
def test_zero_temperature_row_raises(kernel):
    d = midpoint_discretize(_cold_system(), 0.1)
    if kernel == "generic":
        d = dataclasses.replace(d, triple_pass=None)
    qs = [[0.0], [0.1], [0.2], [0.3]]
    warm = DiscretePath(h=0.1, qs=qs, Ss=[0.5, 1.5, 2.0, 2.5])
    assert np.isfinite(warm.constraint_residual(d))
    cold = DiscretePath(h=0.1, qs=qs, Ss=[0.5, 1.0, 1.5, 2.0])
    with pytest.raises(TemperatureDegenerateError):
        cold.constraint_residual(d)
    with pytest.raises(TemperatureDegenerateError):
        entropy_update(d, cold.triple(2))
    # pi_plus is read off the same pass, whose rest forms the increment too
    t = cold.triple(2)
    with pytest.raises(TemperatureDegenerateError):
        d.pi_plus(t.q0, t.q1, t.S0)


# ---------------------------------------------------------------------------
# one-triple functions


#: (q centre, S0 centre, S0 half-width) of the seeded pullback triples
_PULLBACK_STARTS = {"oscillator": (0.0, 0.5, 0.5), "ideal-gas": (1.0, 10.0, 0.1),
                    "van-der-waals": (1.0, 10.0, 0.1), "two-pistons": (1.0, 1.0, 0.1)}

#: pullback_check on the seeded triples, as recorded before DiscreteTriple took stacks
_PULLBACK_HEX = {
    "oscillator": [
        "0x1.8500000000000p-31", "0x1.ee00000000000p-31", "0x1.6000000000000p-35",
        "0x1.0700000000000p-30", "0x1.e000000000000p-36", "0x1.3800000000000p-33",
        "0x1.3680000000000p-30", "0x1.af00000000000p-31", "0x1.6000000000000p-32",
        "0x1.ee00000000000p-31"],
    "ideal-gas": [
        "0x1.5baec00000000p-20", "0x1.6650000000000p-24", "0x1.6f84000000000p-24",
        "0x1.1d4c000000000p-24", "0x1.b6de000000000p-25", "0x1.6c50000000000p-25",
        "0x1.685e000000000p-25", "0x1.dfdc000000000p-25", "0x1.94e8000000000p-25",
        "0x1.9ece000000000p-24"],
    "van-der-waals": [
        "0x1.6f28000000000p-25", "0x1.d2b0000000000p-25", "0x1.4608000000000p-24",
        "0x1.9ac2000000000p-23", "0x1.5b40000000000p-25", "0x1.b8c8000000000p-25",
        "0x1.4228000000000p-24", "0x1.cb88000000000p-23", "0x1.92c8000000000p-25",
        "0x1.a3c8000000000p-24"],
    "two-pistons": [
        "0x1.0966000000000p-24", "0x1.302a000000000p-24", "0x1.b388000000000p-26",
        "0x1.ad64000000000p-25", "0x1.30ba000000000p-24", "0x1.98b0000000000p-25",
        "0x1.0f10000000000p-24", "0x1.55d0000000000p-25", "0x1.495422f000000p-27",
        "0x1.4464000000000p-24"],
}


@pytest.mark.parametrize("name", ALL)
def test_pullback_check_keeps_its_bits(name):
    entry = get_system(name)
    d = midpoint_discretize(entry.lagrangian, 0.01)
    qc, Sc, dS = _PULLBACK_STARTS[name]
    rng = np.random.default_rng(12)
    got = []
    for _ in range(10):
        q0 = qc + rng.uniform(-0.05, 0.05, entry.n)
        t = DiscreteTriple(q0, q0 + rng.uniform(-0.01, 0.01, entry.n), Sc + rng.uniform(-dS, dS))
        got.append(pullback_check(d, t, NewtonConfig(tol=1e-10)).hex())
    assert got == _PULLBACK_HEX[name]


def test_action_of_a_lagrangian_that_stays_a_float_on_a_stack():
    # L = 0 does not depend on the point, so one float comes back for the stack
    d = midpoint_discretize(_cold_system(), 0.1)
    path = DiscretePath(h=0.1, qs=[[0.0], [0.1], [0.2]], Ss=[0.5, 1.5, 2.0])
    assert discrete_action(d, path, validate=False) == 0.0
