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
                      ThermoState, discrete_momenta, entropy_update, get_system,
                      hamiltonian_estimates, initialize, integrate, midpoint_discretize,
                      rk2_integrate, run_experiment)
from thermint.discrete import momenta

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
    for fn in (sys.L, sys.dLdq, sys.dLdv, sys.dLdS, sys.Ffr, entry.H):
        _assert_same_bits(fn(q, v, S), _rows(fn, q, v, S))
    if sys.domain_check is not None:
        sys.domain_check(q)


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
    p_minus, p_plus = momenta(d, q0, q1, S0)
    _assert_same_bits(p_minus, _rows(lambda *t: momenta(d, *t)[0], q0, q1, S0))
    _assert_same_bits(p_plus, _rows(lambda *t: momenta(d, *t)[1], q0, q1, S0))


@pytest.mark.parametrize("name", ["ideal-gas", "van-der-waals", "two-pistons"])
def test_one_row_outside_the_domain_raises(name):
    entry = get_system(name)
    sys = entry.lagrangian
    q, v, S = _stack(entry.n, 35)
    q[7] = -0.5
    for fn in (sys.L, sys.dLdq, sys.dLdS, entry.H):
        with pytest.raises(DomainError):
            fn(q, v, S)
    with pytest.raises(DomainError):
        sys.domain_check(q)
    with pytest.raises(DomainError):
        midpoint_discretize(sys, 0.01).D2Ld(q, q, S)


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
        d = dataclasses.replace(d, entropy_increment=None)
    qs = [[0.0], [0.1], [0.2], [0.3]]
    warm = DiscretePath(h=0.1, qs=qs, Ss=[0.5, 1.5, 2.0, 2.5])
    assert np.isfinite(warm.constraint_residual(d))
    cold = DiscretePath(h=0.1, qs=qs, Ss=[0.5, 1.0, 1.5, 2.0])
    with pytest.raises(TemperatureDegenerateError):
        cold.constraint_residual(d)
    with pytest.raises(TemperatureDegenerateError):
        entropy_update(d, cold.triple(2))
