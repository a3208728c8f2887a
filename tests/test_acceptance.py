"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s or read the
captured output).  Expected numeric targets were frozen from independent
high-precision computations: the closed-form damped-oscillator solution,
adaptive quadrature of its exact velocity for the entropy reference, and
tight-tolerance adaptive integration for the gas references.

The h = 1e-4 oscillator cell (10^7 implicit steps) is tagged slow.  The
default run includes it; `pytest -m "not slow"` leaves it out and
`pytest -m slow` runs it alone.
"""

import hashlib
import time

import numpy as np
import pytest

from thermint import (
    DiscreteTriple,
    HamiltonianPoint,
    NewtonConfig,
    ThermoState,
    assemble_structure,
    conserved_along,
    contact_evolution_field,
    evolution_field,
    evolution_field_coordinates,
    flat_matrix,
    get_system,
    hamiltonian_estimates,
    hamiltonian_point,
    integrate,
    legendre_minus,
    legendre_plus,
    midpoint_discretize,
    momentum_map,
    pullback_check,
    reeb_field,
    reference_integrate,
    rk2_integrate,
)
from thermint.bench import default_newton_tol
from thermint.solve import initialize

GAMMA = 0.1
T_FINAL = 1000.0

# frozen targets: oscillator max position errors over [0, 1000]
POSITION_TARGETS = {
    0.1: (6.180e-3, 1.228e-2),
    0.01: (6.182e-5, 1.226e-4),
    0.001: (6.173e-7, 1.225e-6),
}
# frozen targets: max entropy error over the first 1500 steps at h = 0.01,
# measured against the quadrature reference (the midpoint value is one
# decade below a previously circulated figure whose mantissa it matches;
# the quadrature reference reproduces this value to three digits)
ENTROPY_TARGETS = (3.36e-5, 5.41e-5)
# frozen targets: max |H_plus - H(0)| at h = 0.1 and h = 0.01
HPLUS_TARGETS = {0.1: 8.10e-4, 0.01: 8.24e-6}


def report(ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


@pytest.fixture(scope="module")
def oscillator_cells():
    """Variational + RK2 oscillator runs for h in {0.1, 0.01, 0.001}."""
    entry = get_system("oscillator", gamma=GAMMA)
    sol = entry.exact_solution([0.0], [1.0], 0.0)
    cells = {}
    for h in (0.1, 0.01, 0.001):
        N = int(round(T_FINAL / h))
        ts = h * np.arange(N + 1)
        q_exact = sol.q(ts)
        d = midpoint_discretize(entry.lagrangian, h)
        q0, q1, S0 = initialize(entry, [0.0], [1.0], 0.0, h, "exact")

        t0 = time.perf_counter()
        path = integrate(d, q0, q1, S0, N,
                         NewtonConfig(tol=default_newton_tol("oscillator", h)))
        t_var = time.perf_counter() - t0

        t0 = time.perf_counter()
        traj = rk2_integrate(entry.lagrangian, ThermoState([0.0], [1.0], 0.0), h, N)
        t_rk2 = time.perf_counter() - t0

        cells[h] = {
            "entry": entry, "sol": sol, "d": d, "path": path, "traj": traj,
            "ts": ts,
            "var_err": float(np.max(np.abs(path.qs[:, 0] - q_exact))),
            "rk2_err": float(np.max(np.abs(traj.qs[:, 0] - q_exact))),
            "runtime": (t_var, t_rk2),
        }
    return cells


def test_criterion_1_oscillator_position_errors(oscillator_cells):
    """Variational and RK2 position errors within 5% of the frozen table."""
    ok = True
    for h, (var_t, rk2_t) in POSITION_TARGETS.items():
        cell = oscillator_cells[h]
        ok &= report(
            abs(cell["var_err"] - var_t) <= 0.05 * var_t
            and abs(cell["rk2_err"] - rk2_t) <= 0.05 * rk2_t,
            f"criterion 1 h={h:g}: variational {cell['var_err']:.4e} "
            f"(target {var_t:.3e}), rk2 {cell['rk2_err']:.4e} (target {rk2_t:.3e}); "
            f"runtimes {cell['runtime'][0]:.2f}s / {cell['runtime'][1]:.2f}s",
        )
    assert ok


def test_criterion_2_oscillator_entropy_errors(oscillator_cells):
    """Entropy errors over the first 1500 steps at h = 0.01, factor 2."""
    cell = oscillator_cells[0.01]
    window = 1500
    ts = cell["ts"][: window + 1]
    S_exact = cell["sol"].entropy(ts)
    e_var = float(np.max(np.abs(cell["path"].Ss[: window + 1] - S_exact)))
    e_rk2 = float(np.max(np.abs(cell["traj"].Ss[: window + 1] - S_exact)))
    var_t, rk2_t = ENTROPY_TARGETS
    ok = report(
        var_t / 2 <= e_var <= var_t * 2 and rk2_t / 2 <= e_rk2 <= rk2_t * 2,
        f"criterion 2: entropy errors variational {e_var:.4e} (target {var_t:.2e}), "
        f"midpoint {e_rk2:.4e} (target {rk2_t:.2e}), factor-2 windows",
    )
    assert ok


def test_criterion_3_hamiltonian_estimators(oscillator_cells):
    """Legendre estimators: tiny plus/minus gap, frozen deviations, coarse
    velocity estimator."""
    ok = True
    devs = {}
    for h in (0.1, 0.01):
        cell = oscillator_cells[h]
        hp, hm, hv = hamiltonian_estimates(cell["entry"], cell["d"], cell["path"])
        devs[h] = (hp, hm, hv)
        dev_p = float(np.max(np.abs(hp - 0.5)))
        ok &= report(
            abs(dev_p - HPLUS_TARGETS[h]) <= 0.05 * HPLUS_TARGETS[h],
            f"criterion 3 h={h:g}: max|H+ - H0| = {dev_p:.4e} "
            f"(target {HPLUS_TARGETS[h]:.2e}, 5%)",
        )
    hp, hm, hv = devs[0.01]
    gap = float(np.max(np.abs(hp - hm)))
    ok &= report(gap <= 1e-12, f"criterion 3: max|H+ - H-| = {gap:.3e} <= 1e-12")
    dev_p = float(np.max(np.abs(hp - 0.5)))
    dev_v = float(np.max(np.abs(hv - 0.5)))
    ok &= report(dev_v >= 10 * dev_p,
                 f"criterion 3: velocity estimator {dev_v:.3e} >= 10 x {dev_p:.3e}")
    # drift of the Legendre estimators over the full run stays at roundoff
    drift = max(float(hp.max() - hp.min()), float(hm.max() - hm.min()))
    ok &= report(drift <= 1e-10, f"criterion 3: H+/H- drift {drift:.3e} <= 1e-10")
    assert ok


def test_criterion_4_convergence_order(oscillator_cells):
    """Fitted order of the variational position error across the h grid."""
    hs = sorted(POSITION_TARGETS)
    errs = [oscillator_cells[h]["var_err"] for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = report(1.9 <= slope <= 2.1, f"criterion 4: fitted order {slope:.3f} in [1.9, 2.1]")
    assert ok


def test_criterion_5_closed_form_equivalence(oscillator_cells):
    """Newton-solved steps match the explicit recurrence, per step, 1e5 steps."""
    cell = oscillator_cells[0.01]
    a, b = cell["entry"].update_coefficients(0.01)
    qs = cell["path"].qs[:, 0]
    per_step = float(np.max(np.abs(qs[2:] - (a * qs[1:-1] - b * qs[:-2]))))
    ok = report(per_step <= 1e-12,
                f"criterion 5: per-step |Newton - recurrence| = {per_step:.3e} <= 1e-12 "
                f"over {len(qs) - 2} steps")
    assert ok


def _gas_momentum_matching(d, path):
    # plus transform of triple k against minus transform of triple k + 1,
    # on the whole path at once; a NaN anywhere is the maximum
    _, cov_p, S_p = legendre_plus(d, path.stack())
    _, cov_m, S_m = legendre_minus(d, path.stack())
    return float(np.max(np.abs(np.column_stack([cov_p[:-1] - cov_m[1:], S_p[:-1] - S_m[1:]]))))


def test_criterion_6_gas_systems():
    """Entropy monotone; momentum matching <= 1e-10; variational Hamiltonian
    deviation below the midpoint baseline on a shared horizon."""
    ok = True
    for name in ("ideal-gas", "van-der-waals"):
        entry = get_system(name)
        state0 = ThermoState([1.0], [0.0], 10.0)
        H0 = entry.H([1.0], [0.0], 10.0)

        # shared-horizon comparison cells (t = 100, h = 0.01)
        h, N = 0.01, 10000
        d = midpoint_discretize(entry.lagrangian, h)
        path = integrate(d, [1.0], [1.0], 10.0, N,
                         NewtonConfig(tol=default_newton_tol(name, h)))
        traj = rk2_integrate(entry.lagrangian, state0, h, N)
        mono = bool(np.all(np.diff(path.Ss) >= 0.0))
        mono_rk2 = bool(np.all(np.diff(traj.Ss) >= 0.0))
        ok &= report(mono and mono_rk2,
                     f"criterion 6 {name}: entropy nondecreasing over {N} steps "
                     f"(variational and midpoint)")
        hp, _, _ = hamiltonian_estimates(entry, d, path)
        dev_var = float(np.max(np.abs(hp - H0)))
        h_rk2 = np.array([entry.H(traj.qs[k], traj.vs[k], traj.Ss[k])
                          for k in range(len(traj))])
        dev_rk2 = float(np.max(np.abs(h_rk2 - H0)))
        ok &= report(dev_var < dev_rk2,
                     f"criterion 6 {name}: H deviation variational {dev_var:.4g} "
                     f"< midpoint {dev_rk2:.4g} (shared horizon t=100)")

        # momentum-matching cell: the double-precision residual floor is
        # ulp(|q|)/h^2, so the 1e-10 bound is representable at h = 0.1
        hm, Nm = 0.1, 100
        dm = midpoint_discretize(entry.lagrangian, hm)
        path_m = integrate(dm, [1.0], [1.0], 10.0, Nm, NewtonConfig(tol=1e-10))
        match = _gas_momentum_matching(dm, path_m)
        ok &= report(match <= 1e-10,
                     f"criterion 6 {name}: momentum matching {match:.3e} <= 1e-10")
        ok &= report(bool(np.all(np.diff(path_m.Ss) >= 0.0)),
                     f"criterion 6 {name}: entropy nondecreasing on matching cell")
    assert ok


def test_criterion_7_geometry_suite():
    """Structure identities on 100 random points per system."""
    rng = np.random.default_rng(2024)
    worst = {"field": 0.0, "eta": 0.0, "reeb": 0.0}
    for name in ("oscillator", "ideal-gas", "van-der-waals", "two-pistons"):
        entry = get_system(name)
        for _ in range(100):
            q = rng.uniform(0.5, 1.5, entry.n)
            p = rng.uniform(-1.0, 1.0, entry.n)
            S = rng.uniform(0.0, 2.0)
            pt = hamiltonian_point(entry, q, p, S)
            s = assemble_structure(pt)
            E1 = evolution_field(s, pt)
            E2 = evolution_field_coordinates(pt)
            R = reeb_field(s)
            worst["field"] = max(worst["field"], float(np.max(np.abs(E1 - E2))))
            worst["eta"] = max(worst["eta"], abs(float(s.eta @ E1)))
            worst["reeb"] = max(worst["reeb"], float(np.max(np.abs(s.W.T @ R))),
                                abs(float(s.eta @ R) - 1.0),
                                float(np.max(np.abs(flat_matrix(s) @ R - s.eta))))
    ok = report(
        worst["field"] <= 1e-12 and worst["eta"] <= 1e-12 and worst["reeb"] <= 1e-12,
        f"criterion 7: geometry defects field {worst['field']:.2e}, "
        f"eta(E) {worst['eta']:.2e}, Reeb {worst['reeb']:.2e} (all <= 1e-12)",
    )
    # contact special case: friction -p dH/dS reproduces the contact field
    worst_c = 0.0
    for _ in range(100):
        q = rng.normal(size=2)
        p = rng.normal(size=2)
        dH = rng.normal(size=5) + np.array([0, 0, 0, 0, 1.5])
        pt = HamiltonianPoint(q=q, p=p, S=rng.normal(), dH=dH, Ffr=-p * dH[-1])
        s = assemble_structure(pt)
        worst_c = max(worst_c, float(np.max(np.abs(
            evolution_field(s, pt) - contact_evolution_field(pt)))))
    ok &= report(worst_c <= 1e-11,
                 f"criterion 7: contact special case defect {worst_c:.2e}")
    assert ok


def test_criterion_8_pullback_theorem():
    """Flow pullback defect <= 1e-5 on 50 random triples per system."""
    rng = np.random.default_rng(7)
    ok = True

    entry = get_system("oscillator")
    d = midpoint_discretize(entry.lagrangian, 0.01)
    worst = 0.0
    for _ in range(50):
        t = DiscreteTriple(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1),
                           rng.uniform(0, 1))
        worst = max(worst, pullback_check(d, t, NewtonConfig(tol=1e-10)))
    ok &= report(worst <= 1e-5, f"criterion 8 oscillator: max defect {worst:.3e}")

    entry = get_system("ideal-gas")
    d = midpoint_discretize(entry.lagrangian, 0.01)
    worst = 0.0
    for _ in range(50):
        q0 = rng.uniform(0.95, 1.05)
        t = DiscreteTriple([q0], [q0 + rng.uniform(-0.01, 0.01)],
                           10.0 + rng.uniform(-0.1, 0.1))
        worst = max(worst, pullback_check(d, t, NewtonConfig(tol=1e-10)))
    ok &= report(worst <= 1e-5, f"criterion 8 ideal-gas: max defect {worst:.3e}")
    assert ok


def test_criterion_9_noether_suites():
    """Continuous and discrete conservation for the two-piston cylinder."""
    ok = True
    state0 = ThermoState([1.0, 1.0], [0.2, -0.3], 1.0)

    free = get_system("two-pistons", gamma=0.0)
    traj = reference_integrate(free.lagrangian, state0, 20.0, h=0.02)
    rel = traj.vs[:, 0] - traj.vs[:, 1]
    drift = float(np.max(np.abs(rel - rel[0])))
    ok &= report(drift <= 1e-7,
                 f"criterion 9: frictionless v_x - v_y drift {drift:.3e} <= 1e-7")

    # discrete momentum map along 1e4 variational steps
    tol = default_newton_tol("two-pistons", 0.01)
    d = midpoint_discretize(free.lagrangian, 0.01)
    q0, q1, S0 = initialize(free, state0.q, state0.v, state0.S, 0.01, "taylor")
    N = 10000
    path = integrate(d, q0, q1, S0, N, NewtonConfig(tol=tol))
    xi = lambda q: np.array([-1.0, 1.0])
    J = momentum_map(d, path.stack(), xi, "plus")
    drift_j = float(np.max(np.abs(J - J[0])))
    ok &= report(drift_j <= N * tol,
                 f"criterion 9: discrete momentum-map drift {drift_j:.3e} "
                 f"<= N x tol = {N * tol:.1e}")

    frictional = get_system("two-pistons", gamma=0.1)
    traj = reference_integrate(frictional.lagrangian, state0, 20.0, h=0.02)
    drift_g = conserved_along(traj, frictional.invariants["cartan"])
    ok &= report(drift_g <= 1e-7,
                 f"criterion 9: Cartan invariant drift {drift_g:.3e} <= 1e-7")
    assert ok


@pytest.mark.slow
def test_slow_oscillator_h_1e4_cell():
    """The 10^7-step cell: error saturates at the roundoff-accumulation level."""
    entry = get_system("oscillator", gamma=GAMMA)
    sol = entry.exact_solution([0.0], [1.0], 0.0)
    h = 1e-4
    N = int(round(T_FINAL / h))
    d = midpoint_discretize(entry.lagrangian, h)
    q0, q1, S0 = initialize(entry, [0.0], [1.0], 0.0, h, "exact")
    t0 = time.perf_counter()
    path = integrate(d, q0, q1, S0, N,
                     NewtonConfig(tol=default_newton_tol("oscillator", h)))
    runtime = time.perf_counter() - t0
    ts = h * np.arange(N + 1)
    err = float(np.max(np.abs(path.qs[:, 0] - sol.q(ts))))
    # quadrature error alone would be ~6.2e-9; roundoff accumulation over
    # 1e7 steps dominates, landing within an order of magnitude of 2.9e-8
    ok = report(6.2e-9 < err < 3e-7,
                f"slow cell h=1e-4: error {err:.3e}, runtime {runtime:.0f}s")
    assert ok
    # the error and the whole path, bit for bit as recorded before
    # one-dimensional systems stepped on floats
    assert err.hex() == "0x1.4258b189cea05p-26"
    digest = hashlib.sha256(path.qs.tobytes() + path.Ss.tobytes()).hexdigest()
    assert digest == "fec2121d65947857527d041cfebb6d5e19af062e17a2fc5a1e147da8b2bdec31"
