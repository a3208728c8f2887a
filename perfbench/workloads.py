"""The three workloads: inputs made from a seed, one pass, correctness gate.

Every workload drives only the public API of thermint.  A pass produces a
list of results; a result is one cell (``oscillator-cells``,
``gas-cells``) or one check (``structure-checks``).  A result fails when
it raises or misses a frozen bound of ``tests/test_acceptance.py``; the
pass records the failure and goes on.
"""

import hashlib
import os
import traceback

import numpy as np

from thermint import bench, discrete, geometry, solve, systems
from thermint.continuous import ThermoState
from thermint.discrete import DiscreteTriple
from thermint.solve import NewtonConfig

# frozen bounds of tests/test_acceptance.py; the oscillator targets are for
# unit initial velocity, and errors scale with it (H with its square)
POSITION_TARGETS = {0.1: (6.180e-3, 1.228e-2), 0.01: (6.182e-5, 1.226e-4)}
HPLUS_TARGETS = {0.1: 8.10e-4, 0.01: 8.24e-6}
TARGET_RTOL = 0.05
MATCHING_BOUND = 1e-10
PULLBACK_BOUND = 1e-5
GEOMETRY_BOUND = 1e-12
CONTINUOUS_DRIFT_BOUND = 1e-7
CONSTRAINT_BOUND = 1e-12

# The cells are slices of the acceptance cells.  The oscillator's position
# and H+ maxima over [0, 1000] lie near t = 18.7 and t <= 7.1 for every h of
# the table, so a slice to t = 25 holds them.  The gas cells' H deviations
# peak in the start-up transient: over t = 25 the variational/midpoint
# ratio of criterion 6 is the one over t = 100.
OSCILLATOR_SLICE = 25.0

SIZES = {
    "full": {"gas_t_final": 25.0, "matching_steps": 100, "noether_steps": 2000,
             "pullback_triples": 100, "geometry_points": 50, "continuous_t": 20.0},
    "smoke": {"gas_t_final": 1.0, "matching_steps": 20, "noether_steps": 50,
              "pullback_triples": 2, "geometry_points": 3, "continuous_t": 1.0},
}


class Results:
    """Pass/fail record of one pass; exceptions become failures."""

    def __init__(self):
        self.items = []

    def check(self, name, fn):
        try:
            problems = fn()
        except Exception as exc:  # a failing result must not end the pass
            problems = ["".join(traceback.format_exception_only(type(exc), exc)).strip()]
        self.items.append({"name": name, "ok": not problems, "problems": problems})


def _within(value, target, rtol=TARGET_RTOL):
    return abs(value - target) <= rtol * target


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload, seed, size="full"):
    """Inputs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    sz = SIZES[size]
    if workload == "oscillator-cells":
        # amplitude up to 1: above it the fixed 1e-12 Newton tolerance of
        # the h = 0.01 cell falls below the residual floor
        c = float(rng.uniform(0.5, 1.0))
        S0 = float(rng.uniform(0.0, 5.0))
        t_final = OSCILLATOR_SLICE if size == "full" else 1.0
        cells = [dict(name=f"oscillator-h{h:g}", kind="oscillator", system="oscillator",
                      params={"gamma": 0.1}, h=h, t_final=t_final, q0=[0.0], v0=[c],
                      S0=S0, init_mode="exact", scale=c, check_targets=size == "full")
                 for h in (0.1, 0.01)]
        return {"cells": cells, "matching": [], "setup": _setup_spec(cells[0])}
    if workload == "gas-cells":
        cells, matching = [], []
        for system in ("ideal-gas", "van-der-waals"):
            x0 = float(rng.uniform(0.95, 1.05))
            S0 = float(rng.uniform(9.9, 10.1))
            cells.append(dict(name=f"{system}-h0.01", kind="gas", system=system, params={},
                              h=0.01, t_final=sz["gas_t_final"], q0=[x0], v0=[0.0],
                              S0=S0, init_mode="hold"))
            # criterion 6's inputs verbatim: the pistons reach x ~ 6e3, where the
            # residual floor ulp(x)/h^2 nears the 1e-10 tolerance (8.8e-11 seen
            # from seeded starts), so these cells are not perturbed
            matching.append(dict(name=f"{system}-matching-h0.1", system=system, h=0.1,
                                 steps=sz["matching_steps"], q0=[1.0], S0=10.0, tol=1e-10))
        return {"cells": cells, "matching": matching, "setup": _setup_spec(cells[0])}
    if workload == "structure-checks":
        n = sz["pullback_triples"]
        triples = {
            "oscillator": [DiscreteTriple(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1),
                                          rng.uniform(0, 1)) for _ in range(n)],
            "ideal-gas": [],
            "two-pistons": [],
        }
        for _ in range(n):
            q0 = rng.uniform(0.95, 1.05)
            triples["ideal-gas"].append(DiscreteTriple(
                [q0], [q0 + rng.uniform(-0.01, 0.01)], 10.0 + rng.uniform(-0.1, 0.1)))
        for _ in range(n):
            q0 = rng.uniform(0.95, 1.05, 2)
            triples["two-pistons"].append(DiscreteTriple(
                q0, q0 + rng.uniform(-0.01, 0.01, 2), 1.0 + rng.uniform(-0.1, 0.1)))
        points = {}
        for name in ("oscillator", "ideal-gas", "van-der-waals", "two-pistons"):
            dim = 2 if name == "two-pistons" else 1
            points[name] = [(rng.uniform(0.5, 1.5, dim), rng.uniform(-1.0, 1.0, dim),
                             float(rng.uniform(0.0, 2.0)))
                            for _ in range(sz["geometry_points"])]
        state0 = dict(q=(1.0 + rng.uniform(-0.05, 0.05, 2)).tolist(),
                      v=(np.array([0.2, -0.3]) + rng.uniform(-0.05, 0.05, 2)).tolist(),
                      S=float(1.0 + rng.uniform(-0.1, 0.1)))
        noether = dict(state0=state0, h=0.01, steps=sz["noether_steps"],
                       tol=bench.default_newton_tol("two-pistons", 0.01),
                       continuous_t=sz["continuous_t"])
        setup = dict(system="two-pistons", params={"gamma": 0.0}, h=0.01, q0=state0["q"],
                     v0=state0["v"], S0=state0["S"], mode="taylor")
        return {"triples": triples, "points": points, "noether": noether, "setup": setup}
    raise ValueError(f"unknown workload {workload!r}")


def _setup_spec(cell):
    return dict(system=cell["system"], params=cell["params"], h=cell["h"], q0=cell["q0"],
                v0=cell["v0"], S0=cell["S0"], mode=cell["init_mode"])


# ---------------------------------------------------------------------------
# cells: run_experiment with tracing off, a replay of it with tracing on


def _config(cell, out):
    return bench.ExperimentConfig(
        system=cell["system"], params=dict(cell["params"]), h=cell["h"],
        t_final=cell["t_final"], q0=cell["q0"], v0=cell["v0"], q1=cell.get("q1"),
        S0=cell["S0"], init_mode=cell["init_mode"], methods=("variational", "rk2"),
        out=out)


def integrate_span(tr, d, q0, q1, S0, N, cfg):
    # looked up at call time, so that the integrate timer sees the call
    with tr.span("solve.integrate", "solve", steps=N, solves=max(N - 1, 0)):
        return solve.integrate(d, q0, q1, S0, N, cfg)


def replay_experiment(tr, cfg):
    """`run_experiment` step by step, in its order, with a span per call.

    Returns the same ErrorReport and writes the same files; the system and
    discretization passed in are counted copies.
    """
    entry = tr.wrap_entry(systems.get_system(cfg.system, **cfg.params))
    N = cfg.n_steps
    ts = cfg.h * np.arange(N + 1)
    if entry.exact_solution is not None:
        with tr.span("bench.reference_exact", "bench", points=N + 1):
            sol = entry.exact_solution(cfg.q0, cfg.v0, cfg.S0)
            qref, vref, Sref = sol.q(ts)[:, None], sol.v(ts)[:, None], sol.entropy(ts)
    else:
        with tr.span("bench.reference_integrate", "bench", points=N + 1):
            traj = bench.reference_integrate(entry.lagrangian,
                                             ThermoState(cfg.q0, cfg.v0, cfg.S0),
                                             cfg.t_final, cfg.rtol, cfg.atol, h=cfg.h)
        qref, vref, Sref = traj.qs, traj.vs, traj.Ss
    H0 = entry.H(cfg.q0, cfg.v0, cfg.S0)

    report = bench.ErrorReport(system=cfg.system, h=cfg.h, t_final=cfg.t_final, methods={})
    tables = {}
    for method in cfg.methods:
        if method == "variational":
            with tr.span("discrete.midpoint_discretize", "discrete"):
                d = tr.wrap_discrete(discrete.midpoint_discretize(entry.lagrangian, cfg.h))
            if cfg.q1 is not None:
                q0, q1, S0 = cfg.q0, cfg.q1, cfg.S0
            else:
                with tr.span("solve.initialize", "solve", mode=cfg.init_mode):
                    q0, q1, S0 = solve.initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h,
                                                  cfg.init_mode)
            path = integrate_span(tr, d, q0, q1, S0, N, NewtonConfig(tol=cfg.newton_tol))
            qs, Ss = path.qs, path.Ss
            vs = np.empty_like(path.qs)
            vs[0] = cfg.v0
            vs[1:] = np.diff(path.qs, axis=0) / path.h
            with tr.span("bench.hamiltonian_estimates", "bench", steps=N):
                hp, hm, hv = bench.hamiltonian_estimates(entry, d, path)
            H_dev = {"p_plus": float(np.max(np.abs(hp - H0))),
                     "p_minus": float(np.max(np.abs(hm - H0))),
                     "velocity": float(np.max(np.abs(hv - H0)))}
            Hcols = (np.concatenate([[H0], hp]), np.concatenate([[H0], hm]),
                     np.concatenate([[H0], hv]))
        else:
            state0 = ThermoState(cfg.q0, cfg.v0, cfg.S0)
            with tr.span("bench.rk2_integrate", "bench", steps=N):
                traj = bench.rk2_integrate(entry.lagrangian, state0, cfg.h, N)
            qs, vs, Ss = traj.qs, traj.vs, traj.Ss
            with tr.span("bench.h_series", "bench", steps=N):
                hseries = np.array([entry.H(qs[k], vs[k], Ss[k]) for k in range(N + 1)])
            H_dev = {"velocity": float(np.max(np.abs(hseries - H0)))}
            Hcols = (hseries, hseries, hseries)
        report.methods[method] = bench.MethodErrors(
            max_pos_err=float(np.max(np.abs(qs - qref))),
            max_S_err=float(np.max(np.abs(Ss - Sref))),
            H_dev=H_dev, runtime=0.0)
        tables[method] = (ts, qs, vs, Ss) + Hcols

    os.makedirs(cfg.out, exist_ok=True)
    for method, cols in tables.items():
        fname = os.path.join(cfg.out, f"{cfg.system}_{method}.csv")
        with tr.span("bench.write_trajectory_csv", "bench", rows=N + 1) as rec:
            bench.write_trajectory_csv(fname, *cols)
        rec["bytes"] = os.path.getsize(fname)
    with tr.span("bench.write_summary_csv", "bench"):
        bench.write_summary_csv(os.path.join(cfg.out, "summary.csv"), cfg, report)
    return report


def _error_numbers(report):
    return {m: {"max_pos_err": me.max_pos_err, "max_S_err": me.max_S_err,
                "H_dev": dict(me.H_dev)} for m, me in report.methods.items()}


def _trajectory_header(n):
    return ",".join(["t"] + [f"q_{i + 1}" for i in range(n)] + [f"v_{i + 1}" for i in range(n)]
                    + ["S", "H_plus", "H_minus", "H_vel"])


SUMMARY_HEADER = "system,method,h,max_pos_err,max_S_err,max_H_dev"


def _check_csvs(cfg, n, state, key, problems):
    """Header, row count and entropy monotonicity of the written CSVs, and
    their bytes against the first time the cell wrote them."""
    digests = {}
    for method in cfg.methods:
        fname = os.path.join(cfg.out, f"{cfg.system}_{method}.csv")
        with open(fname, "rb") as fh:
            raw = fh.read()
        digests[method] = hashlib.sha256(raw).hexdigest()
        lines = raw.decode().splitlines()
        if lines[0] != _trajectory_header(n):
            problems.append(f"{method} CSV header {lines[0]!r}")
        if len(lines) != cfg.n_steps + 2:
            problems.append(f"{method} CSV has {len(lines) - 1} rows, want {cfg.n_steps + 1}")
        col = 1 + 2 * n
        S = np.array([float(line.split(",")[col]) for line in lines[1:]])
        if not np.all(np.diff(S) >= 0.0):
            problems.append(f"{method} entropy decreases")
    with open(os.path.join(cfg.out, "summary.csv"), "rb") as fh:
        raw = fh.read()
    digests["summary"] = hashlib.sha256(raw).hexdigest()
    if raw.decode().splitlines()[0] != SUMMARY_HEADER:
        problems.append("summary CSV header")
    first = state["digests"].setdefault(key, digests)
    if first != digests:
        problems.append("CSV bytes differ from the first write of this cell")


def run_cell(tr, cell, out, state):
    """One cell through run_experiment (tracing off) or its replay (on)."""
    cfg = _config(cell, out)
    if tr.enabled:
        report = replay_experiment(tr, cfg)
    else:
        report = bench.run_experiment(cfg)
    problems = []
    numbers = _error_numbers(report)
    first = state["numbers"].setdefault(cell["name"], numbers)
    if first != numbers:
        problems.append("error numbers differ from the first run of this cell")
    var, rk2 = report.methods["variational"], report.methods["rk2"]
    if cell["kind"] == "oscillator" and cell.get("check_targets", True):
        c, h = cell["scale"], cell["h"]
        var_t, rk2_t = POSITION_TARGETS[h]
        if not (_within(var.max_pos_err / c, var_t) and _within(rk2.max_pos_err / c, rk2_t)):
            problems.append(f"position errors {var.max_pos_err / c:.4e} / "
                            f"{rk2.max_pos_err / c:.4e} off the frozen table")
        if not _within(var.H_dev["p_plus"] / c ** 2, HPLUS_TARGETS[h]):
            problems.append(f"H+ deviation {var.H_dev['p_plus'] / c ** 2:.4e} off target")
    if cell["kind"] == "gas" and not var.H_dev["p_plus"] < rk2.H_dev["velocity"]:
        problems.append("variational H deviation not below the midpoint baseline")
    _check_csvs(cfg, len(cell["q0"]), state, cell["name"], problems)
    return problems


def matching_cell(tr, cell):
    """Criterion 6's momentum-matching cell: h = 0.1, tol 1e-10."""
    entry = tr.wrap_entry(systems.get_system(cell["system"]))
    with tr.span("discrete.midpoint_discretize", "discrete"):
        d = tr.wrap_discrete(discrete.midpoint_discretize(entry.lagrangian, cell["h"]))
    N = cell["steps"]
    path = integrate_span(tr, d, cell["q0"], cell["q0"], cell["S0"], N,
                          NewtonConfig(tol=cell["tol"]))
    worst = 0.0
    with tr.span("discrete.momentum_matching", "discrete", steps=N - 1):
        for k in range(1, N):
            _, cov_p, S_p = discrete.legendre_plus(d, path.triple(k))
            _, cov_m, S_m = discrete.legendre_minus(d, path.triple(k + 1))
            worst = max(worst, float(np.max(np.abs(cov_p - cov_m))), abs(S_p - S_m))
    problems = []
    if not worst <= MATCHING_BOUND:
        problems.append(f"momentum matching {worst:.3e} above {MATCHING_BOUND:g}")
    if not np.all(np.diff(path.Ss) >= 0.0):
        problems.append("entropy decreases")
    return problems


def cells_pass(tr, inputs, workdir, state):
    res = Results()
    for cell in inputs["cells"]:
        out = os.path.join(workdir, cell["name"])
        with tr.span("cell", "harness", cell=cell["name"]):
            res.check(cell["name"], lambda: run_cell(tr, cell, out, state))
    for cell in inputs["matching"]:
        with tr.span("cell", "harness", cell=cell["name"]):
            res.check(cell["name"], lambda: matching_cell(tr, cell))
    return res


# ---------------------------------------------------------------------------
# structure checks


def _noether_path(tr, spec):
    st = spec["state0"]
    free = tr.wrap_entry(systems.get_system("two-pistons", gamma=0.0))
    h, N, tol = spec["h"], spec["steps"], spec["tol"]
    with tr.span("discrete.midpoint_discretize", "discrete"):
        d = tr.wrap_discrete(discrete.midpoint_discretize(free.lagrangian, h))
    with tr.span("solve.initialize", "solve", mode="taylor"):
        q0, q1, S0 = solve.initialize(free, st["q"], st["v"], st["S"], h, "taylor")
    path = integrate_span(tr, d, q0, q1, S0, N, NewtonConfig(tol=tol))

    def xi(q):
        return np.array([-1.0, 1.0])

    with tr.span("discrete.momentum_map", "discrete", steps=N):
        J = np.array([discrete.momentum_map(d, path.triple(k), xi, "plus")
                      for k in range(1, N + 1)])
    with tr.span("discrete.constraint_residual", "discrete", steps=N):
        residual = path.constraint_residual(d)
    problems = []
    drift = float(np.max(np.abs(J - J[0])))
    if not drift <= N * tol:
        problems.append(f"momentum-map drift {drift:.3e} above N x tol = {N * tol:.1e}")
    if not residual <= CONSTRAINT_BOUND:
        problems.append(f"constraint residual {residual:.3e}")
    return problems


def _continuous_invariant(tr, spec, gamma, invariant):
    st = spec["state0"]
    entry = tr.wrap_entry(systems.get_system("two-pistons", gamma=gamma))
    with tr.span("bench.reference_integrate", "bench"):
        traj = bench.reference_integrate(entry.lagrangian,
                                         ThermoState(st["q"], st["v"], st["S"]),
                                         spec["continuous_t"], h=0.02)
    if invariant == "relative-velocity":
        g = traj.vs[:, 0] - traj.vs[:, 1]
    else:
        g = np.array([entry.invariants[invariant](traj.state(k)) for k in range(len(traj))])
    drift = float(np.max(np.abs(g - g[0])))
    if not drift <= CONTINUOUS_DRIFT_BOUND:
        return [f"{invariant} drift {drift:.3e} above {CONTINUOUS_DRIFT_BOUND:g}"]
    return []


def _flow_and_pullback(tr, d, t, cfg):
    with tr.span("discrete.discrete_flow", "discrete"):
        image = discrete.discrete_flow(d, t, cfg)
    problems = []
    # entropy never decreases, at any step size
    if not (np.array_equal(image.q0, t.q1) and image.S0 >= t.S0):
        problems.append(f"flow image ({image.q0}, S={image.S0!r}) from S={t.S0!r}")
    with tr.span("discrete.pullback_check", "discrete", system=d.name):
        defect = discrete.pullback_check(d, t, cfg)
    if not defect <= PULLBACK_BOUND:
        problems.append(f"pullback defect {defect:.3e} above {PULLBACK_BOUND:g}")
    return problems


def geometry_point(tr, entry, q, p, S):
    """Structure and evolution fields at one point; returns the defects."""
    with tr.span("geometry.point", "geometry"):
        with tr.span("systems.hamiltonian_point", "systems"):
            pt = systems.hamiltonian_point(entry, q, p, S)
        s = geometry.assemble_structure(pt)
        E1 = geometry.evolution_field(s, pt)
        E2 = geometry.evolution_field_coordinates(pt)
        R = geometry.reeb_field(s)
        B = geometry.flat_matrix(s)
    return max(float(np.max(np.abs(E1 - E2))), abs(float(s.eta @ E1)),
               float(np.max(np.abs(s.W.T @ R))), abs(float(s.eta @ R) - 1.0),
               float(np.max(np.abs(B @ R - s.eta))))


def _geometry_check(tr, entry, q, p, S):
    defect = geometry_point(tr, entry, q, p, S)
    return [] if defect <= GEOMETRY_BOUND else [f"geometry defect {defect:.3e}"]


def structure_pass(tr, inputs, workdir, state):
    res = Results()
    spec = inputs["noether"]
    with tr.span("cell", "harness", cell="noether"):
        res.check("noether-discrete", lambda: _noether_path(tr, spec))
        res.check("noether-continuous",
                  lambda: _continuous_invariant(tr, spec, 0.0, "relative-velocity"))
    cfg = NewtonConfig(tol=1e-10)
    for name, triples in inputs["triples"].items():
        entry = tr.wrap_entry(systems.get_system(name))
        d = tr.wrap_discrete(discrete.midpoint_discretize(entry.lagrangian, 0.01))
        with tr.span("cell", "harness", cell=f"pullback-{name}"):
            for i, t in enumerate(triples):
                res.check(f"pullback-{name}-{i}", lambda: _flow_and_pullback(tr, d, t, cfg))
    for name, points in inputs["points"].items():
        entry = tr.wrap_entry(systems.get_system(name))
        with tr.span("cell", "harness", cell=f"geometry-{name}"):
            for i, (q, p, S) in enumerate(points):
                res.check(f"geometry-{name}-{i}", lambda: _geometry_check(tr, entry, q, p, S))
    with tr.span("cell", "harness", cell="cartan"):
        res.check("cartan", lambda: _continuous_invariant(tr, spec, 0.1, "cartan"))
    return res


PASSES = {
    "oscillator-cells": cells_pass,
    "gas-cells": cells_pass,
    "structure-checks": structure_pass,
}
