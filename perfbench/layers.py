"""Per-layer metrics of the traced run, and what each should move.

Layers are thermint's modules: systems, continuous, discrete, solve,
bench, geometry and cli.  Most metrics come from the spans and call
counts of the traced passes.  A metric whose layer the workload's pass
does not run (the geometry on a cell workload, say) comes from a small
probe of that layer on the workload's own system, run after the passes
and kept out of the time shares.  Two per-call costs, of `continuous_rhs`
and `discrete_momenta`, are timed in isolation with tracing off.
"""

import os
import time

import numpy as np

from thermint import bench, continuous, discrete, solve, systems
from thermint.continuous import ThermoState
from thermint.solve import NewtonConfig

import workloads

LAYERS = ("systems", "continuous", "discrete", "solve", "bench", "geometry", "harness")

CELLS = ("oscillator-cells", "gas-cells")
ALL = ("oscillator-cells", "gas-cells", "structure-checks")

# name -> (unit, better, end-to-end metric it should move, workloads)
PER_LAYER = {
    "systems.lagrangian_us": ("us", "lower", "integrate_steps_per_s", ("gas-cells",)),
    "systems.lagrangian_calls_per_step": ("count", "lower", "integrate_steps_per_s", ALL),
    "systems.hamiltonian_us": ("us", "lower", "wall_s", CELLS),
    "continuous.rhs_us": ("us", "lower", "wall_s", CELLS),
    "continuous.rhs_calls": ("count", "lower", "wall_s", CELLS),
    "discrete.covectors_us": ("us", "lower", "integrate_steps_per_s", ALL),
    "discrete.entropy_update_us": ("us", "lower", "integrate_steps_per_s", ALL),
    "discrete.jacobian_us": ("us", "lower", "integrate_steps_per_s", ALL),
    "discrete.momenta_us": ("us", "lower", "wall_s", CELLS),
    "discrete.momentum_matching_us_per_step": ("us", "lower", "wall_s", ("gas-cells",)),
    "discrete.momentum_map_us_per_step": ("us", "lower", "wall_s", ("structure-checks",)),
    "discrete.constraint_residual_us_per_step": ("us", "lower", "wall_s",
                                                 ("structure-checks",)),
    "discrete.flow_us": ("us", "lower", "wall_s", ("structure-checks",)),
    "discrete.pullback_check_ms": ("ms", "lower", "wall_s", ("structure-checks",)),
    "solve.integrate_us_per_step": ("us", "lower", "integrate_steps_per_s", ALL),
    "solve.self_us_per_step": ("us", "lower", "integrate_steps_per_s", ALL),
    "solve.newton_iters_per_step": ("count", "lower", "integrate_steps_per_s", ALL),
    "solve.residual_evals_per_step": ("count", "lower", "integrate_steps_per_s", ALL),
    "solve.newton_iters_per_flow": ("count", "lower", "wall_s", ("structure-checks",)),
    "solve.initialize_ms": ("ms", "lower", "setup_s", ALL),
    "bench.estimators_us_per_step": ("us", "lower", "wall_s", CELLS),
    "bench.rk2_us_per_step": ("us", "lower", "wall_s", CELLS),
    "bench.reference_exact_us_per_point": ("us", "lower", "wall_s", ("oscillator-cells",)),
    "bench.reference_rk45_s": ("s", "lower", "wall_s", ("gas-cells", "structure-checks")),
    "bench.csv_us_per_row": ("us", "lower", "wall_s", CELLS),
    "bench.csv_bytes": ("bytes", "lower", "wall_s", CELLS),
    "geometry.point_us": ("us", "lower", "wall_s", ("structure-checks",)),
    "cli.import_s": ("s", "lower", "setup_s", ALL),
    "tracing.overhead_s": ("s", "lower", "wall_s", ALL),
}
for _layer in LAYERS:
    PER_LAYER[f"share.{_layer}"] = ("ratio", "lower", "wall_s", ALL)


# ---------------------------------------------------------------------------
# reading a tracer


class _View:
    def __init__(self, tr):
        self.tr = tr
        self.by_name = {}
        for s in tr.spans:
            self.by_name.setdefault(s["name"], []).append(s)
        self.passes = max(1, len(self.by_name.get("pass", [])))

    def spans(self, name):
        return self.by_name.get(name, [])

    def total(self, name, key=None):
        spans = self.spans(name)
        dur = sum(s["end"] - s["start"] for s in spans)
        return dur, (sum(s[key] for s in spans) if key else len(spans))

    def calls(self, names, within=None):
        """Count and total time of wrapped calls, optionally only those made
        inside spans of one name."""
        count = total = 0.0
        for (name, _layer, span), (c, t, _s) in self.tr.calls.items():
            if name in names and (within is None or span == within):
                count += c
                total += t
        return count, total


def _per(num, den, scale=1.0):
    return num / den * scale if den else None


def span_metrics(tr):
    """Metrics that the spans and counters of one tracer can give."""
    v = _View(tr)
    out = {}
    lag = {n for (n, layer, _p) in tr.calls if layer == "systems" and n.startswith("L.")}
    c, t = v.calls(lag)
    out["systems.lagrangian_us"] = _per(t, c, 1e6)
    integ = "solve.integrate"
    _, solves = v.total("solve.integrate", "solves")
    out["systems.lagrangian_calls_per_step"] = _per(v.calls(lag, integ)[0], solves)
    c, t = v.calls({"H.H"})
    out["systems.hamiltonian_us"] = _per(t, c, 1e6)
    out["continuous.rhs_calls"] = _per(v.calls({"L.accel"})[0], v.passes) or None
    c, t = v.calls({"D.pi_minus", "D.pi_plus"})
    out["discrete.covectors_us"] = _per(t, c, 1e6)
    c, t = v.calls({"D.entropy_increment"})
    out["discrete.entropy_update_us"] = _per(t, c, 1e6)
    c, t = v.calls({"D.pi_minus_dq1"})
    out["discrete.jacobian_us"] = _per(t, c, 1e6)
    for metric, name in (("discrete.momentum_matching_us_per_step", "discrete.momentum_matching"),
                         ("discrete.momentum_map_us_per_step", "discrete.momentum_map"),
                         ("discrete.constraint_residual_us_per_step",
                          "discrete.constraint_residual"),
                         ("solve.integrate_us_per_step", "solve.integrate"),
                         ("bench.estimators_us_per_step", "bench.hamiltonian_estimates"),
                         ("bench.rk2_us_per_step", "bench.rk2_integrate")):
        dur, steps = v.total(name, "steps")
        out[metric] = _per(dur, steps, 1e6)
    dur, n = v.total("discrete.discrete_flow")
    out["discrete.flow_us"] = _per(dur, n, 1e6)
    dur, n = v.total("discrete.pullback_check")
    out["discrete.pullback_check_ms"] = _per(dur, n, 1e3)
    _, steps = v.total("solve.integrate", "steps")
    out["solve.self_us_per_step"] = _per(sum(s["self"] for s in v.spans("solve.integrate")),
                                         steps, 1e6)
    out["solve.newton_iters_per_step"] = _per(v.calls({"D.pi_minus_dq1"}, integ)[0], solves)
    out["solve.residual_evals_per_step"] = _per(v.calls({"D.pi_minus"}, integ)[0], solves)
    out["solve.newton_iters_per_flow"] = _per(
        v.calls({"D.pi_minus_dq1"}, "discrete.discrete_flow")[0],
        len(v.spans("discrete.discrete_flow")))
    dur, n = v.total("solve.initialize")
    out["solve.initialize_ms"] = _per(dur, n, 1e3)
    dur, points = v.total("bench.reference_exact", "points")
    out["bench.reference_exact_us_per_point"] = _per(dur, points, 1e6)
    dur, n = v.total("bench.reference_integrate")
    out["bench.reference_rk45_s"] = _per(dur, n)
    dur, rows = v.total("bench.write_trajectory_csv", "rows")
    out["bench.csv_us_per_row"] = _per(dur, rows, 1e6)
    _, nbytes = v.total("bench.write_trajectory_csv", "bytes")
    out["bench.csv_bytes"] = _per(nbytes, v.passes) or None
    dur, n = v.total("geometry.point")
    out["geometry.point_us"] = _per(dur, n, 1e6)
    return {k: val for k, val in out.items() if val is not None}


def breakdowns(tr):
    """Mean pullback check per system and initialization per mode, in ms."""
    out = {}
    for metric, name, key in (("discrete.pullback_check_ms", "discrete.pullback_check", "system"),
                              ("solve.initialize_ms", "solve.initialize", "mode")):
        groups = {}
        for s in tr.spans:
            if s["name"] == name:
                groups.setdefault(s[key], []).append(s["end"] - s["start"])
        out[metric] = {k: 1e3 * sum(v) / len(v) for k, v in groups.items()}
    return out


def self_time_shares(tr):
    """Share of the traced passes' time that each layer takes as self time."""
    passes = [s for s in tr.spans if s["name"] == "pass"]
    total = sum(s["end"] - s["start"] for s in passes)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in tr.spans:
        by_layer[s["layer"]] += s["self"]
    for (_n, layer, _p), (_c, _t, self_t) in tr.calls.items():
        by_layer[layer] += self_t
    return {f"share.{layer}": by_layer[layer] / total for layer in LAYERS}


# ---------------------------------------------------------------------------
# probes and isolated timings

PROBE_STEPS = 200

# the system each workload's probe runs on
PROBE_SYSTEMS = {
    "oscillator-cells": ("oscillator", {"gamma": 0.1}, "exact"),
    "gas-cells": ("ideal-gas", {}, "hold"),
    "structure-checks": ("two-pistons", {}, "taylor"),
}


def probe(tr, workload, inputs, workdir):
    """One small run of every layer on the workload's system."""
    name, params, mode = PROBE_SYSTEMS[workload]
    st = inputs["setup"]
    q0, v0, S0 = st["q0"], st["v0"], st["S0"]
    h, N = 0.01, PROBE_STEPS
    with tr.span("pass", "harness", kind="probe"):
        entry = tr.wrap_entry(systems.get_system(name, **params))
        d = tr.wrap_discrete(discrete.midpoint_discretize(entry.lagrangian, h))
        with tr.span("solve.initialize", "solve", mode=mode):
            qa, qb, Sa = solve.initialize(entry, q0, v0, S0, h, mode)
        cfg = NewtonConfig(tol=bench.default_newton_tol(name, h))
        path = workloads.integrate_span(tr, d, qa, qb, Sa, N, cfg)
        state0 = ThermoState(q0, v0, S0)
        with tr.span("bench.hamiltonian_estimates", "bench", steps=N):
            hp, _, _ = bench.hamiltonian_estimates(entry, d, path)
        with tr.span("bench.rk2_integrate", "bench", steps=N):
            traj = bench.rk2_integrate(entry.lagrangian, state0, h, N)
        with tr.span("bench.reference_integrate", "bench", points=N + 1):
            bench.reference_integrate(entry.lagrangian, state0, N * h, h=h)
        osc = tr.wrap_entry(systems.get_system("oscillator", gamma=0.1))
        ts = h * np.arange(N + 1)
        with tr.span("bench.reference_exact", "bench", points=N + 1):
            sol = osc.exact_solution([0.0], [1.0], 0.0)
            sol.q(ts), sol.v(ts), sol.entropy(ts)
        fname = os.path.join(workdir, "probe.csv")
        H = np.concatenate([[hp[0]], hp])
        with tr.span("bench.write_trajectory_csv", "bench", rows=N + 1) as rec:
            bench.write_trajectory_csv(fname, ts, path.qs, traj.vs, path.Ss, H, H, H)
        rec["bytes"] = os.path.getsize(fname)
        os.remove(fname)
        with tr.span("discrete.momentum_matching", "discrete", steps=N - 1):
            for k in range(1, N):
                discrete.legendre_plus(d, path.triple(k))
                discrete.legendre_minus(d, path.triple(k + 1))
        ones = np.ones(entry.n)
        with tr.span("discrete.momentum_map", "discrete", steps=N):
            for k in range(1, N + 1):
                discrete.momentum_map(d, path.triple(k), lambda q: ones, "plus")
        with tr.span("discrete.constraint_residual", "discrete", steps=N):
            path.constraint_residual(d)
        for k in range(1, N + 1, N // 5):
            with tr.span("discrete.discrete_flow", "discrete"):
                discrete.discrete_flow(d, path.triple(k), cfg)
        for k in (1, N // 2):
            with tr.span("discrete.pullback_check", "discrete", system=name):
                discrete.pullback_check(d, path.triple(k), cfg)
        for k in range(1, N + 1, N // 20):
            p = (path.qs[k] - path.qs[k - 1]) / h
            workloads.geometry_point(tr, entry, path.qs[k], p, path.Ss[k])
    return path


def isolated(workload, path, repeats=5):
    """Per-call cost of continuous_rhs and discrete_momenta, tracing off:
    the median over repeats of a loop over the probe path."""
    name, params, _ = PROBE_SYSTEMS[workload]
    entry = systems.get_system(name, **params)
    d = discrete.midpoint_discretize(entry.lagrangian, path.h)
    triples = list(path.triples())
    states = [ThermoState(t.q1, (t.q1 - t.q0) / path.h, t.S0) for t in triples]

    def timed(fn, items):
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for x in items:
                fn(x)
            runs.append((time.perf_counter() - t0) / len(items))
        return float(np.median(runs)) * 1e6

    return {
        "continuous.rhs_us": timed(lambda s: continuous.continuous_rhs(entry.lagrangian, s),
                                   states),
        "discrete.momenta_us": timed(lambda t: discrete.discrete_momenta(d, t), triples),
    }
