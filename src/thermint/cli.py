"""Command-line interface: simulate, bench, table, geometry-check, convergence."""

import argparse
import dataclasses
import sys

import numpy as np

from .bench import ExperimentConfig, convergence_study, load_config, run_experiment
from .errors import ConfigError, ConvergenceError, DomainError, ThermintError
from .geometry import (assemble_structure, evolution_field,
                       evolution_field_coordinates, flat_matrix, reeb_field)
from .systems import CATALOG, get_system, hamiltonian_point


def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--system", default=None, choices=sorted(CATALOG))
    p.add_argument("--h", type=float, default=None, help="time step")
    p.add_argument("--t-final", type=float, default=None, help="integration horizon")
    p.add_argument("--gamma", type=float, default=None, help="friction coefficient")
    p.add_argument("--init-mode", default=None,
                   choices=["exact", "reference", "hold", "taylor"])
    p.add_argument("--method", default=None, help="comma-separated method list")
    p.add_argument("--out", default=None, help="output directory for CSV files")
    p.add_argument("--newton-tol", type=float, default=None)


def _experiment_config(args, default_system="oscillator", default_methods=("variational",)):
    raw = load_config(args.config) if args.config else {}
    # flags override config-file values
    for key in ("system", "h", "t_final", "gamma", "init_mode", "out", "newton_tol"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if args.method is not None:
        raw["methods"] = [m.strip() for m in args.method.split(",") if m.strip()]
    system = raw.pop("system", default_system)
    methods = raw.pop("methods", list(default_methods))
    if isinstance(methods, str):
        methods = [methods]
    params = {key: raw.pop(key) for key in ("gamma", "c", "a_hat", "b_hat") if key in raw}
    defaults = {"h": 0.01, "t_final": 1000.0 if system == "oscillator" else 100.0}
    for key, val in defaults.items():
        raw.setdefault(key, val)
    for key in ("q0", "v0", "q1"):
        if key in raw:
            raw[key] = np.atleast_1d(raw[key]).astype(float)
    # params are the factory keys popped above, never a key of their own
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params"}
    unknown = sorted(set(raw) - fields)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return ExperimentConfig(system=system, params=params, methods=tuple(methods), **raw)


def _cmd_simulate(args):
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    for method, me in report.methods.items():
        print(f"{cfg.system} {method} h={cfg.h:g} t_final={cfg.t_final:g}: "
              f"max|q-ref|={me.max_pos_err:.6e} max|S-ref|={me.max_S_err:.6e} "
              f"({me.runtime:.2f}s)")
    if cfg.out:
        print(f"trajectories written to {cfg.out}")
    return 0


def _cmd_bench(args):
    cfg = _experiment_config(args, default_methods=("variational", "rk2"))
    report = run_experiment(cfg)
    print("system,method,h,max_pos_err,max_S_err,max_H_dev")
    for method, me in report.methods.items():
        primary = me.H_dev.get("p_plus", me.H_dev["velocity"])
        print(f"{cfg.system},{method},{cfg.h:g},{me.max_pos_err:.6e},"
              f"{me.max_S_err:.6e},{primary:.6e}")
    if cfg.out:
        print(f"CSV files written to {cfg.out}")
    return 0


def _cmd_table(args):
    h_list = [float(x) for x in args.h_list.split(",")]
    gamma = args.gamma if args.gamma is not None else 0.1

    if args.which == "gas":
        for system in ("ideal-gas", "van-der-waals"):
            cfg = ExperimentConfig(system=system, params={"gamma": gamma}, h=args.h or 0.01,
                                   t_final=args.t_final or 100.0,
                                   methods=("variational", "rk2"))
            rep = run_experiment(cfg)
            var, rk2 = rep.methods["variational"], rep.methods["rk2"]
            print(f"{system}: position {var.max_pos_err:.4g} / {rk2.max_pos_err:.4g}, "
                  f"entropy {var.max_S_err:.4g} / {rk2.max_S_err:.4g}, "
                  f"H {var.H_dev['p_plus']:.4g} / {rk2.H_dev['velocity']:.4g} "
                  f"(variational / midpoint)")
        return 0

    t_final = args.t_final or 1000.0
    # the entropy table integrates only its window, cut to the horizon: the
    # first steps of a path do not depend on the horizon
    steps = {h: min(args.window, int(round(t_final / h))) for h in h_list}
    if len(set(steps.values())) == 1:
        window = f"first {steps[h_list[0]]} steps"
    else:
        window = "first " + ", ".join(f"{k} steps at h={h:g}" for h, k in steps.items())
    print({"position": "h,variational,midpoint",
           "entropy": f"h,variational,midpoint   ({window})",
           "hamiltonian": "h,H_p_plus,H_p_minus,H_velocity,H_midpoint"}[args.which])
    for h in h_list:
        horizon, tol = t_final, None
        if args.which == "entropy":
            horizon, tol = steps[h] * h, 1e-12
        cfg = ExperimentConfig(system="oscillator", params={"gamma": gamma}, h=h,
                               t_final=horizon, methods=("variational", "rk2"),
                               newton_tol=tol)
        rep = run_experiment(cfg)
        var, rk2 = rep.methods["variational"], rep.methods["rk2"]
        if args.which == "position":
            cells = (var.max_pos_err, rk2.max_pos_err)
        elif args.which == "entropy":
            cells = (var.max_S_err, rk2.max_S_err)
        else:
            cells = (var.H_dev["p_plus"], var.H_dev["p_minus"], var.H_dev["velocity"],
                     rk2.H_dev["velocity"])
        print(",".join([f"{h:g}"] + [f"{x:.4e}" for x in cells]))
    return 0


def _cmd_geometry_check(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for name in sorted(CATALOG):
        entry = get_system(name)
        n = entry.n
        for _ in range(args.points):
            q = rng.uniform(0.5, 1.5, size=n)
            p = rng.uniform(-1.0, 1.0, size=n)
            S = rng.uniform(0.0, 2.0)
            pt = hamiltonian_point(entry, q, p, S)
            s = assemble_structure(pt)
            E1 = evolution_field(s, pt)
            E2 = evolution_field_coordinates(pt)
            R = reeb_field(s)
            B = flat_matrix(s)
            defects = [
                np.max(np.abs(E1 - E2)),
                abs(s.eta @ E1),
                np.max(np.abs(s.W.T @ R)),
                abs(s.eta @ R - 1.0),
                np.max(np.abs(B @ R - s.eta)),
            ]
            worst = max(worst, max(defects))
        print(f"{name}: ok ({args.points} random points)")
    print(f"max geometric defect: {worst:.3e}")
    if worst > args.tol:
        print(f"FAIL: defect above tolerance {args.tol:g}")
        return 1
    return 0


def _cmd_convergence(args):
    h_list = [float(x) for x in args.h_list.split(",")]
    params = {"gamma": args.gamma} if args.gamma is not None else {}
    slope, errors = convergence_study(args.system or "oscillator", h_list,
                                      t_final=args.t_final or 1000.0, params=params)
    for h, err in zip(h_list, errors):
        print(f"h={h:g}: max position error {err:.6e}")
    print(f"fitted order: {slope:.3f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thermint",
        description="Variational integrators for adiabatically closed simple "
                    "thermodynamic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one system with one method")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="run several methods and report errors")
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table", help="reproduce the benchmark tables")
    p.add_argument("--which", default="position",
                   choices=["position", "entropy", "hamiltonian", "gas"])
    p.add_argument("--h-list", default="0.1,0.01,0.001")
    p.add_argument("--h", type=float, default=None, help="step for the gas table")
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--window", type=int, default=1500,
                   help="number of steps for the entropy comparison")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("geometry-check", help="verify the structure identities "
                                              "on random phase-space points")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_geometry_check)

    p = sub.add_parser("convergence", help="fit the order of the position error")
    p.add_argument("--system", default="oscillator", choices=sorted(CATALOG))
    p.add_argument("--h-list", default="0.1,0.01,0.001")
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DomainError) as exc:
        where = f" at step {exc.step_index}" if exc.step_index is not None else ""
        if exc.triple is not None:
            t = exc.triple
            where += f" from triple (q0={t.q0.tolist()}, q1={t.q1.tolist()}, S0={t.S0!r})"
        print(f"solver failure{where}: {exc}", file=sys.stderr)
        return 3
    except ThermintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
