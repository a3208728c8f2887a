"""Command-line interface: simulate, bench, table, geometry-check, convergence.

Flags carry text for the kinds of `bench.KINDS` to parse, as config-file values do.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .bench import (FACTORY_KEYS, KINDS, ExperimentConfig, _kind, _positive,
                    convergence_study, load_config, run_experiment)
from .errors import ConfigError, ConvergenceError, DomainError, ThermintError
from .geometry import structure_defect
from .systems import CATALOG, get_system, hamiltonian_point

# the kinds of the integer flags, which no config key takes
_count = _kind("a positive integer", int, lambda k: k > 0)
_seed = _kind("a nonnegative integer", int, lambda k: k >= 0)


def _add_run(sub, name, func, help):
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--system", help=f"one of {', '.join(sorted(CATALOG))}")
    p.add_argument("--h", help="time step")
    p.add_argument("--t-final", help="integration horizon")
    p.add_argument("--gamma", help="friction coefficient")
    p.add_argument("--init-mode", help="exact, reference, hold or taylor")
    p.add_argument("--method", dest="methods", help="comma-separated method list")
    p.add_argument("--out", help="output directory for CSV files")
    p.add_argument("--newton-tol")


def _experiment_config(args, methods):
    """The cell of the config file, with the flags given over it."""
    raw = {"methods": methods, **(load_config(args.config) if args.config else {})}
    raw.update((key, val) for key, val in vars(args).items()
               if key in KINDS and val is not None)
    params = {key: raw.pop(key) for key in FACTORY_KEYS if key in raw}
    return ExperimentConfig(params=params, **raw)


def _cmd_simulate(args):
    cfg = _experiment_config(args, ("variational",))
    report = run_experiment(cfg)
    for method, me in report.methods.items():
        print(f"{cfg.system} {method} h={cfg.h:g} t_final={cfg.t_final:g}: "
              f"max|q-ref|={me.max_pos_err:.6e} max|S-ref|={me.max_S_err:.6e} "
              f"({me.runtime:.2f}s)")
    if cfg.out:
        print(f"trajectories written to {cfg.out}")
    return 0


def _cmd_bench(args):
    cfg = _experiment_config(args, ("variational", "rk2"))
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
    h_list = [KINDS["h"](h, "h-list") for h in args.h_list.split(",")]
    window = _count(args.window, "window")
    params = {"gamma": args.gamma}
    if args.which == "gas":
        cfgs = [ExperimentConfig(system=system, h=args.h, t_final=args.t_final, params=params)
                for system in ("ideal-gas", "van-der-waals")]
    else:
        cfgs = [ExperimentConfig(h=h, t_final=args.t_final, params=params) for h in h_list]
    if args.which == "entropy":
        # the entropy table integrates only its window, cut to the horizon: the
        # first steps of a path do not depend on the horizon
        cfgs = [dataclasses.replace(cfg, t_final=min(window, cfg.n_steps) * cfg.h)
                for cfg in cfgs]
        steps = {cfg.h: cfg.n_steps for cfg in cfgs}
        if len(set(steps.values())) == 1:
            window = f"first {cfgs[0].n_steps} steps"
        else:
            window = "first " + ", ".join(f"{k} steps at h={h:g}" for h, k in steps.items())
        print(f"h,variational,midpoint   ({window})")
    elif args.which != "gas":
        print({"position": "h,variational,midpoint",
               "hamiltonian": "h,H_p_plus,H_p_minus,H_velocity,H_midpoint"}[args.which])
    for cfg in cfgs:
        rep = run_experiment(cfg)
        var, rk2 = rep.methods["variational"], rep.methods["rk2"]
        if args.which == "gas":
            print(f"{cfg.system}: position {var.max_pos_err:.4g} / {rk2.max_pos_err:.4g}, "
                  f"entropy {var.max_S_err:.4g} / {rk2.max_S_err:.4g}, "
                  f"H {var.H_dev['p_plus']:.4g} / {rk2.H_dev['velocity']:.4g} "
                  f"(variational / midpoint)")
            continue
        if args.which == "position":
            cells = (var.max_pos_err, rk2.max_pos_err)
        elif args.which == "entropy":
            cells = (var.max_S_err, rk2.max_S_err)
        else:
            cells = (var.H_dev["p_plus"], var.H_dev["p_minus"], var.H_dev["velocity"],
                     rk2.H_dev["velocity"])
        print(",".join([f"{cfg.h:g}"] + [f"{x:.4e}" for x in cells]))
    return 0


def _cmd_geometry_check(args):
    points, tol = _count(args.points, "points"), _positive(args.tol, "tol")
    rng = np.random.default_rng(_seed(args.seed, "seed"))
    worst = 0.0
    for name in sorted(CATALOG):
        entry = get_system(name)
        system_worst = 0.0
        for _ in range(points):
            q = rng.uniform(0.5, 1.5, size=entry.n)
            p = rng.uniform(-1.0, 1.0, size=entry.n)
            S = rng.uniform(0.0, 2.0)
            system_worst = max(system_worst, structure_defect(hamiltonian_point(entry, q, p, S)))
        verdict = "FAIL" if system_worst > tol else "ok"
        print(f"{name}: {verdict}, max defect {system_worst:.3e} ({points} random points)")
        worst = max(worst, system_worst)
    print(f"max geometric defect: {worst:.3e}")
    if worst > tol:
        print(f"FAIL: defect above tolerance {tol:g}")
        return 1
    return 0


def _cmd_convergence(args):
    h_list = [KINDS["h"](h, "h-list") for h in args.h_list.split(",")]
    slope, errors = convergence_study(args.system, h_list, t_final=args.t_final,
                                      params={"gamma": args.gamma})
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

    _add_run(sub, "simulate", _cmd_simulate, "integrate one system with one method")
    _add_run(sub, "bench", _cmd_bench, "run several methods and report errors")

    p = sub.add_parser("table", help="reproduce the benchmark tables")
    p.add_argument("--which", default="position",
                   choices=["position", "entropy", "hamiltonian", "gas"])
    p.add_argument("--h-list", default="0.1,0.01,0.001")
    p.add_argument("--h", help="step for the gas table")
    p.add_argument("--t-final")
    p.add_argument("--gamma")
    p.add_argument("--window", default="1500",
                   help="number of steps for the entropy comparison")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("geometry-check", help="verify the structure identities "
                                              "on random phase-space points")
    p.add_argument("--points", default="100")
    p.add_argument("--seed", default="0")
    p.add_argument("--tol", default="1e-12")
    p.set_defaults(func=_cmd_geometry_check)

    p = sub.add_parser("convergence", help="fit the order of the position error")
    p.add_argument("--system", default="oscillator",
                   help=f"one of {', '.join(sorted(CATALOG))}")
    p.add_argument("--h-list", default="0.1,0.01,0.001")
    p.add_argument("--t-final", default="1000")
    p.add_argument("--gamma")
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DomainError, ArithmeticError) as exc:
        # an ArithmeticError is a value beyond the float range, which ends the
        # run as a domain guard does instead of going on with inf or nan
        step, t = getattr(exc, "step_index", None), getattr(exc, "triple", None)
        where = f" at step {step}" if step is not None else ""
        if t is not None:
            where += f" from triple (q0={t.q0.tolist()}, q1={t.q1.tolist()}, S0={t.S0!r})"
        print(f"solver failure{where}: {exc}", file=sys.stderr)
        return 3
    except ThermintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
