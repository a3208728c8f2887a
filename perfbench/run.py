"""thermint benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a thermint checkout:

    python3 perfbench/run.py --workload oscillator-cells --seed 1 --seconds 20 --trace 0

Workloads: ``oscillator-cells``, ``gas-cells``, ``structure-checks`` (see
workloads.py and BENCHMARK.json).  The run times the set-up of a fresh
``thermint`` process, then repeats the workload's pass until ``--seconds``
have elapsed (at least three times) with tracing off.  Times in seconds
(``setup_s``, ``wall_s``, ``integrate_steps_per_s``) are stated at a
reference speed: each measured time is scaled by CAL_REFERENCE_S over the
time of a calibration loop run just before and after it (see
`calibrate`), because a shared host's single-core speed swings by up to
2x within minutes.  The run pins itself and its children to one core so
that the calibration measures the core the timed work ran on.  The
measured values are kept in the result file.

With ``--trace 1`` the run then repeats the pass as long again with
tracing on and reports the per-layer metrics, the tracing overhead and
each layer's share of the traced time.  Every result is checked against the frozen bounds of the
acceptance suite; a failed result is counted, not raised.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Machine facts,
every result and the spans go to ``.perfbench/`` in the checkout.
"""

import os

# one process, one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oscillator-cells", "gas-cells", "structure-checks")
MIN_PASSES = 3
SETUP_REPEATS = 3
#: calibration-loop time that defines the reference speed: a time reported
#: in seconds is the measured time x CAL_REFERENCE_S / the calibration time
#: measured next to it
CAL_REFERENCE_S = 0.03

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "integrate_steps_per_s": "steps/s",
                    "peak_rss_mb": "MiB", "pass_ratio": "ratio"}


def _read_proc(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _read_proc("/proc/cpuinfo", "model name"),
        "mem_total": _read_proc("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threading.active_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibrate(n=10_000):
    """Seconds taken by a fixed loop of scalar numpy and float arithmetic.

    The loop uses no thermint code and does the kind of work its hot paths
    do.  On a shared host one core's speed swings by up to 2x within
    seconds to minutes; a time divided by this loop's time, measured next
    to it, keeps the program's cost and drops most of the swing.
    """
    import numpy as np

    x, acc = np.array([0.3]), 0.0
    t0 = time.perf_counter()
    for i in range(n):
        x = 0.5 * (x + 1.0 / (x + 1.0))
        acc += float(x[0]) * i
    return time.perf_counter() - t0


def _calibrated(fn):
    """fn's result and the mean calibration time just before and after it."""
    before = calibrate()
    out = fn()
    return out, 0.5 * (before + calibrate())


def measure_setup(root, spec, repeats=SETUP_REPEATS):
    """Set-up and import time over fresh interpreters, one at a time: the
    medians at reference speed, and the raw medians."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    runs = []
    for _ in range(repeats):
        out, cal = _calibrated(lambda: subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), json.dumps(spec)],
            env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True))
        runs.append(dict(json.loads(out.stdout.strip().splitlines()[-1]), cal=cal))
    keys = ("setup_s", "import_s")
    result = {k: statistics.median(r[k] * CAL_REFERENCE_S / r["cal"] for r in runs) for k in keys}
    result["raw"] = {k: statistics.median(r[k] for r in runs) for k in keys}
    return result


def measure(workload, inputs, seconds, workdir, state, tr=None):
    """Repeat the pass for ``seconds`` (at least MIN_PASSES times)."""
    import tracing
    import workloads

    run_pass = workloads.PASSES[workload]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_tr = tr or tracing.NullTracer()
        timer = tracing.IntegrateTimer()

        def one_pass():
            t0 = time.perf_counter()
            with timer, pass_tr.span("pass", "harness"):
                res = run_pass(pass_tr, inputs, workdir, state)
            return res, time.perf_counter() - t0

        (res, wall), cal = _calibrated(one_pass)
        passes.append({"wall": wall, "cal": cal, "results": res.items,
                       "integrate_s": timer.seconds, "integrate_steps": timer.steps})
    return passes


def run_workload(workload, seed, seconds, trace, root, size="full", inputs=None,
                 setup_repeats=SETUP_REPEATS):
    """Run one workload; returns the full result record."""
    import layers
    import tracing
    import workloads

    if inputs is None:
        inputs = workloads.make_inputs(workload, seed, size)
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    state = {"digests": {}, "numbers": {}}
    try:
        setup = measure_setup(root, inputs["setup"], setup_repeats)
        untraced = measure(workload, inputs, seconds, workdir, state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, tr, probe_tr, iso = [], None, None, {}
        if trace:
            tr = tracing.Tracer()
            traced = measure(workload, inputs, seconds, workdir, state, tr)
            probe_tr = tracing.Tracer()
            path = layers.probe(probe_tr, workload, inputs, workdir)
            iso = layers.isolated(workload, path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in untraced + traced for r in p["results"]]
    attempted, failed = len(results), sum(not r["ok"] for r in results)
    if not all(p["integrate_s"] > 0 for p in untraced):
        raise RuntimeError("no thermint.solve.integrate call was timed")
    wall = [p["wall"] for p in untraced]
    cal = [p["cal"] for p in untraced]
    rates = [p["integrate_steps"] / p["integrate_s"] for p in untraced]
    steps = sum(p["integrate_steps"] for p in untraced)
    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median([w * CAL_REFERENCE_S / c for w, c in zip(wall, cal)]),
        "integrate_steps_per_s": steps / sum(p["integrate_s"] * CAL_REFERENCE_S / p["cal"]
                                             for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": 1.0 - failed / attempted,
    }
    raw = {"setup_s": setup["raw"]["setup_s"], "wall_s": statistics.median(wall),
           "integrate_steps_per_s": steps / sum(p["integrate_s"] for p in untraced)}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "inputs_size": size,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failure_ratio": failed / attempted,
        "end_to_end": e2e,
        "raw": raw,
        "passes": {"untraced": wall, "traced": [p["wall"] for p in traced],
                   "calibration": cal, "integrate_steps_per_s": rates},
        "failures": [r for r in results if not r["ok"]][:50],
    }
    if trace:
        per_layer, sources = {}, {}
        for source, values in (("probe", layers.span_metrics(probe_tr)), ("isolated", iso),
                               ("pass", layers.span_metrics(tr))):
            for k, val in values.items():
                per_layer[k], sources[k] = val, source
        per_layer["cli.import_s"], sources["cli.import_s"] = setup["import_s"], "setup"
        per_layer["tracing.overhead_s"] = statistics.median(
            [p["wall"] * CAL_REFERENCE_S / p["cal"] for p in traced]) - e2e["wall_s"]
        sources["tracing.overhead_s"] = "pass"
        for k, val in layers.self_time_shares(tr).items():
            per_layer[k], sources[k] = val, "pass"
        record["per_layer"] = per_layer
        record["per_layer_source"] = sources
        record["per_layer_breakdown"] = layers.breakdowns(tr)
        record["moves"] = {k: {"metric": m, "workloads": list(w)}
                           for k, (_u, _b, m, w) in layers.PER_LAYER.items()}
        record["trace_file"] = _write_json(
            base, "trace", f"{workload}-seed{seed}.json",
            {"workload": workload, "seed": seed, "pass": tr.dump(), "probe": probe_tr.dump()})
    return record


def _write_json(base, sub, name, obj):
    os.makedirs(os.path.join(base, sub), exist_ok=True)
    path = os.path.join(base, sub, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, default=float)
    return os.path.relpath(path, os.path.dirname(base))


def result_line(record):
    import layers

    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": unit}
                   for k, (unit, _b, _m, _w) in layers.PER_LAYER.items()}
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "thermint", "__init__.py")):
        print("perfbench: no thermint sources in ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import thermint

    if not os.path.abspath(thermint.__file__).startswith(src + os.sep):
        print(f"perfbench: imported thermint from {thermint.__file__}, not ./src",
              file=sys.stderr)
        return 2

    # one core for the calibration loop, the passes and the set-up children,
    # so that each calibration measures the core the timed work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
    result_file = _write_json(os.path.join(root, ".perfbench"), "results",
                              f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} results, "
          f"{record['failed']} failed; machine {json.dumps(record['machine'])}")
    for k, unit in END_TO_END_UNITS.items():
        raw = record["raw"].get(k)
        print(f"  {k} = {record['end_to_end'][k]:.6g} {unit}"
              + (f" (measured {raw:.6g} {unit} at this host's speed)" if raw else ""))
    print(f"  failure_ratio = {record['failure_ratio']:.6g} ratio")
    if args.trace:
        for k, val in record["per_layer"].items():
            print(f"  {k} = {val:.6g} ({record['per_layer_source'][k]})")
    for r in record["failures"][:10]:
        print(f"FAILED {r['name']}: {'; '.join(r['problems'])}", file=sys.stderr)
    print(f"  details in {result_file}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
