"""The non-slow tier-1 under the three host-dispatch settings, against a ledger.

numpy and OpenBLAS choose their kernels by the CPU at run time, and the
suite's pinned bits were recorded where numpy runs its X86_V4 (AVX-512)
loops and OpenBLAS its SkylakeX kernels (see tests/test_platform.py).
Three environment settings make a host with AVX-512 take the kernels that
a host without it takes:

    numpy     NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
    openblas  OPENBLAS_CORETYPE=Haswell
    both      the numpy setting with OPENBLAS_CORETYPE=Zen

The script runs the non-slow tier-1 in a subprocess under each setting,
reads the failing node ids from a junit XML and compares them with the
committed ledger `tests/hostsim_ledger.json`: setting -> failing id -> the
kernels of tests/test_platform.py (`kernels_rounding_otherwise`) that the
failure rests on.  A failure under ``both`` rests on the kernels of the
single setting it also fails under, and on all of its kernels otherwise.
Every run takes all three settings.  It prints the ids that moved in and
out of the ledger and exits 1 if any moved.  The ledger is a record, not a gate: pytest collects only
``test_*.py`` here, so tier-1 never runs this file.

    python tests/hostsim.py            # against the ledger
    python tests/hostsim.py --record   # rewriting the ledger

Each setting takes about as long as the non-slow tier-1 (~40 s on a
2-core x86-64 host).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("hostsim_ledger.json")

_NUMPY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
SETTINGS = {
    "numpy": _NUMPY,
    "openblas": {"OPENBLAS_CORETYPE": "Haswell"},
    "both": {**_NUMPY, "OPENBLAS_CORETYPE": "Zen"},
}

_KERNELS = ("import sys; sys.path.insert(0, 'tests'); import json, test_platform; "
            "print(json.dumps(test_platform.kernels_rounding_otherwise()))")


def _env(setting):
    env = dict(os.environ, **SETTINGS[setting])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


def kernels(setting):
    """The kernels that round otherwise under the setting."""
    out = subprocess.run([sys.executable, "-c", _KERNELS], cwd=ROOT, env=_env(setting),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def failing(setting):
    """The node ids, as ``module.Class::name``, that fail or error in the
    non-slow tier-1 under the setting."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-m", "not slow",
                        "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        f"--junitxml={report}"],
                       cwd=ROOT, env=_env(setting), stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=False)
        cases = ET.parse(report).getroot().iter("testcase")
        return sorted(f"{case.get('classname')}::{case.get('name')}" for case in cases
                      if case.find("failure") is not None or case.find("error") is not None)


def run():
    """setting -> failing id -> the kernels it rests on."""
    seen = {s: (failing(s), kernels(s)) for s in SETTINGS}
    tagged = {}
    for setting, (ids, kernels_here) in seen.items():
        tags = {}
        for test in ids:
            alone = [s for s in ("numpy", "openblas")
                     if setting == "both" and test in seen[s][0]]
            tags[test] = sorted({k for s in alone for k in seen[s][1]}) or sorted(kernels_here)
        tagged[setting] = tags
    return tagged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write this run into the ledger")
    args = parser.parse_args(argv)
    got = run()
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    moved = False
    for setting in SETTINGS:
        expected, now = ledger.get(setting, {}), got[setting]
        came, went = sorted(set(now) - set(expected)), sorted(set(expected) - set(now))
        moved = moved or bool(came or went)
        print(f"{setting}: {len(now)} failing ({len(expected)} in the ledger)")
        for test in came:
            print(f"  in:  {test}  [{', '.join(now[test])}]")
        for test in went:
            print(f"  out: {test}  [{', '.join(expected[test])}]")
    if args.record:
        LEDGER.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    return int(moved)


if __name__ == "__main__":
    sys.exit(main())
