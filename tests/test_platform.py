"""The host-bound kernels under the suite's pinned bits.

The digests, `_PULLBACK_HEX`, the CSV bytes and the comparisons of the
two-pistons step on two floats with its step on arrays were recorded where
numpy runs its AVX-512 (``X86_V4``) loops and OpenBLAS its SkylakeX
kernels.  Four kernels carry that dependence: ``np.exp`` (the gases' e^S),
``np.float_power`` (`systems._power`, which squares v in the exact
oscillator entropy and raises the gases' volumes to their powers),
``np.vecdot`` of 2-vectors (`continuous.pair` on a stack) and the 2x2 solve
of `solve._solve_update` (numpy's gufunc over LAPACK's dgesv).  Each is
pinned here by the sha256 of its values on seeded inputs, so on another
dispatch this file names the kernel that differs, with numpy's report of
its dispatch, where the other pins name only their digest.  Run it first:

    PYTHONPATH=src python -m pytest tests/test_platform.py

The 1x1 solve is the exception: its bits are r / J on every dispatch
tried, and a one-dimensional step on floats divides where the same step on
length-1 arrays calls the solve.

One more dependence is scipy's: the oscillator's exact entropy applies
QUADPACK's 21-point Gauss-Kronrod rule (dqk21) in numpy and calls `quad`
only where that rule does not settle an interval, which gives `quad`'s bits
where scipy's compiled dqk21 rounds as plain IEEE products and sums, with
no fused multiply-add.  `test_gk21_rule_is_quad` checks that against `quad`
itself, on any host.  When a listed host-bound test fails, the suite's
conftest appends which of the kernels above round otherwise on this host.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from thermint.continuous import pair
from thermint.solve import _solve_update
from thermint.systems import DampedOscillatorSolution, _gk21, _power

#: seeded inputs of each kernel: one call on 20 000 arguments
_ROWS = 20_000


def _exp():
    # the gases' entropies lie in [0, 12]
    return np.exp(np.random.default_rng(1701).uniform(0.0, 12.0, _ROWS))


def _float_power():
    # the exact entropy squares velocities of at most ~2
    return _power(np.random.default_rng(1706).uniform(-2.0, 2.0, _ROWS), 2.0)


def _vecdot():
    a, b = np.random.default_rng(1702).uniform(-1.0, 1.0, (2, _ROWS, 2))
    return pair(a, b)


def _solve_2x2():
    rng = np.random.default_rng(1703)
    return _solve_update(rng.uniform(-1.0, 1.0, (_ROWS, 2, 2)), rng.uniform(-1.0, 1.0, (_ROWS, 2)))


# sha256 of each kernel's values, recorded with numpy 2.4 on its X86_V4 loops
# and OpenBLAS on its SkylakeX kernel
KERNELS = {
    "np.exp": (_exp, "b869803c8292d60e40dff3e4963f870cecad72b6d99bbf052d1e12aa72574e50"),
    "np.float_power": (
        _float_power, "848ba39c472ad6dd51b884dff4156df5b146b69a1b7ceb28cc50f4f29186b920"),
    "np.vecdot of 2-vectors": (
        _vecdot, "e260e6f737010b39b7632c6a2058cf627368b031511e48f8ea60bbda5be15770"),
    "2x2 _solve_update": (
        _solve_2x2, "a1723c4009d47f8be51264968d61e28f648bb284c81886f79fef56cda5a1f692"),
}


def _runtime():
    """What ``np.show_runtime()`` prints, numpy's SIMD dispatch and OpenBLAS's
    kernel where threadpoolctl is installed, and the variables set that
    choose either."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    chosen = {k: os.environ[k] for k in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
              if k in os.environ}
    return f"{out.getvalue()}set: {chosen}"


def _matches(kernel):
    values, expected = KERNELS[kernel]
    return hashlib.sha256(values().tobytes()).hexdigest() == expected


def kernels_rounding_otherwise():
    """The KERNELS whose values on this host differ from the recorded ones."""
    return [kernel for kernel in KERNELS if not _matches(kernel)]


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_kernel_bits(kernel):
    assert _matches(kernel), (
        f"{kernel} rounds otherwise than where the suite's bits were recorded (numpy's "
        f"X86_V4 loops, OpenBLAS's SkylakeX kernel), so the digests and bit comparisons "
        f"that rest on it fail on this host for that reason alone; its dispatch:\n"
        f"{_runtime()}")


def test_1x1_solve_is_division():
    # magnitudes over sixteen and sixteen decades, one stacked call and one
    # call per pair, as `_newton_rows` and `_newton` make them
    rng = np.random.default_rng(1704)
    J = rng.choice([-1.0, 1.0], _ROWS) * 10.0 ** rng.uniform(-8.0, 8.0, _ROWS)
    r = rng.choice([-1.0, 1.0], _ROWS) * 10.0 ** rng.uniform(-12.0, 4.0, _ROWS)
    quotient = (r / J).tobytes()
    assert _solve_update(J[:, None, None], r[:, None])[:, 0].tobytes() == quotient
    single = [_solve_update(np.array([[J_k]]), np.array([r_k]))[0] for J_k, r_k in zip(J, r)]
    assert np.array(single).tobytes() == quotient


def _scipy_build():
    """scipy's version and the compilers and machine of its build, which
    compiled its QUADPACK."""
    import scipy

    config = scipy.show_config(mode="dicts")
    compilers = {k: config["Compilers"].get(k) for k in ("c", "fortran")}
    return (f"scipy {scipy.__version__}, compilers {compilers}, "
            f"machine {config['Machine Information']}")


def test_gk21_rule_is_quad():
    # intervals of 1e-4 to 10 in [0, 1010] under several oscillator starts
    # (gamma, q0, v0, S0), the weaker friction keeping v^2 above quad's
    # absolute tolerance: the rule has quad's bits wherever quad returns its
    # first rule (21 evaluations), and it settles no interval quad bisects
    from scipy.integrate import quad

    rng = np.random.default_rng(1705)
    a = rng.uniform(0.0, 1000.0, 2000)
    b = a + 10.0 ** rng.uniform(-4.0, 1.0, a.size)
    starts = [(0.1, 0.0, 1.0, 0.0), (0.1, 0.3, -0.7, 1.5), (0.01, -1.2, 0.4, 0.0),
              (0.01, 2.0, 2.0, 0.0)]
    for start, rows in zip(starts, np.split(np.arange(a.size), len(starts))):
        sol = DampedOscillatorSolution(*start)
        f = lambda u: _power(sol.v(u), 2.0)
        rule, settled = _gk21(f, a[rows], b[rows])
        outs = [quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200, full_output=1)
                for lo, hi in zip(a[rows].tolist(), b[rows].tolist())]
        value = np.array([out[0] for out in outs])
        first = np.array([out[2]["neval"] == 21 for out in outs])
        assert settled.any() and not first.all()
        assert rule[first].tobytes() == value[first].tobytes() and np.all(first[settled]), (
            f"QUADPACK's 21-point rule in numpy differs from quad at {start}, on "
            f"{np.sum(rule[first] != value[first])} intervals that quad settles by it and "
            f"{np.sum(settled & ~first)} that the rule settles and quad does not; "
            f"{_scipy_build()}")
