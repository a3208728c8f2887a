"""The host-bound kernels under the suite's pinned bits.

The digests, `_PULLBACK_HEX`, the CSV bytes and the comparisons of the
two-pistons step on two floats with its step on arrays were recorded where
numpy runs its AVX-512 (``X86_V4``) loops and OpenBLAS its SkylakeX
kernels.  Three kernels carry that dependence: ``np.exp`` (the gases' e^S),
``np.vecdot`` of 2-vectors (`continuous.pair` on a stack) and the 2x2 solve
of `solve._solve_update` (numpy's gufunc over LAPACK's dgesv).  Each is
pinned here by the sha256 of its values on seeded inputs, so on another
dispatch this file names the kernel that differs, with numpy's report of
its dispatch, where the other pins name only their digest.  Run it first:

    PYTHONPATH=src python -m pytest tests/test_platform.py

The 1x1 solve is the exception: its bits are r / J on every dispatch
tried, and a one-dimensional step on floats divides where the same step on
length-1 arrays calls the solve.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from thermint.continuous import pair
from thermint.solve import _solve_update

#: seeded inputs of each kernel: one call on 20 000 arguments
_ROWS = 20_000


def _exp():
    # the gases' entropies lie in [0, 12]
    return np.exp(np.random.default_rng(1701).uniform(0.0, 12.0, _ROWS))


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


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_kernel_bits(kernel):
    values, expected = KERNELS[kernel]
    digest = hashlib.sha256(values().tobytes()).hexdigest()
    assert digest == expected, (
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
