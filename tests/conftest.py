"""Test-suite settings: every property test draws the same examples on every
run, and a failing host-bound test names the host's rounding."""

import functools

import pytest
from hypothesis import settings

settings.register_profile("thermint", derandomize=True, deadline=None)
settings.load_profile("thermint")

#: tests whose expected bits hold only where the kernels of
#: tests/test_platform.py round as where the bits were recorded, besides the
#: `*_frozen` digests of tests/test_digest.py
HOST_BOUND = {
    *(f"tests/test_solve.py::TestFloatPoints::test_two_pistons_float_path_is_array_path[{cell}]"
      for cell in ("0.1-0.1", "0.1-0.01", "0.1-0.001", "0.5-0.1", "0.5-0.01")),
    "tests/test_discrete.py::TestOneTripleOnFloats::test_float_points_keep_every_bit[two-pistons]",
    "tests/test_discrete.py::TestMomentumMapAndNoether::"
    "test_each_side_is_its_discrete_momentum_paired[two-pistons]",
    "tests/test_stacks.py::test_stacked_triple_matches_per_triple_loop[two-pistons]",
    "tests/test_stacks.py::test_pullback_check_keeps_its_bits[van-der-waals]",
}


def _host_bound(item):
    return item.nodeid in HOST_BOUND or (
        item.path.name == "test_digest.py" and item.originalname.endswith("_frozen"))


@functools.cache
def _fingerprint():
    """The verdict of tests/test_platform.py's kernels on this host, once."""
    import test_platform

    differ = test_platform.kernels_rounding_otherwise()
    if not differ:
        return ("every kernel of tests/test_platform.py rounds here as where the bits "
                "were recorded, so this host's dispatch does not explain the failure")
    return ("these kernels of tests/test_platform.py round otherwise on this host than "
            f"where the bits were recorded, which can explain the failure: {', '.join(differ)}")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.failed and _host_bound(item):
        report.sections.append(("host fingerprint", _fingerprint()))
