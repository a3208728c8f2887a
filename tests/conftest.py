"""Test-suite settings: every property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("thermint", derandomize=True, deadline=None)
settings.load_profile("thermint")
