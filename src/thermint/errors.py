"""Exception types shared across the package."""


class ThermintError(Exception):
    """Base class for all thermint errors.

    Carries ``step_index`` and ``triple`` when raised from a path
    integration so the caller can tell where the run broke down: step k
    is the one from the `DiscreteTriple` (q_{k-1}, q_k, S_{k-1}).
    """

    step_index = None
    triple = None


class StructureDegenerateError(ThermintError):
    """The flat map of an almost-cosymplectic structure is singular at a point."""


class TemperatureDegenerateError(ThermintError):
    """A temperature-like quantity (dH/dS, dL/dS or D_S L_d) vanished."""


class ConvergenceError(ThermintError):
    """Newton iteration failed to converge."""


class DomainError(ThermintError):
    """A state left the physical domain of the system (e.g. piston x <= 0)."""


class ConfigError(ThermintError):
    """Invalid experiment configuration."""
