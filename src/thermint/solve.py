"""Newton stepping and path integration for the implicit discrete scheme.

One step of the discrete equations is the momentum match

    pi_minus(q_k, q_{k+1}, S_k) = pi_plus(q_{k-1}, q_k, S_{k-1})

with S_k given explicitly by the entropy update; `solve_step` solves it
for q_{k+1} with `newton_solve`, the package's only Newton loop.  Both
`integrate` and `discrete.discrete_flow` take their steps through it, on
the points of `_point`: floats at n = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .continuous import ThermoState, continuous_rhs, first_order_rhs, fd_gradient, vec
from .discrete import DiscretePath, DiscreteTriple, _updated_entropy
from .errors import ConfigError, ConvergenceError, ThermintError

__all__ = ["NewtonConfig", "StepReport", "newton_solve", "solve_step", "integrate",
           "initialize"]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12        # absolute max-norm residual tolerance
    max_iter: int = 50

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class StepReport:
    iterations: int
    residual_norm: float
    converged: bool


def newton_solve(residual, jacobian, x0, cfg=None):
    """Newton iteration for residual(x) = 0 with max-norm convergence.

    ``jacobian`` may be None, in which case a central-difference Jacobian
    is built from the residual.  Iteration stops when the residual meets
    ``cfg.tol``, or when an update is at roundoff level (the residual is
    then at its attainable floor).  Raises ConvergenceError on a singular
    Jacobian, a non-finite update, or a residual still above tol at the
    stop.

    A float ``x0`` iterates on floats (residual and Jacobian too) and
    returns a float root; any other ``x0`` iterates on a float array.
    """
    cfg = cfg or NewtonConfig()
    point = isinstance(x0, float)
    x = float(x0) if point else np.array(x0, dtype=float, ndmin=1)
    vector = float if point else vec
    r = vector(residual(x))
    rnorm = _max_norm(r)
    it = 0
    while rnorm > cfg.tol and it < cfg.max_iter:
        it += 1
        J = fd_gradient(residual, x) if jacobian is None else jacobian(x)
        dx = _newton_update(J, r)
        # the max norm is NaN or inf exactly when some component is
        dxn = _max_norm(dx)
        if not math.isfinite(dxn):
            raise ConvergenceError("non-finite Newton update (singular Jacobian?)")
        x = x - dx
        stalled = dxn <= 4.0 * _EPS * (1.0 + _max_norm(x))
        r = vector(residual(x))
        rnorm = _max_norm(r)
        if stalled:
            break
    if rnorm <= cfg.tol:
        return x, StepReport(iterations=it, residual_norm=rnorm, converged=True)
    raise ConvergenceError(
        f"Newton residual {rnorm:.3e} above tol {cfg.tol:.1e} after {it} iterations")


def _max_norm(y):
    """max_i |y_i| as a float."""
    return abs(y) if type(y) is float else float(np.max(np.abs(y)))


def _newton_update(J, r):
    """The Newton update J^{-1} r; at a float point, r / J."""
    if type(r) is float:
        J = float(J)
        if J == 0.0:
            raise ConvergenceError("singular Newton Jacobian: zero Jacobian")
        return r / J
    try:
        return np.linalg.solve(np.array(J, dtype=float, ndmin=2), r)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Newton Jacobian: {exc}") from exc


def solve_step(d, q_prev, q_curr, S_prev, cfg):
    """One step of the discrete equations: ``(q_next, S_curr)``.

    S_curr is the entropy update of the triple (q_prev, q_curr, S_prev);
    q_next is the Newton root of pi_minus(q_curr, x, S_curr) = pi_plus(
    q_prev, q_curr, S_prev), warm-started at the linear extrapolation
    2 q_curr - q_prev.  The Newton Jacobian is the semiregularity matrix.
    The points are arrays, or floats at n = 1 (see `_point`).
    """
    S_curr = _updated_entropy(d, q_prev, q_curr, S_prev)
    target = d.pi_plus(q_prev, q_curr, S_prev)
    pi_minus, pi_minus_dq1 = d.pi_minus, d.pi_minus_dq1

    def residual(x):
        return pi_minus(q_curr, x, S_curr) - target

    def jacobian(x):
        return pi_minus_dq1(q_curr, x, S_curr)

    q_next, _ = newton_solve(residual, jacobian, 2 * q_curr - q_prev, cfg)
    return q_next, S_curr


def _point(d, q):
    """The point q as `solve_step` takes it: the float of its one entry at
    n = 1, where every kernel callable takes a float point (see
    `DiscreteThermoSystem`), else q itself."""
    return float(q[0]) if d.n == 1 else q


def integrate(d, q0, q1, S0, N, cfg=None):
    """Iterate the discrete flow N times from initial data (q0, q1, S0).

    Returns a DiscretePath with N+1 points; entropies are always computed
    from the update constraint, never solved for.  A failure while taking
    step k (the one from triple k = (q_{k-1}, q_k, S_{k-1})) is re-raised
    with ``step_index = k`` and ``triple`` that `DiscreteTriple`.
    """
    cfg = cfg or NewtonConfig()
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    if np.size(q0) != d.n or np.size(q1) != d.n:
        raise ValueError(f"start points must have {d.n} entries, got "
                         f"{np.size(q0)} and {np.size(q1)}")
    qs = np.empty((N + 1, d.n))
    Ss = np.empty(N + 1)
    qs[0] = q0
    Ss[0] = float(S0)
    if N == 0:
        return DiscretePath(h=d.h, qs=qs, Ss=Ss)
    qs[1] = q1
    q_prev, q_curr, S_prev = _point(d, qs[0]), _point(d, qs[1]), float(S0)
    # a float point goes into the one column: a scalar store, not a row's
    q_out = qs[:, 0] if d.n == 1 else qs
    try:
        for k in range(1, N):
            q_next, S_prev = solve_step(d, q_prev, q_curr, S_prev, cfg)
            q_out[k + 1] = q_next
            Ss[k] = S_prev
            q_prev, q_curr = q_curr, q_next
        k = N
        Ss[N] = _updated_entropy(d, q_prev, q_curr, S_prev)
    except ThermintError as exc:
        exc.step_index = k
        exc.triple = DiscreteTriple(qs[k - 1], qs[k], Ss[k - 1])
        raise
    return DiscretePath(h=d.h, qs=qs, Ss=Ss)


def initialize(entry, q0, v0, S0, h, mode="exact"):
    """Produce the first two path points (q0, q1, S0) for a given mode.

    exact      q1 = exact solution at t = h (needs an exact-solution handle);
    reference  q1 from one adaptive reference step at tolerance 1e-10;
    hold       q1 = q0 (the zero-initial-velocity choice for the gases);
    taylor     q1 = q0 + h v0 + (h^2/2) a(q0, v0, S0).
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    S0 = float(S0)
    sys = getattr(entry, "lagrangian", entry)

    if mode == "exact":
        maker = getattr(entry, "exact_solution", None)
        if maker is None:
            raise ConfigError(f"system {sys.name!r} has no exact solution handle")
        q1 = np.atleast_1d(np.asarray(maker(q0, v0, S0).q(h), dtype=float))
    elif mode == "reference":
        from scipy.integrate import solve_ivp

        y0 = np.concatenate([q0, v0, [S0]])
        sol = solve_ivp(first_order_rhs(sys), (0.0, h), y0, method="RK45",
                        rtol=1e-10, atol=1e-10)
        if not sol.success:
            raise ConvergenceError(f"reference initialization failed: {sol.message}")
        q1 = sol.y[: sys.n, -1]
    elif mode == "hold":
        q1 = q0.copy()
    elif mode == "taylor":
        _, a, _ = continuous_rhs(sys, ThermoState(q0, v0, S0))
        q1 = q0 + h * v0 + 0.5 * h * h * a
    else:
        raise ConfigError(f"unknown initialization mode {mode!r}")
    return q0, q1, S0
