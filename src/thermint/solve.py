"""Newton stepping and path integration for the implicit discrete scheme.

One step of the discrete equations is the momentum match

    pi_minus(q_k, q_{k+1}, S_k) = pi_plus(q_{k-1}, q_k, S_{k-1})

with S_k given explicitly by the entropy update; a Newton solve with the
semiregularity matrix as its Jacobian finds q_{k+1}.  Two Newton loops
solve every root of the package, with one set of stop rules: `_newton`
at one point, a float (n = 1) or a tuple of two floats (n = 2) where the
kernel is marked ``float_points`` (see `_point`) and an array otherwise,
and `_newton_rows` on a stack of points, row by row.  At two floats the
update is `_solve_pair`, which gives the bits of numpy's solve where
OpenBLAS runs its SkylakeX kernel; a stacked step still calls numpy's, so
on another kernel a flow and its stacked row may differ in their last
bits.  Each Newton iterate x is a pass of the triple (q_k, x, S_k)
through the system's ``triple_pass``, and `_newton` stops with its last
pass at the root, so `integrate` takes the next step's target pi_plus and
entropy update from that pass: the pass is carried, and a one-iteration
step makes two passes, one Jacobian and one dL/dS call.  `solve_step` is
the cold step of
`discrete.discrete_flow` and the flow Jacobian: the triple's target and
entropy from the rest of its own pass, then the same `_newton`, or one
`_newton_rows` on a stack of B triples, (B, n), (B, n) and (B,), whose
row k is the bits of the step on row k alone.  The flow Jacobian of a
pullback check is one such stack.  `systems.hamiltonian_point` inverts
the Legendre transform with `_newton` too.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .continuous import ThermoState, continuous_rhs, first_order_rhs, fma
from .discrete import _SINGULAR, DiscretePath, DiscreteTriple, _floats, _pass_values
from .errors import ConfigError, ConvergenceError, TemperatureDegenerateError, ThermintError

__all__ = ["NewtonConfig", "solve_step", "integrate", "initialize"]

#: a Newton update at most this times 1 + |x| is at roundoff level
_STALL = 4.0 * float(np.finfo(float).eps)

#: the smallest normal float
_TINY = float(np.finfo(float).tiny)

#: Newton updates after which a residual still above tol fails
_MAX_ITER = 50


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12        # absolute max-norm residual tolerance

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


def _max_norm(y):
    """max_i |y_i| of an array or a pair of floats, as a float, taken on
    Python floats: NaN when any component is NaN (where ``max`` alone would
    skip it), the value of ``np.max(np.abs(y))`` otherwise."""
    if type(y) is tuple:
        a, b = map(abs, y)
        return a if a > b or a != a else b
    sizes = list(map(abs, y.tolist()))
    # a sum of magnitudes is NaN exactly when one of them is
    total = sum(sizes)
    return total if total != total else max(sizes)


def _singular(err, flag):
    """The error call of `_solve_update`: LAPACK flagged a singular matrix,
    where `np.linalg.solve` raises ``LinAlgError("Singular matrix")``."""
    raise ConvergenceError("singular Newton Jacobian: Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve_update(J, r):
    """The Newton update J^{-1} r on arrays, by numpy's own solve gufunc in
    the error state `np.linalg.solve` runs it in, without that wrapper's
    checks and casts: its bits for a square J and a vector r."""
    return _solve1(np.array(J, dtype=float, ndmin=2, copy=None), r, signature="dd->d")


def _solve_pair(J, r):
    """The Newton update J^{-1} r at a point of two floats, J the flat tuple
    (a00, a01, a10, a11) and r = (b0, b1): LAPACK's dgesv as OpenBLAS's
    SkylakeX kernels round it, whose bits `_solve_update` gives there.  The
    rows swap where |a10| > |a00|; then l = a10 * (1 / a00) (a10 itself, the
    column left unscaled, below the smallest normal pivot), u11 = a11 -
    l * a01 unfused, x1 = fma(-l, b0, b1) / u11 and x0 = fma(-a01, x1, b0) /
    a00, with `continuous.fma`.  A zero pivot raises the ConvergenceError
    of `_singular`."""
    a00, a01, a10, a11 = J
    b0, b1 = r
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, b0, b1 = a10, a11, a00, a01, b1, b0
    if a00 == 0.0:
        _singular(None, None)
    l = a10 * (1.0 / a00) if abs(a00) >= _TINY else a10
    u11 = a11 - l * a01
    if u11 == 0.0:
        _singular(None, None)
    x1 = fma(-l, b0, b1) / u11
    return fma(-a01, x1, b0) / a00, x1


def _residual(pi, target):
    """pi - target and its max norm, inline at a point of two floats."""
    if type(pi) is not tuple:
        r = pi - target
        return r, _max_norm(r)
    r = (pi[0] - target[0], pi[1] - target[1])
    a, b = abs(r[0]), abs(r[1])
    return r, a if a > b or a != a else b


def _update(J, r, x):
    """x - J^{-1} r and the update's max norm: `_solve_pair` at two floats."""
    if type(x) is not tuple:
        dx = _solve_update(J, r)
        return x - dx, _max_norm(dx)
    d0, d1 = _solve_pair(J, r)
    a, b = abs(d0), abs(d1)
    return (x[0] - d0, x[1] - d1), a if a > b or a != a else b


def _newton(triple_pass, pi_minus_dq1, tol, q, S, target, x):
    """The root x of pi_minus(q, x, S) = target by Newton from the start x,
    and the ``rest, args`` of the pass at the root.

    pi_minus is the first value of ``triple_pass(q, x, S)`` and the Newton
    Jacobian ``pi_minus_dq1(q, x, S)``.  Iteration stops when the residual
    meets ``tol``, when an update is at roundoff level (the residual is
    then at its attainable floor), or after `_MAX_ITER` updates.  Raises
    ConvergenceError on a singular Jacobian, a non-finite update, or a
    residual still above tol, or NaN, at the stop.  The last pass is at
    the returned root on every return.  One loop serves the three kinds of
    point (see `_point`): a float point takes norms by ``abs`` and updates
    by r / J, inline, and a point of two floats and an array point by
    `_residual` and `_update`.
    """
    on_floats = type(q) is float
    norm = abs if on_floats else _max_norm
    pi, rest, args = triple_pass(q, x, S)
    if on_floats:
        r = pi - target
        rnorm = norm(r)
    else:
        r, rnorm = _residual(pi, target)
    it = 0
    while rnorm > tol and it < _MAX_ITER:
        it += 1
        J = pi_minus_dq1(q, x, S)
        if not on_floats:
            x, dxn = _update(J, r, x)
        elif J == 0.0:
            raise ConvergenceError("singular Newton Jacobian: zero Jacobian")
        else:
            # the update inline: a helper call would cost every float step
            dx = r / J
            dxn = norm(dx)
            x = x - dx
        if not math.isfinite(dxn):
            raise ConvergenceError("non-finite Newton update (singular Jacobian?)")
        pi, rest, args = triple_pass(q, x, S)
        if on_floats:
            r = pi - target
            rnorm = norm(r)
        else:
            r, rnorm = _residual(pi, target)
        # a stalled update ends the loop; one that met tol ends it anyway
        if rnorm > tol and dxn <= _STALL * (1.0 + norm(x)):
            break
    if rnorm <= tol:
        return x, rest, args
    raise ConvergenceError(
        f"Newton residual {rnorm:.3e} above tol {tol:.1e} after {it} iterations")


def solve_step(d, q_prev, q_curr, S_prev, cfg):
    """One cold step of the discrete equations: ``(q_next, S_curr)``.

    S_curr is the entropy update and the target pi_plus that of the triple
    (q_prev, q_curr, S_prev), both from the rest of its pass; q_next is the
    root of pi_minus(q_curr, x, S_curr) = target by `_newton` from the
    linear extrapolation 2 q_curr - q_prev, as `integrate` steps.  The
    points are arrays, or float points where the kernel takes them (see
    `_point`).  A stack of B triples, q_prev and q_curr of shape (B, n) and
    S_prev of shape (B,), is one pass and one Newton loop (`_newton_rows`),
    ``d`` taking stacks (see `DiscreteThermoSystem`): row k of q_next and
    S_curr is the bits of the step on row k alone, and a row that fails
    raises as that step would.
    """
    _, target, dS = _pass_values(d.triple_pass, q_prev, q_curr, S_prev)
    S_curr = S_prev + dS
    solve = (d.triple_pass, d.pi_minus_dq1, (cfg or NewtonConfig()).tol, q_curr, S_curr, target,
             # per entry at a point of two floats
             (2 * q_curr[0] - q_prev[0], 2 * q_curr[1] - q_prev[1]) if type(q_curr) is tuple
             else 2 * q_curr - q_prev)
    if isinstance(q_curr, np.ndarray) and q_curr.ndim == 2:
        return _newton_rows(*solve), S_curr
    return _newton(*solve)[0], S_curr


def _newton_rows(triple_pass, pi_minus_dq1, tol, q, S, target, x):
    """The roots x_k of pi_minus(q_k, x_k, S_k) = target_k of a stack of rows,
    from the start x: the loop of `_newton` on all rows at once.

    Each row stops by `_newton`'s rules: it leaves the loop when its
    residual meets ``tol`` (its x then frozen), when its update is at
    roundoff level or when its residual is NaN, and after `_MAX_ITER`
    updates; a singular Jacobian or a non-finite update raises.  A row that
    left above tol, or NaN, raises ConvergenceError.  Each iteration solves
    the rows still in the loop by the gufunc of `_solve_update`, whose
    matrices broadcast, so a constant (n, n) Newton matrix serves every
    row.  Max norms are ``np.max`` of magnitudes, NaN when a component is,
    as `_max_norm`.  Every error names the first row that fails.
    """
    r = triple_pass(q, x, S)[0] - target
    rnorm = np.max(np.abs(r), axis=-1)
    iters = np.zeros(len(x), dtype=int)
    live = np.flatnonzero(rnorm > tol)
    for _ in range(_MAX_ITER):
        if not live.size:
            break
        q_l, x_l, S_l = q[live], x[live], S[live]
        J, r_l = pi_minus_dq1(q_l, x_l, S_l), r[live]
        try:
            dx = _solve_update(J, r_l)
            dxn = np.max(np.abs(dx), axis=-1)
            if not np.all(np.isfinite(dxn)):
                raise ConvergenceError("non-finite Newton update (singular Jacobian?)")
        except ConvergenceError as exc:
            raise (_failing_row(J, r_l, live, len(x)) or exc) from None
        x_l = x_l - dx
        r_l = triple_pass(q_l, x_l, S_l)[0] - target[live]
        rn = np.max(np.abs(r_l), axis=-1)
        x[live], r[live], rnorm[live] = x_l, r_l, rn
        iters[live] += 1
        # the rows above tol whose update was not at roundoff level go on
        stalled = dxn <= _STALL * (1.0 + np.max(np.abs(x_l), axis=-1))
        live = live[(rn > tol) & ~stalled]
    failed = np.flatnonzero(~(rnorm <= tol))
    if failed.size:
        k = failed[0]
        raise ConvergenceError(f"Newton residual {rnorm[k]:.3e} above tol {tol:.1e} after "
                               f"{iters[k]} iterations (row {k} of {len(x)})")
    return x


def _failing_row(J, r, rows, size):
    """The error of the first of ``rows`` whose Newton update, solved alone
    from its row of J and r, is singular or non-finite, with the row named."""
    for J_k, r_k, k in zip(np.broadcast_to(J, r.shape + r.shape[-1:]), r, rows):
        try:
            if not math.isfinite(_max_norm(_solve_update(J_k, r_k))):
                raise ConvergenceError("non-finite Newton update (singular Jacobian?)")
        except ConvergenceError as exc:
            return ConvergenceError(f"{exc} (row {k} of {size})")


def _point(d, q):
    """The point q as `_newton` takes it: its float point where the pass and
    the Newton matrix take floats (`discrete._floats`, see
    `DiscreteThermoSystem`), the float of its one entry at n = 1 and the
    tuple of its two entries at n = 2; else q itself."""
    x = _floats(d, (d.triple_pass, d.pi_minus_dq1), q)
    return x[0] if x else q


def integrate(d, q0, q1, S0, N, cfg=None):
    """Iterate the discrete flow N times from initial data (q0, q1, S0).

    Returns a DiscretePath with N+1 points; entropies are always computed
    from the update constraint, never solved for.  Every step takes its
    target and entropy from the rest of its triple's pass: step 1 from a
    cold pass, as `solve_step` does, every later step from the pass carried
    from the root of the step before, bit for bit the cold values.  A
    failure while taking step k (the one from triple k = (q_{k-1}, q_k,
    S_{k-1}), its entropy update included) is re-raised with ``step_index =
    k`` and ``triple`` that `DiscreteTriple`: a `ThermintError`, or an
    `ArithmeticError` such as the OverflowError of a float ``**``.
    """
    tol = (cfg or NewtonConfig()).tol
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
    pairs = type(q_curr) is tuple
    # a float point goes into the one column: a scalar store, not a row's
    q_out = qs[:, 0] if type(q_curr) is float else qs
    triple_pass, pi_minus_dq1 = d.triple_pass, d.pi_minus_dq1
    k = 1
    try:
        # no root has left a pass of triple 1: it is passed cold
        _, rest, args = triple_pass(q_prev, q_curr, S_prev)
        for k in range(1, N + 1):
            try:
                target, dS = rest(*args)
            except ZeroDivisionError:
                # a hand-written rest dividing a float by a zero D_S Ld
                raise TemperatureDegenerateError(_SINGULAR) from None
            Ss[k] = S_curr = S_prev + dS
            if k == N:
                break
            q_next, rest, args = _newton(triple_pass, pi_minus_dq1, tol, q_curr, S_curr, target,
                                         2 * q_curr - q_prev if not pairs else
                                         (2 * q_curr[0] - q_prev[0], 2 * q_curr[1] - q_prev[1]))
            q_out[k + 1] = q_next
            q_prev, q_curr, S_prev = q_curr, q_next, S_curr
    except (ThermintError, ArithmeticError) as exc:
        exc.step_index = k
        exc.triple = DiscreteTriple(qs[k - 1], qs[k], Ss[k - 1])
        raise
    return DiscretePath(h=d.h, qs=qs, Ss=Ss)


def initialize(entry, q0, v0, S0, h, mode="exact"):
    """Produce the first two path points (q0, q1, S0) of a catalog entry.

    exact      q1 = exact solution at t = h (needs an exact-solution handle);
    reference  q1 from one adaptive RK45 run to t = h at tolerance 1e-10, on
               `continuous.first_order_rhs` (on Python floats where
               `continuous._on_floats` holds, with the bits of arrays and
               `continuous._or_on_arrays` as the way back to them);
    hold       q1 = q0 (the zero-initial-velocity choice for the gases);
    taylor     q1 = q0 + h v0 + (h^2/2) a(q0, v0, S0).
    """
    # every mode; the reference's solve_ivp does not end on a NaN or infinite h
    if not 0 < h < math.inf:
        raise ConfigError(f"time step must be positive and finite, got {h}")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    S0 = float(S0)
    sys = entry.lagrangian

    if mode == "exact":
        if entry.exact_solution is None:
            raise ConfigError(f"system {sys.name!r} has no exact solution handle")
        q1 = np.atleast_1d(np.asarray(entry.exact_solution(q0, v0, S0).q(h), dtype=float))
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
