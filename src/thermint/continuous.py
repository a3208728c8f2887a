"""Continuous Lagrangian thermodynamic systems.

State space is (q, v, S) with q, v in R^n and a single entropy variable S.
A system is described by a Lagrangian L(q, v, S), its partials and a
friction covector field.  The equations of motion couple the forced
Euler-Lagrange equations with the entropy equation (dL/dS) * Sdot = v . Ffr.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import TemperatureDegenerateError

__all__ = [
    "ThermoState",
    "LagrangianThermoSystem",
    "Trajectory",
    "energy",
    "temperature",
    "equations_of_motion",
    "continuous_rhs",
    "first_order_rhs",
    "noether_lift_check",
    "conserved_along",
    "fd_gradient",
]

#: central-difference step scale of `fd_gradient`
FD_STEP = float(np.cbrt(np.finfo(float).eps))


def _zero_force(q, v, S):
    # a float point's zero covector is a float, a point of two floats' a pair
    if type(q) is float:
        return 0.0
    return (0.0, 0.0) if type(q) is tuple else np.zeros_like(q)


def pair(a, b):
    """a . b over the last axis: a float for one point, an array for a
    stack (`np.vecdot`, which sums as ``@`` does; an einsum does not).

    Two floats, the components at a float point of a one-dimensional
    system, pair as ``0.0 + a * b``: the length-1 ``@`` starts its sum at
    +0.0, so it gives 0.0 for (-0.0) * 1.0 where ``a * b`` gives -0.0.
    Two pairs of floats, covectors at a point of two floats, pair as
    ``fma(a1, b1, 0.0 + a0 * b0)``, the bits of ``@`` on 2-vectors.
    """
    if isinstance(a, float):
        return 0.0 + a * b
    if type(a) is tuple:
        return fma(a[1], b[1], 0.0 + a[0] * b[0])
    a = np.asarray(a)
    return float(a @ b) if a.ndim == 1 else np.vecdot(a, b)


#: Veltkamp's splitting factor 2^27 + 1, and the magnitudes of a * b (and c)
#: within which the split of a and b and the error of their product are exact
_SPLIT, _EXACT = 134217729.0, (2.0 ** -960, 2.0 ** 996)


def fma(a, b, c):
    """a * b + c rounded once to nearest, ties to even: IEEE 754's
    fusedMultiplyAdd, whose exact zero is -0.0 only when a * b is a zero of
    negative sign and c is -0.0.  An infinite or NaN result is returned, as
    float arithmetic returns it, where `math.fma` (Python 3.13 on) raises
    OverflowError or ValueError; hence this one function on every Python.
    Where |a * b| and |c| lie in `_EXACT`, a * b is p + e exactly, p = a * b
    rounded and e its error by Veltkamp's split of a and b, and
    ``math.fsum`` rounds p + e + c once; elsewhere (a split that overflows,
    a product that underflows or overflows, a non-finite argument, a c that
    could overflow ``fsum``) `Fraction` arithmetic does."""
    p = a * b
    if _EXACT[0] < abs(p) < _EXACT[1] and abs(c) < _EXACT[1]:
        t = _SPLIT * a
        ah = t - (t - a)
        t = _SPLIT * b
        bh = t - (t - b)
        al, bl = a - ah, b - bh
        r = math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c))
        if r == r:  # NaN where a split overflows
            # a zero here is a cancellation of the nonzero a * b: +0.0
            return r or 0.0
    if not (a and b and math.isfinite(a) and math.isfinite(b)):
        return p + c  # the product is exact: a signed zero, inf or NaN
    if not math.isfinite(c):
        return c
    from fractions import Fraction  # imported on the first fallback only

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact) if exact else 0.0
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _constant(value):
    """A field of (q, v, S) that does not depend on the point and declares
    it: ``value``, an array (made read-only, as every call returns it), or
    as a float point or a point of two floats takes it (see `_forms`); the
    callable's ``constant`` is ``value`` (see `LagrangianThermoSystem`)."""
    value.flags.writeable = False
    entry, _, flat = _forms(value)
    field = lambda q, v, S: entry if type(q) is float else flat if type(q) is tuple else value
    field.constant = value
    return field


def _forms(value):
    """A constant array as each kind of point takes it, indexed by ``type(q)
    is not float`` or 2: its one entry at a float point, the array itself,
    and its entries as one flat tuple at a point of two floats."""
    return float(value.flat[0]), value, tuple(value.ravel().tolist())


def transposed(x):
    """x with its last two axes swapped, each matrix of a stack transposed, or
    x itself at a float point (a 1x1 matrix as its one entry); at a point of
    two floats a 2x2 matrix is the flat tuple (x00, x01, x10, x11)."""
    if isinstance(x, float):
        return x
    return (x[0], x[2], x[1], x[3]) if type(x) is tuple else x.mT


#: a point, a stack or a residual as a float array with at least one axis,
#: itself if it is one
vec = partial(np.array, dtype=float, ndmin=1, copy=None)


@dataclass(frozen=True)
class ThermoState:
    """A point (q, v, S) of the velocity-entropy phase space."""

    q: np.ndarray
    v: np.ndarray
    S: float

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if q.shape != v.shape:
            raise ValueError("q and v must have the same shape")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "S", float(self.S))


@dataclass
class LagrangianThermoSystem:
    """Lagrangian L with analytic partials and force covector fields.

    All callables take raw ``(q, v, S)`` arguments (q, v arrays of length
    n, S scalar).  Each of the eight second-order fields left as None is
    derived once, in `__post_init__`, as `fd_gradient` of the matching
    first partial or of ``Ffr``; ``d2Ldqdv[i, j]`` = d2L/dq_i dv_j is the
    transpose of the q-Jacobian of ``dLdv``.  A derived callable is marked
    ``generic``, so ``dataclasses.replace`` rebuilds it from the copy.

    ``accel`` may supply a closed-form acceleration; ``continuous_rhs``
    then uses it instead of solving the velocity Hessian.

    A second-order field whose value does not depend on the point may
    declare it: an attribute ``constant`` on the callable holds its value
    on arrays, whose entries, in the form below, are its value at a float
    point (`_constant` builds such a field).
    `discrete.midpoint_discretize` then forms the field's products in the
    Newton matrix and the covector Jacobians once.

    Kinds of point and the return contract: a callable takes an array
    point, q and v float arrays of shape (n,), and returns a float ndarray,
    (n,) for a covector and (n, n) for a matrix.  A system that declares
    ``float_points`` (below) also takes, bit for bit the entries of the
    call on arrays, at n = 1 a float point, q and v Python floats, where a
    covector and a 1x1 matrix are a float, and at n = 2 a point of two
    floats, q and v tuples of two floats, where a covector is a tuple of
    two floats and a 2x2 matrix the flat tuple (x00, x01, x10, x11).  A
    scalar field (``L``, ``dLdS``) returns a float at one point of any
    kind, and a value that is the same at every point may stay a float.
    The midpoint rule and the equations of motion use each value as it
    comes, without a cast.

    Stacks of points: the whole-path diagnostics (those given
    `DiscretePath.stack`, and `bench.hamiltonian_estimates`) call ``L``,
    ``dLdq``, ``dLdv``, ``dLdS`` and ``Ffr`` once on a stack, q and v of
    shape (..., n) and S of shape (...), and the stacked cold step of a
    pullback check calls the five (n, n) fields of the Newton matrix
    (``d2Ldq2``, ``d2Ldqdv``, ``d2Ldv2``, ``dFfrdq``, ``dFfrdv``) so.  A
    system used there returns covectors of shape (..., n), matrices of
    shape (..., n, n) and scalars of shape (...) (a value that does not
    depend on the point may stay a float, or one (n, n) matrix), and row k
    gives the bits of the single-point call on row k; a derived one of the
    five does so when the first partials do.  The catalog
    systems do, and their S-derivative fields (``d2LdqdS``, ``d2LdvdS``,
    ``dFfrdS``) take stacks so too; a single point keeps float arithmetic,
    because `integrate` calls every callable once per point.  On arrays
    they take powers with ``np.float_power`` and pair with ``np.vecdot``,
    which round as float ``**`` and ``@`` do: array ``**`` differs in 1115
    of 20 000 arguments (e = -2/3), and an einsum pairing in 3220 of 20 000
    (n = 2).  The contract asks no other callable to take a stack.

    Float points: a system of one or two dimensions may declare
    ``float_points``.  ``L``, the first partials, ``Ffr`` and the eight
    second-order fields then take the float point of its dimension, and at
    n = 1 ``accel`` too; a derived field does so at n = 1 when the first
    partials do, and takes arrays only at n = 2.  `midpoint_discretize`
    then runs the stepping kernel and the one-triple diagnostics on floats,
    at n = 2 the kernel when none of the five fields of the Newton matrix
    (``d2Ldq2`` to ``dFfrdv`` below) is derived and the covector Jacobians
    when none of the eight is; a one-dimensional system with ``accel`` is
    also stepped by `bench.rk2_integrate` and evaluated by
    `first_order_rhs`, the RK45 reference's right-hand side, on floats
    (`_on_floats`).  The catalog
    declares it.  A system written on arrays (``q @ q``, ``q[0]``) leaves
    it False, and its kernel steps on arrays.  Whether a callable takes
    floats cannot be told without calling it, hence the field.

    Domain: each callable that reads q raises `DomainError` outside the
    system's domain, at any point and on a stack with any row outside;
    neither the midpoint rule nor `equations_of_motion` checks it again.
    """

    n: int
    L: callable
    dLdq: callable
    dLdv: callable
    dLdS: callable
    Ffr: callable = _zero_force
    name: str = ""

    # second derivatives of L, derived in __post_init__ when left out
    d2Ldq2: callable = None          # (n, n), d2L/dq_i dq_j
    d2Ldqdv: callable = None         # (n, n), [i, j] = d2L/dq_i dv_j
    d2Ldv2: callable = None          # (n, n)
    d2LdqdS: callable = None         # (n,)
    d2LdvdS: callable = None         # (n,)

    # Jacobians of the friction covector, derived likewise
    dFfrdq: callable = None          # (n, n), [i, j] = dFfr_i/dq_j
    dFfrdv: callable = None          # (n, n)
    dFfrdS: callable = None          # (n,)

    accel: callable = None           # closed-form (n,) acceleration
    float_points: bool = False       # callables also take q and v of n <= 2 floats

    def __post_init__(self):
        if self.float_points and self.n > 2:
            raise ValueError("float_points declares a system of one or two dimensions")
        derive_missing(self, _second_partials(self))


@dataclass
class Trajectory:
    """Uniform-step trajectory; states stored as flat arrays."""

    h: float
    times: np.ndarray
    qs: np.ndarray   # (N+1, n)
    vs: np.ndarray   # (N+1, n)
    Ss: np.ndarray   # (N+1,)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.qs = np.atleast_2d(np.asarray(self.qs, dtype=float))
        self.vs = np.atleast_2d(np.asarray(self.vs, dtype=float))
        self.Ss = np.asarray(self.Ss, dtype=float)
        m = len(self.times)
        if not (len(self.qs) == len(self.vs) == len(self.Ss) == m):
            raise ValueError("times/states length mismatch")
        # a NaN time makes the spread NaN, which fails the check
        if m > 1 and not (np.max(np.abs(np.diff(self.times) - self.h)) <= 1e-9 * max(1.0, self.h)):
            raise ValueError("times not uniformly spaced with step h")

    def __len__(self):
        return len(self.times)

    def state(self, k):
        return ThermoState(self.qs[k], self.vs[k], self.Ss[k])


def energy(sys, state):
    """Lagrangian energy E_L = v . dL/dv - L."""
    q, v, S = state.q, state.v, state.S
    return float(v @ sys.dLdv(q, v, S) - sys.L(q, v, S))


def temperature(sys, state):
    """Temperature T = -dL/dS (positive on the physical domain)."""
    return -float(sys.dLdS(state.q, state.v, state.S))


def fd_gradient(f, x):
    """Central-difference gradient of a scalar/vector function of x, with
    step ``FD_STEP * (1 + |x_j|)`` in coordinate j.

    x is one point, shape (m,), or a stack of points, shape (..., m), that
    ``f`` takes whole; row k of the gradient of a stack is the bits of the
    gradient at row k.  At a float x it is the derivative f'(x), bit for
    bit the one column of the gradient at the length-1 array [x].
    """
    if isinstance(x, float):
        d = FD_STEP * (1.0 + abs(x))
        return (f(x + d) - f(x - d)) / (2 * d)
    x = np.asarray(x, dtype=float)
    steps = FD_STEP * (1.0 + np.abs(x))
    # column j along the last axis: (out..., m) at a point, (..., out..., m)
    # on a stack
    cols = []
    for j in range(x.shape[-1]):
        d = steps[..., j]
        xp = x.copy()
        xm = x.copy()
        xp[..., j] += d
        xm[..., j] -= d
        fp, fm = np.asarray(f(xp)), np.asarray(f(xm))
        # a row's step divides that row's value, whatever its shape
        cols.append((fp - fm) / np.reshape(2 * d, d.shape + (1,) * (fp.ndim - d.ndim)))
    return np.stack(cols, axis=-1)


def derive_missing(obj, derived):
    """Set each field of ``obj`` that is None or marked ``generic`` to its
    entry of ``derived``, marked ``generic``: a derived callable closes over
    the fields it was built from, and ``dataclasses.replace`` rebuilds it."""
    for attr, fn in derived.items():
        current = getattr(obj, attr)
        if current is None or getattr(current, "generic", False):
            fn.generic = True
            setattr(obj, attr, fn)


def _second_partials(sys):
    """The second-order fields of a system as central differences of its
    first partials and its friction covector."""
    def over_q(f):  # [i, j] = df_i/dq_j
        return lambda q, v, S: fd_gradient(lambda qq: f(qq, v, S), q)

    def over_v(f):
        return lambda q, v, S: fd_gradient(lambda vv: f(q, vv, S), v)

    def over_S(f):
        return lambda q, v, S: fd_gradient(lambda s: f(q, v, s), float(S))

    dLdv_q = over_q(sys.dLdv)
    return {"d2Ldq2": over_q(sys.dLdq),
            "d2Ldqdv": lambda q, v, S: transposed(dLdv_q(q, v, S)),
            "d2Ldv2": over_v(sys.dLdv),
            "d2LdqdS": over_S(sys.dLdq),
            "d2LdvdS": over_S(sys.dLdv),
            "dFfrdq": over_q(sys.Ffr),
            "dFfrdv": over_v(sys.Ffr),
            "dFfrdS": over_S(sys.Ffr)}


def equations_of_motion(sys, q, v, S):
    """Right-hand side (qdot, vdot, Sdot) of the equations of motion at raw (q, v, S).

    ``q`` and ``v`` are float arrays of length n, or Python floats for a
    system with ``float_points`` and ``accel``; ``S`` is a float.  Sdot
    solves the entropy equation; vdot either comes from the system's
    closed-form acceleration or from solving the velocity Hessian in

        d/dt (dL/dv) = dL/dq + Ffr.
    """
    dLdS = sys.dLdS(q, v, S)
    if dLdS == 0.0:
        raise TemperatureDegenerateError("dL/dS vanishes: entropy equation singular")
    ffr = sys.Ffr(q, v, S)
    Sdot = pair(v, ffr) / dLdS
    if sys.accel is not None:
        vdot = sys.accel(q, v, S)
    else:
        rhs = (sys.dLdq(q, v, S) + ffr - sys.d2Ldqdv(q, v, S).T @ v
               - sys.d2LdvdS(q, v, S) * Sdot)
        vdot = np.linalg.solve(sys.d2Ldv2(q, v, S), rhs)
    # +v: a copy of an array, the float itself at a float point
    return +v, vdot, Sdot


def continuous_rhs(sys, state):
    """Right-hand side (qdot, vdot, Sdot) of the equations of motion at a state."""
    return equations_of_motion(sys, state.q, state.v, state.S)


def _on_floats(sys):
    """Whether `first_order_rhs` and `bench.rk2_integrate` run ``sys`` at float
    points: ``float_points`` as in `discrete._floats`, and two conditions more,
    n = 1 (a right-hand side on pairs of floats measured no gain, ROADMAP) and
    ``accel`` given (without it the velocity Hessian is solved on arrays)."""
    return sys.n == 1 and sys.float_points and sys.accel is not None


def _or_on_arrays(value, redo, *args):
    """The one way back from float points to arrays: ``value`` (a float or a
    flat tuple of floats, the bits of the value on arrays) where the sum of its
    entries is finite, else ``redo(*args)``, the value on arrays, where numpy
    reports what float arithmetic passes silently.  A caller returning arrays
    converts by ``np.array(..., copy=None)``, which copies no array of the redo."""
    return value if math.isfinite(value if type(value) is float else sum(value)) else redo(*args)


def first_order_rhs(sys):
    """The equations of motion as ``(t, y) -> dy/dt`` on y = (q, v, S), for ODE solvers.

    Where `_on_floats` holds, y is evaluated as three Python floats, bit for
    bit the call on length-1 arrays, and evaluated again on arrays where a
    value is not finite (`_or_on_arrays`).  Any other system is evaluated on
    arrays.
    """
    n = sys.n

    def on_arrays(t, y):
        qd, vd, Sd = equations_of_motion(sys, y[:n], y[n : 2 * n], float(y[2 * n]))
        return np.concatenate([qd, vd, [Sd]])

    if not _on_floats(sys):
        return on_arrays

    def fun(t, y):
        return np.asarray(_or_on_arrays(equations_of_motion(sys, *y.tolist()), on_arrays, t, y))

    return fun


def noether_lift_check(sys, X, X_jac, states, tol=1e-10):
    """Check the lifted-symmetry condition X^C(L) = -Ffr(X^C).

    ``X`` maps q to the field value, ``X_jac`` to its Jacobian
    [i, j] = dX_i/dq_j.  Returns True when the condition holds at every
    sample state, in which case X^V(L) = dL/dv . X(q) is conserved.
    """
    for st in states:
        q, v, S = st.q, st.v, st.S
        xc = (np.asarray(X(q)) @ sys.dLdq(q, v, S)
              + (np.asarray(X_jac(q)) @ v) @ sys.dLdv(q, v, S))
        friction = np.asarray(sys.Ffr(q, v, S)) @ np.asarray(X(q))
        if not abs(xc + friction) <= tol:
            return False
    return True


def conserved_along(traj, g):
    """Maximum drift of g (function of ThermoState) along a trajectory;
    NaN when g is NaN at any state."""
    g0 = g(traj.state(0))
    return float(np.max([abs(g(traj.state(k)) - g0) for k in range(len(traj))]))
