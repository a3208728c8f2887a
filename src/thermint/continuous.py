"""Continuous Lagrangian thermodynamic systems.

State space is (q, v, S) with q, v in R^n and a single entropy variable S.
A system is described by a Lagrangian L(q, v, S), its partials and a
friction covector field.  The equations of motion couple the forced
Euler-Lagrange equations with the entropy equation (dL/dS) * Sdot = v . Ffr.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import TemperatureDegenerateError

__all__ = [
    "ThermoState",
    "LagrangianThermoSystem",
    "Trajectory",
    "energy",
    "temperature",
    "legendre",
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
    return np.zeros_like(q)


def pair(a, b):
    """a . b over the last axis: a float for one point, an array for a
    stack (`np.vecdot`, which sums as ``@`` does; an einsum does not).

    Two floats, the components at a float point of a one-dimensional
    system, pair as ``0.0 + a * b``: the length-1 ``@`` starts its sum at
    +0.0, so it gives 0.0 for (-0.0) * 1.0 where ``a * b`` gives -0.0.
    """
    if isinstance(a, float):
        return 0.0 + a * b
    a = np.asarray(a)
    return float(a @ b) if a.ndim == 1 else np.vecdot(a, b)


def transposed(x):
    """x.T, or x itself at a float point (a 1x1 matrix as its one entry)."""
    return x if isinstance(x, float) else x.T


def vec(x):
    """A point, a stack or a residual as a float array with at least one axis."""
    return np.atleast_1d(np.asarray(x, dtype=float))


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

    @property
    def n(self):
        return self.q.shape[0]


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

    Stacks of points: the whole-path diagnostics (those given
    `DiscretePath.stack`, and `bench.hamiltonian_estimates`) call ``L``,
    ``dLdq``, ``dLdv``, ``dLdS``, ``Ffr`` and ``domain_check`` once on a
    stack, q and v of shape (..., n) and S of shape (...).  A
    system used there returns covectors of shape (..., n) and scalars of
    shape (...) (a value that does not depend on the point may stay a
    float), ``domain_check`` raises if any row is outside the domain, and
    row k gives the bits of the single-point call on row k.  The catalog
    systems do; a single point keeps float arithmetic, because `integrate`
    calls every callable once per point.  On arrays they take powers with
    ``np.float_power`` and pair with ``np.vecdot``, which round as float
    ``**`` and ``@`` do: array ``**`` differs in 1115 of 20 000 arguments
    (e = -2/3), and an einsum pairing in 3220 of 20 000 (n = 2).  The
    other callables take one point.

    Float points: a one-dimensional system may declare ``float_points``.
    ``L``, the first partials, ``Ffr``, ``d2Ldq2``, ``d2Ldqdv``,
    ``d2Ldv2``, ``dFfrdq``, ``dFfrdv`` and ``domain_check`` then also
    take a point whose q and v are Python floats, and return a float for
    each covector and each 1x1 matrix, bit for bit the one entry of the
    call on length-1 arrays (a derived one of these does so when the first
    partials do).  `midpoint_discretize` then runs the stepping kernel on
    floats.  The catalog's one-dimensional systems declare it.  A system
    written on arrays (``q @ q``, ``q[0]``) leaves it False, and its
    kernel takes float points through length-1 arrays; whether a callable
    takes floats cannot be told without calling it, hence the field.
    """

    n: int
    L: callable
    dLdq: callable
    dLdv: callable
    dLdS: callable
    Ffr: callable = _zero_force
    name: str = ""
    params: dict = field(default_factory=dict)

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
    domain_check: callable = None    # raises DomainError outside the domain
    float_points: bool = False       # n = 1 callables also take float q and v

    def __post_init__(self):
        if self.float_points and self.n != 1:
            raise ValueError("float_points declares a one-dimensional system")
        derive_missing(self, _second_partials(self))

    def check_domain(self, q):
        if self.domain_check is not None:
            self.domain_check(q)


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
        if m > 1 and np.max(np.abs(np.diff(self.times) - self.h)) > 1e-9 * max(1.0, self.h):
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


def legendre(sys, state):
    """Legendre transform (q, v, S) -> (q, p, S) with p = dL/dv."""
    p = np.asarray(sys.dLdv(state.q, state.v, state.S), dtype=float)
    return state.q.copy(), p, state.S


def fd_gradient(f, x):
    """Central-difference gradient of a scalar/vector function of x (1d).

    At a float x it is the derivative f'(x), bit for bit the one column of
    the gradient at the length-1 array [x].
    """
    if isinstance(x, float):
        d = FD_STEP * (1.0 + abs(x))
        return (f(x + d) - f(x - d)) / (2 * d)
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        d = FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += d
        xm[j] -= d
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * d))
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
        return lambda q, v, S: fd_gradient(lambda s: f(q, v, s[0]), [S])[..., 0]

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

    ``q`` and ``v`` are float arrays of length n, ``S`` a float.  Sdot
    solves the entropy equation; vdot either comes from the system's
    closed-form acceleration or from solving the velocity Hessian in

        d/dt (dL/dv) = dL/dq + Ffr.
    """
    sys.check_domain(q)
    dLdS = float(sys.dLdS(q, v, S))
    if dLdS == 0.0:
        raise TemperatureDegenerateError("dL/dS vanishes: entropy equation singular")
    ffr = np.asarray(sys.Ffr(q, v, S), dtype=float)
    Sdot = float(v @ ffr) / dLdS
    if sys.accel is not None:
        vdot = np.asarray(sys.accel(q, v, S), dtype=float)
    else:
        rhs = (np.asarray(sys.dLdq(q, v, S), dtype=float) + ffr
               - np.asarray(sys.d2Ldqdv(q, v, S), dtype=float).T @ v
               - np.asarray(sys.d2LdvdS(q, v, S), dtype=float) * Sdot)
        vdot = np.linalg.solve(np.asarray(sys.d2Ldv2(q, v, S), dtype=float), rhs)
    return v.copy(), vdot, Sdot


def continuous_rhs(sys, state):
    """Right-hand side (qdot, vdot, Sdot) of the equations of motion at a state."""
    return equations_of_motion(sys, state.q, state.v, state.S)


def first_order_rhs(sys):
    """The equations of motion as ``(t, y) -> dy/dt`` on y = (q, v, S), for ODE solvers."""
    n = sys.n

    def fun(t, y):
        qd, vd, Sd = equations_of_motion(sys, y[:n], y[n : 2 * n], float(y[2 * n]))
        return np.concatenate([qd, vd, [Sd]])

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
