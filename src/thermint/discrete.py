"""Discrete variational machinery for thermodynamic systems.

A discrete system lives on triples x = (q0, q1, S0) in R^n x R^n x R.  It
is described by a discrete Lagrangian Ld(q0, q1, S0), its slot
derivatives D1Ld, D2Ld (covectors) and DSLd (scalar), and a pair of
discrete friction covectors ffr_minus/ffr_plus.  On a vector space with
linear coordinates both friction covectors share one value;
`midpoint_discretize` builds them that way from a continuous system.

Everything else comes from the two Legendre covectors
pi_minus = -D1Ld - ffr_minus/2 and pi_plus = D2Ld + ffr_plus/2.  One step
of the discrete equations needs the covectors, the semiregularity matrix
d(pi_minus)/dq1 and the entropy increment.  The two-forms are the
pullbacks of dq ^ dp by (q0, pi_minus) and (q1, pi_plus), so they need
only the covector Jacobians, of shape (n, 2n+1) with columns
[q0 | q1 | S0]:

    (dpi)[i, j] = d(pi)_i / d(x)_j,    x = (q0, q1, S0)

These six callables are always present on a `DiscreteThermoSystem`.
`midpoint_discretize` builds each pair from one builder indexed by the
side cv (-1: minus, slot q0; +1: plus, slot q1), pi = cv (D_slot Ld +
ffr/2), with analytic Jacobians; its semiregularity matrix is the q1 block
of dpi_minus, ``q_block(-1, 1)``.  Any other system gets the generic
combinations of its slot derivatives at construction, with Jacobians from
`continuous.fd_gradient` (central differences with step
``cbrt(eps) * (1 + |x|)``).
"""

import inspect
from dataclasses import dataclass

import numpy as np

from .continuous import derive_missing, fd_gradient, pair, transposed
from .errors import TemperatureDegenerateError

__all__ = [
    "DiscreteThermoSystem",
    "DiscreteTriple",
    "DiscretePath",
    "midpoint_discretize",
    "entropy_update",
    "del_residual",
    "legendre_plus",
    "legendre_minus",
    "discrete_momenta",
    "discrete_flow",
    "omega_matrices",
    "omega_embedded",
    "pullback_check",
    "momentum_map",
    "noether_condition",
    "discrete_action",
    "semiregularity_matrix",
]


@dataclass(frozen=True)
class DiscreteTriple:
    """A point (q0, q1, S0) of the discrete state space, shapes (n,), (n,) and a float,
    or a stack of points, shapes (..., n) and (...).  Row k of a diagnostic on a stack
    is the bits of its call on row k; one marked "one triple only" raises ValueError."""

    q0: np.ndarray
    q1: np.ndarray
    S0: float

    def __post_init__(self):
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        q1 = np.atleast_1d(np.asarray(self.q1, dtype=float))
        if q0.shape != q1.shape:
            raise ValueError("q0 and q1 must have the same shape")
        S0 = float(self.S0) if q0.ndim == 1 else np.asarray(self.S0, dtype=float)
        if q0.ndim > 1 and S0.shape != q0.shape[:-1]:
            raise ValueError(f"S0 must have shape {q0.shape[:-1]}, got {S0.shape}")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "S0", S0)

    def as_array(self):
        return np.concatenate([self.q0, self.q1, [_single(self).S0]])


@dataclass
class DiscreteThermoSystem:
    """Discrete Lagrangian, its slot derivatives and friction covectors.

    All callables take ``(q0, q1, S0)``.  A discretization must supply
    ``Ld``, ``D1Ld``, ``D2Ld``, ``DSLd``, ``ffr_minus`` and ``ffr_plus``.
    The covector Jacobians (``dpi_minus``, ``dpi_plus``) and the four
    stepping-kernel fields (``pi_minus``, ``pi_plus``, ``pi_minus_dq1``,
    ``entropy_increment``) may be left out; they are then derived from the
    slot derivatives, the Jacobians by central differences of the
    covectors.

    All but ``dpi_minus``, ``dpi_plus`` and ``pi_minus_dq1`` also take a
    stack of triples (see `DiscreteTriple`), as `midpoint_discretize`
    builds them from a stack-capable continuous system; the diagnostics
    evaluate a whole path, `DiscretePath.stack`, that way.

    At n = 1 the four kernel callables also take a float point (q0, q1
    and S0 floats) and return a float, bit for bit the one entry of their
    value on length-1 arrays; every one-dimensional step runs on them.
    The midpoint rule of a system that declares ``float_points`` computes
    on the floats.  Any other kernel callable, the generic ones included,
    is wrapped at construction in an adapter that calls it on length-1
    arrays; one with the attribute ``float_point = True`` is taken as it is.
    """

    n: int
    h: float
    Ld: callable
    D1Ld: callable
    D2Ld: callable
    DSLd: callable
    ffr_minus: callable
    ffr_plus: callable

    # Jacobians of the Legendre covectors in (q0, q1, S0), (n, 2n+1)
    dpi_minus: callable = None
    dpi_plus: callable = None

    # the stepping kernel; a fused version evaluates the combination it
    # names in one pass, a missing one is derived in __post_init__
    pi_minus: callable = None           # -D1Ld - ffr_minus/2
    pi_plus: callable = None            # D2Ld + ffr_plus/2
    pi_minus_dq1: callable = None       # d(pi_minus)/dq1, the semiregularity matrix
    entropy_increment: callable = None  # S1 - S0 on a triple

    name: str = ""

    def __post_init__(self):
        derive_missing(self, _generic_kernel(self))
        if self.n == 1:
            for attr in _KERNEL:
                fn = getattr(self, attr)
                if not getattr(inspect.unwrap(fn), "float_point", False):
                    setattr(self, attr, _at_float_point(fn))


@dataclass
class DiscretePath:
    """Discrete path (q_k, S_k), k = 0..N, at a fixed step h.

    Membership in the thermodynamic path space (the entropy-update
    constraint at every k) is checked by `constraint_residual`; paths
    produced by the integrator satisfy it by construction.
    """

    h: float
    qs: np.ndarray   # (N+1, n)
    Ss: np.ndarray   # (N+1,)

    def __post_init__(self):
        self.qs = np.atleast_2d(np.asarray(self.qs, dtype=float))
        self.Ss = np.asarray(self.Ss, dtype=float)
        if len(self.qs) != len(self.Ss):
            raise ValueError("qs and Ss must have equal length")

    def __len__(self):
        return len(self.qs)

    @property
    def n_steps(self):
        return len(self.qs) - 1

    def triple(self, k):
        """The k-th solver triple (q_{k-1}, q_k, S_{k-1}), 1 <= k <= N."""
        if not 1 <= k <= self.n_steps:
            raise IndexError(f"triple index {k} out of range")
        return DiscreteTriple(self.qs[k - 1], self.qs[k], self.Ss[k - 1])

    def triples(self):
        for k in range(1, self.n_steps + 1):
            yield self.triple(k)

    def stack(self):
        """The N solver triples (q_{k-1}, q_k, S_{k-1}) as one stacked triple."""
        return DiscreteTriple(self.qs[:-1], self.qs[1:], self.Ss[:-1])

    def constraint_residual(self, d):
        """Max relative violation of the entropy-update constraint.

        The entropy updates of all N triples are one call on `stack`, so
        ``d`` must take stacks (see `DiscreteThermoSystem`).  NaN
        violations are ignored.
        """
        S1 = self.Ss[1:]
        err = np.abs(S1 - entropy_update(d, self.stack())) / np.maximum(1.0, np.abs(S1))
        return float(np.fmax.reduce(err, initial=0.0))


# ---------------------------------------------------------------------------
# one triple or a stack of triples


def _single(t):
    """The triple t, which must be one triple, not a stack."""
    if t.q0.ndim != 1:
        raise ValueError(f"expected one triple, got a stack of shape {t.q0.shape[:-1]}")
    return t


def _quotient(num, den):
    """num / den, with ZeroDivisionError for a zero den.  One triple keeps
    float division; on a stack, where division by zero gives inf, any zero
    row raises."""
    if type(num) is float:
        return num / float(den)
    if np.any(den == 0.0):
        raise ZeroDivisionError("float division by zero")
    return num / den


def _point_or_stack(x):
    """A scalar field's value: a float at one triple, an array on a stack."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _value(x):
    """A covector or matrix term of the kernel: an array, or the float
    itself at a float point."""
    return x if isinstance(x, float) else np.asarray(x)


# ---------------------------------------------------------------------------
# float points of one-dimensional systems

#: the stepping kernel; at n = 1 each also takes a float point
_KERNEL = ("pi_minus", "pi_plus", "pi_minus_dq1", "entropy_increment")


def _at_float_point(fn):
    """The kernel callable ``fn`` of a one-dimensional system, also taking
    a float point (q0, q1 floats): it calls ``fn`` on length-1 arrays and
    returns the one entry of the value as a float.  Arrays pass through."""
    def kernel(q0, q1, S0):
        if type(q0) is float:
            return np.asarray(fn(np.array([q0]), np.array([q1]), S0), dtype=float).item()
        return fn(q0, q1, S0)
    kernel.float_point = True
    kernel.generic = getattr(fn, "generic", False)
    return kernel


# ---------------------------------------------------------------------------
# the generic kernel


def _generic_kernel(d):
    """The stepping-kernel callables and the covector Jacobians built from
    the slot derivatives."""
    n = d.n
    D1Ld, D2Ld, DSLd = d.D1Ld, d.D2Ld, d.DSLd
    ffr_minus, ffr_plus = d.ffr_minus, d.ffr_plus
    shared = ffr_minus is ffr_plus

    def pi_minus(q0, q1, S0):
        return (-np.asarray(D1Ld(q0, q1, S0), dtype=float)
                - 0.5 * np.asarray(ffr_minus(q0, q1, S0), dtype=float))

    def pi_plus(q0, q1, S0):
        return (np.asarray(D2Ld(q0, q1, S0), dtype=float)
                + 0.5 * np.asarray(ffr_plus(q0, q1, S0), dtype=float))

    def covector_jacobian(side):
        # central differences of the system's final pi_minus or pi_plus,
        # looked up at call time so that a fused covector is the one used
        def dpi(q0, q1, S0):
            pi = getattr(d, side)
            x = np.concatenate([q0, q1, [S0]])
            return fd_gradient(lambda y: pi(y[:n], y[n : 2 * n], y[2 * n]), x)
        return dpi

    def pi_minus_dq1(q0, q1, S0):
        if getattr(d.dpi_minus, "generic", False):
            # the q1 columns of the generic dpi_minus, without the others
            pi = d.pi_minus
            return fd_gradient(lambda y: pi(q0, y, S0), q1)
        return np.asarray(d.dpi_minus(q0, q1, S0), dtype=float)[:, n : 2 * n]

    def entropy_increment(q0, q1, S0):
        # (ffr_plus . q1 - ffr_minus . q0) / DSLd; a shared covector f is
        # paired as f . (q1 - q0), the same quantity without cancellation
        # at large coordinates.  A zero DSLd raises ZeroDivisionError.
        dsl = DSLd(q0, q1, S0)
        if shared:
            num = pair(ffr_plus(q0, q1, S0), q1 - q0)
        else:
            num = pair(ffr_plus(q0, q1, S0), q1) - pair(ffr_minus(q0, q1, S0), q0)
        return _quotient(num, dsl)

    return {"pi_minus": pi_minus, "pi_plus": pi_plus,
            "pi_minus_dq1": pi_minus_dq1, "entropy_increment": entropy_increment,
            "dpi_minus": covector_jacobian("pi_minus"),
            "dpi_plus": covector_jacobian("pi_plus")}


# ---------------------------------------------------------------------------
# midpoint discretization of a continuous system


def midpoint_discretize(sys, h):
    """Discretize a Lagrangian system by the midpoint substitutions.

    q -> (q0 + q1)/2 and v -> (q1 - q0)/h in L and in the friction
    covector; the single friction value acts on dq0 as ffr_minus and on
    dq1 as ffr_plus.  The other callables come from four builders indexed
    by the side ``cv``, -1 for the minus side (slot q0) and +1 for the plus
    side (slot q1), each evaluating in one midpoint pass: ``slot(cv)`` is
    D1Ld or D2Ld, ``covector(cv)`` pi_minus or pi_plus, and
    ``q_block(cv, c)`` (c = -1: q0, c = 1: q1) and ``S_block(cv)`` are the
    column blocks of its Jacobian, by the chain rule from the system's
    second partials and friction Jacobians.  The semiregularity matrix
    ``pi_minus_dq1`` is ``q_block(-1, 1)``, the q1 block of ``dpi_minus``.

    Each builder is one formula over points and arrays.  For a system that
    declares ``float_points`` its cast `_value` and `continuous.transposed`
    leave a float as it is, and the kernel callables (``covector(±1)``,
    ``q_block(-1, 1)`` and the entropy increment) take float points.
    """
    if h <= 0:
        raise ValueError(f"time step must be positive, got {h}")
    n = sys.n
    # the cast of a term: only a system with float points meets a float
    value = _value if sys.float_points else np.asarray

    def mid(q0, q1):
        return 0.5 * (q0 + q1), (q1 - q0) / h

    def Ld(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return sys.L(m, w, S0)

    def slot(cv):
        # the slot derivative: (1/2) dL/dq + (cv/h) dL/dv
        cvh = cv * h

        def D(q0, q1, S0):
            m, w = mid(q0, q1)
            sys.check_domain(m)
            return 0.5 * value(sys.dLdq(m, w, S0)) + value(sys.dLdv(m, w, S0)) / cvh
        return D

    def covector(cv):
        # the Legendre covector cv * (slot(cv) + ffr/2)
        k = 0.5 * cv

        def pi(q0, q1, S0):
            m, w = mid(q0, q1)
            sys.check_domain(m)
            return (value(sys.dLdv(m, w, S0)) / h + k * value(sys.dLdq(m, w, S0))
                    + k * value(sys.Ffr(m, w, S0)))
        return pi

    def at_mid(fn, cast):
        # a field of (q, v, S) evaluated at the midpoint substitution
        def f(q0, q1, S0):
            m, w = mid(q0, q1)
            return cast(fn(m, w, S0))
        return f

    def q_block(cv, c):
        # d covector(cv) / dq0 (c = -1) or / dq1 (c = 1); L's terms, then
        # the friction terms: this sum order fixes the bits of the two-forms
        k_vv, k_q, k_qv, k_vq = c / (h * h), 0.25 * cv, cv * c / (2 * h), 1 / (2 * h)

        def block(q0, q1, S0):
            m, w = mid(q0, q1)
            qv = value(sys.d2Ldqdv(m, w, S0))
            return (k_q * value(sys.d2Ldq2(m, w, S0)) + k_qv * qv + k_vq * transposed(qv)
                    + k_vv * value(sys.d2Ldv2(m, w, S0))
                    + (k_q * value(sys.dFfrdq(m, w, S0)) + k_qv * value(sys.dFfrdv(m, w, S0))))
        return block

    def S_block(cv):
        # d covector(cv) / dS0
        k, k_v = 0.5 * cv, 1 / h

        def block(q0, q1, S0):
            m, w = mid(q0, q1)
            return (k * value(sys.d2LdqdS(m, w, S0)) + k_v * value(sys.d2LdvdS(m, w, S0))
                    + k * value(sys.dFfrdS(m, w, S0)))
        return block

    def covector_jacobian(cv):
        blocks = (q_block(cv, -1), q_block(cv, 1), S_block(cv))
        return lambda q0, q1, S0: np.column_stack([b(q0, q1, S0) for b in blocks])

    def entropy_increment(q0, q1, S0):
        m, w = mid(q0, q1)
        return _quotient(pair(sys.Ffr(m, w, S0), q1 - q0), sys.dLdS(m, w, S0))

    kernel = {"pi_minus": covector(-1), "pi_plus": covector(1),
              "pi_minus_dq1": q_block(-1, 1), "entropy_increment": entropy_increment}
    for fn in kernel.values():
        fn.float_point = sys.float_points
    ffr = at_mid(sys.Ffr, value)
    return DiscreteThermoSystem(
        n=n, h=h, Ld=Ld, D1Ld=slot(-1), D2Ld=slot(1), DSLd=at_mid(sys.dLdS, _point_or_stack),
        ffr_minus=ffr, ffr_plus=ffr, dpi_minus=covector_jacobian(-1),
        dpi_plus=covector_jacobian(1), name=sys.name, **kernel,
    )


# ---------------------------------------------------------------------------
# core one-step objects


def entropy_update(d, t):
    """Entropy after one step: the phenomenological-constraint update.

        S1 = S0 + (ffr_plus . q1 - ffr_minus . q0) / DSLd

    evaluated on each triple through the system's entropy increment.
    """
    return _updated_entropy(d, t.q0, t.q1, t.S0)


def _updated_entropy(d, q0, q1, S0):
    """`entropy_update` on raw (q0, q1, S0), as `solve.solve_step` steps."""
    try:
        return S0 + d.entropy_increment(q0, q1, S0)
    except ZeroDivisionError:
        raise TemperatureDegenerateError(
            "D_S Ld vanishes: entropy update singular") from None


def del_residual(d, q_prev, q_curr, S_prev, q_next, S_curr):
    """Residual covector of the discrete Euler-Lagrange equations,
    pi_plus(q_prev, q_curr, S_prev) - pi_minus(q_curr, q_next, S_curr).

    Zero exactly when (q_prev, q_curr, q_next) with entropies
    (S_prev, S_curr) is a solution step.
    """
    q_prev = np.atleast_1d(np.asarray(q_prev, dtype=float))
    q_curr = np.atleast_1d(np.asarray(q_curr, dtype=float))
    q_next = np.atleast_1d(np.asarray(q_next, dtype=float))
    return (np.asarray(d.pi_plus(q_prev, q_curr, S_prev), dtype=float)
            - np.asarray(d.pi_minus(q_curr, q_next, S_curr), dtype=float))


def legendre_minus(d, t):
    """Minus Legendre transform: (q0, -D1Ld - ffr_minus/2, S0)."""
    cov = np.asarray(d.pi_minus(t.q0, t.q1, t.S0), dtype=float)
    return t.q0.copy(), cov, t.S0


def legendre_plus(d, t):
    """Plus Legendre transform: (q1, D2Ld + ffr_plus/2, entropy update)."""
    S1 = entropy_update(d, t)
    cov = np.asarray(d.pi_plus(t.q0, t.q1, t.S0), dtype=float)
    return t.q1.copy(), cov, S1


def discrete_momenta(d, t):
    """h-scaled momenta (p_minus, p_plus); these approximate p = dL/dv."""
    q0, q1, S0 = t.q0, t.q1, t.S0
    p_plus = d.h * np.asarray(d.D2Ld(q0, q1, S0), dtype=float) + (d.h / 2) * np.asarray(
        d.ffr_plus(q0, q1, S0), dtype=float)
    p_minus = -d.h * np.asarray(d.D1Ld(q0, q1, S0), dtype=float) - (d.h / 2) * np.asarray(
        d.ffr_minus(q0, q1, S0), dtype=float)
    return p_minus, p_plus


def semiregularity_matrix(d, t):
    """d(pi_minus)/dq1; invertibility makes the minus transform
    a local diffeomorphism.  Its negative is the Newton Jacobian of
    `del_residual` in q_next.  One triple only."""
    t = _single(t)
    return np.asarray(d.pi_minus_dq1(t.q0, t.q1, t.S0), dtype=float)


def discrete_flow(d, t, cfg=None):
    """One step of the discrete Lagrangian flow.

    Maps (q0, q1, S0) to (q1, q2, S1) where S1 is the entropy update and q2 is the
    Newton root of the discrete Euler-Lagrange residual; the step is the one `integrate`
    takes, `solve.solve_step` on floats at n = 1.  One triple only.
    """
    from .solve import _point, solve_step

    t = _single(t)
    q2, S1 = solve_step(d, _point(d, t.q0), _point(d, t.q1), t.S0, cfg)
    return DiscreteTriple(t.q1, q2, S1)


# ---------------------------------------------------------------------------
# two-forms and the pullback theorem


def omega_matrices(d, t):
    """q0/q1 coefficient blocks of the two pulled-back two-forms.

        Wplus  = d(pi_plus)/dq0
        Wminus = -(d(pi_minus)/dq1)^T

    in the index convention of the module docstring; each is
    ``-omega_embedded(d, t, side)[:n, n:2n].T``.  One triple only.
    """
    t = _single(t)
    n = d.n
    dplus = np.asarray(d.dpi_plus(t.q0, t.q1, t.S0), dtype=float)
    dminus = np.asarray(d.dpi_minus(t.q0, t.q1, t.S0), dtype=float)
    return dplus[:, :n], -dminus[:, n : 2 * n].T


def omega_embedded(d, t, side):
    """Full (2n+1)-dimensional antisymmetric matrix of omega^{+/-} at t.

    Computed as the exact pullback of the canonical form dq^i ^ dp_i by
    the corresponding discrete Legendre transform, so it carries the
    dq ^ dS block produced by entropy-dependent momenta alongside the
    dq0 ^ dq1 block of `omega_matrices`.  One triple only.
    """
    t = _single(t)
    n = d.n
    if side == "plus":
        # the plus transform: q = q1, p = pi_plus
        q_cols, dpi = slice(n, 2 * n), d.dpi_plus
    elif side == "minus":
        # the minus transform: q = q0, p = pi_minus
        q_cols, dpi = slice(0, n), d.dpi_minus
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    Aq = np.zeros((n, 2 * n + 1))
    Aq[:, q_cols] = np.eye(n)
    Ap = np.asarray(dpi(t.q0, t.q1, t.S0), dtype=float)
    return Aq.T @ Ap - Ap.T @ Aq


def _flow_jacobian(d, t, cfg):
    """Richardson-extrapolated central-difference Jacobian of the flow."""
    from .solve import _point, solve_step

    step = 1e-4
    n = d.n
    dim = 2 * n + 1
    x0 = t.as_array()

    def flow_vec(x):
        q2, S1 = solve_step(d, _point(d, x[:n]), _point(d, x[n : 2 * n]), float(x[2 * n]), cfg)
        return np.concatenate([x[n : 2 * n], np.atleast_1d(q2), [S1]])

    def central(delta):
        cols = []
        for j in range(dim):
            xp = x0.copy()
            xm = x0.copy()
            xp[j] += delta
            xm[j] -= delta
            cols.append((flow_vec(xp) - flow_vec(xm)) / (2 * delta))
        return np.stack(cols, axis=-1)

    coarse = central(step)
    fine = central(step / 2)
    return (4.0 * fine - coarse) / 3.0


def pullback_check(d, t, cfg=None):
    """Defect of the flow-pullback identity on the two-forms.

    Returns ``max |J^T W^-(flow(t)) J - W^+(t)|`` with J the
    finite-difference Jacobian of the flow at t; the identity is exact
    for the analytic flow, so the value measures only discretization of
    J (and Newton tolerance).  One triple only.
    """
    image = discrete_flow(d, t, cfg)
    J = _flow_jacobian(d, t, cfg)
    w_minus = omega_embedded(d, image, "minus")
    w_plus = omega_embedded(d, t, "plus")
    return float(np.max(np.abs(J.T @ w_minus @ J - w_plus)))


# ---------------------------------------------------------------------------
# momentum maps and the discrete Noether condition


def momentum_map(d, t, xi, side):
    """Pairing of a discrete momentum with the generator xi, a float at one triple
    or an array on a stack; xi receives the q it is paired with, (n,) or (..., n)."""
    p_minus, p_plus = discrete_momenta(d, t)
    if side == "plus":
        return pair(p_plus, xi(t.q1))
    if side == "minus":
        return pair(p_minus, xi(t.q0))
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def noether_condition(d, xi, t, tol=1e-10):
    """Discrete Noether condition xi(Ld) + f_d(xi) = 0 at a triple, or at
    every row of a stack; a NaN residual fails it.

    xi acts diagonally on (q0, q1) with zero S-component; the friction
    pairing carries the same 1/2 weights as the variational principle.
    ``xi`` receives q0 and q1 as in `momentum_map`.  When the condition
    holds the momentum map is a constant of the discrete motion.
    """
    val = (pair(np.asarray(d.pi_plus(t.q0, t.q1, t.S0), dtype=float), xi(t.q1))
           - pair(np.asarray(d.pi_minus(t.q0, t.q1, t.S0), dtype=float), xi(t.q0)))
    return bool(np.all(np.abs(val) <= tol))


# ---------------------------------------------------------------------------
# the discrete action


def discrete_action(d, path, validate=True, constraint_tol=1e-12):
    """Discrete action of a path of the thermodynamic path space: Ld summed in path order."""
    if validate:
        res = path.constraint_residual(d)
        if res > constraint_tol:
            raise ValueError(
                f"path violates the entropy-update constraint (relative residual {res:.3e})"
            )
    t = path.stack()
    return float(sum(np.broadcast_to(d.Ld(t.q0, t.q1, t.S0), t.S0.shape)))
