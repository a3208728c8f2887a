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

The covectors and the entropy increment of one triple are formed in one
place, its ``triple_pass``: it returns pi_minus and a rest that forms
pi_plus and the increment of the same triple on demand.  In the midpoint
rule that is one midpoint evaluation (m, w, dL/dv, dL/dq, Ffr, with dL/dS
for the increment); `integrate` carries it from the root of one step to
the next.  The callables pi_minus, pi_plus and entropy_increment of a
`DiscreteThermoSystem` are read off the pass.  `midpoint_discretize`
supplies the pass with analytic Jacobians; its semiregularity matrix is
the q1 block of dpi_minus, ``q_block(-1, 1)``.  Any other system gets the
generic pass of its slot derivatives at construction, with Jacobians from
`continuous.fd_gradient` (central differences with step
``cbrt(eps) * (1 + |x|)``).
"""

from dataclasses import dataclass
from operator import add

import numpy as np

from .continuous import _constant, _forms, derive_missing, fd_gradient, pair, transposed
from .errors import TemperatureDegenerateError

__all__ = [
    "DiscreteThermoSystem",
    "DiscreteTriple",
    "DiscretePath",
    "midpoint_discretize",
    "entropy_update",
    "legendre_plus",
    "legendre_minus",
    "discrete_momenta",
    "discrete_flow",
    "omega_embedded",
    "pullback_check",
    "momentum_map",
    "noether_condition",
    "discrete_action",
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
    ``Ld``, ``D1Ld``, ``D2Ld``, ``DSLd``, ``ffr_minus`` and ``ffr_plus``,
    and may supply ``triple_pass``, ``pi_minus_dq1`` and the covector
    Jacobians ``dpi_minus`` and ``dpi_plus``; one left out is derived from
    the slot derivatives: the generic pass, and the Jacobians by central
    differences of the covectors.  ``pi_minus``, ``pi_plus`` and
    ``entropy_increment`` are then derived from the final ``triple_pass``,
    each from one pass.  Every derived field is marked ``generic`` and
    rebuilt by ``dataclasses.replace``, so a copy that replaces
    ``triple_pass`` reads its covectors off the new pass; a callable handed
    in for a derived field (a profiler's wrapper) is kept as it is.

    The return contract is that of `continuous.LagrangianThermoSystem`:
    a callable returns a float at a float point and a float ndarray
    otherwise, and a value that is the same at every point may stay a
    float.  The step and the diagnostics use each value as it comes,
    without a cast.

    All but ``dpi_minus``/``dpi_plus`` also take a stack of triples (see
    `DiscreteTriple`), ``pi_minus_dq1`` returning (..., n, n) (or one
    (n, n) matrix that serves every row), as `midpoint_discretize` builds
    them from a stack-capable continuous system; the diagnostics evaluate a
    whole path, `DiscretePath.stack`, that way, and `solve.solve_step` the
    flows of a pullback check.

    At n = 1 every step runs on float points (q0, q1 and S0 floats), so a
    pass or ``pi_minus_dq1`` handed to the constructor at n = 1 takes float
    points and returns floats, bit for bit the one entry of its value on
    length-1 arrays.  The midpoint rule of a system that declares
    ``float_points`` computes on the floats; any other midpoint rule at
    n = 1 and the generic kernel adapt theirs to length-1 arrays.  At n = 2
    a step runs on points of two floats (q0, q1 tuples) where the pass and
    ``pi_minus_dq1`` are marked ``float_points`` (see `solve._point`), as
    the midpoint rule of a system that declares it marks its own: they
    return a tuple for each covector and a flat tuple for the matrix, bit
    for bit the entries of their values on arrays.  Any other kernel at
    n = 2 steps on arrays.
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

    # the stepping kernel; the first three are read off triple_pass
    pi_minus: callable = None           # -D1Ld - ffr_minus/2
    pi_plus: callable = None            # D2Ld + ffr_plus/2
    pi_minus_dq1: callable = None       # d(pi_minus)/dq1, the semiregularity matrix
    entropy_increment: callable = None  # S1 - S0 on a triple
    # (pi_minus, rest, args) of one pass; rest(*args) = (pi_plus, S1 - S0)
    # of the same triple, TemperatureDegenerateError for a zero DSLd
    triple_pass: callable = None

    name: str = ""

    def __post_init__(self):
        derive_missing(self, _generic_kernel(self))
        derive_missing(self, _from_pass(self.triple_pass))


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
        ``d`` must take stacks (see `DiscreteThermoSystem`).  A NaN
        violation makes the residual NaN.
        """
        S1 = self.Ss[1:]
        err = np.abs(S1 - entropy_update(d, self.stack())) / np.maximum(1.0, np.abs(S1))
        return float(np.max(err, initial=0.0))


# ---------------------------------------------------------------------------
# one triple or a stack of triples


def _single(t):
    """The triple t, which must be one triple, not a stack."""
    if t.q0.ndim != 1:
        raise ValueError(f"expected one triple, got a stack of shape {t.q0.shape[:-1]}")
    return t


#: a vanishing D_S Ld in an entropy update
_SINGULAR = "D_S Ld vanishes: entropy update singular"


def _quotient(num, den):
    """The entropy increment num / den, den being D_S Ld, with
    TemperatureDegenerateError for a zero den.  One triple keeps float
    division; on a stack, where division by zero gives inf, any zero row
    raises."""
    if type(num) is float:
        try:
            return num / float(den)
        except ZeroDivisionError:
            raise TemperatureDegenerateError(_SINGULAR) from None
    if np.any(den == 0.0):
        raise TemperatureDegenerateError(_SINGULAR)
    return num / den


# ---------------------------------------------------------------------------
# float points of one-dimensional systems


def _item(x):
    """The one entry of a value on length-1 arrays, as a float."""
    return np.asarray(x, dtype=float).item()


def _at_float_points(triple_pass, pi_minus_dq1):
    """The triple pass and the semiregularity matrix of a one-dimensional
    system, which take only arrays, adapted to also take a float point (q0,
    q1 floats): they are called on length-1 arrays, and each value, the
    pass's pi_minus and the two of its rest included, is the one entry as
    a float.  Arrays pass through."""
    def adapted_pass(q0, q1, S0):
        if type(q0) is float:
            pi, rest, args = triple_pass(np.array([q0]), np.array([q1]), S0)
            return _item(pi), _float_rest, (rest, args)
        return triple_pass(q0, q1, S0)

    def adapted_dq1(q0, q1, S0):
        if type(q0) is float:
            return _item(pi_minus_dq1(np.array([q0]), np.array([q1]), S0))
        return pi_minus_dq1(q0, q1, S0)
    return adapted_pass, adapted_dq1


def _float_rest(rest, args):
    """The rest of an adapted pass: its two values as floats."""
    return tuple(map(_item, rest(*args)))


# ---------------------------------------------------------------------------
# the generic kernel and the callables derived from the pass


def _generic_kernel(d):
    """The triple pass, the semiregularity matrix and the covector
    Jacobians built from the slot derivatives."""
    n = d.n
    D1Ld, D2Ld, DSLd = d.D1Ld, d.D2Ld, d.DSLd
    ffr_minus, ffr_plus = d.ffr_minus, d.ffr_plus
    shared = ffr_minus is ffr_plus

    def triple_pass(q0, q1, S0):
        fm = ffr_minus(q0, q1, S0)
        return -D1Ld(q0, q1, S0) - 0.5 * fm, rest, (q0, q1, S0, fm)

    def rest(q0, q1, S0, fm):
        # S1 - S0 = (ffr_plus . q1 - ffr_minus . q0) / DSLd; a shared
        # covector f is paired as f . (q1 - q0), the same quantity without
        # cancellation at large coordinates
        fp = fm if shared else ffr_plus(q0, q1, S0)
        num = pair(fm, q1 - q0) if shared else pair(fp, q1) - pair(fm, q0)
        dS = _quotient(num, DSLd(q0, q1, S0))
        return D2Ld(q0, q1, S0) + 0.5 * fp, dS

    def plus(q0, q1, S0):
        # pi_plus as the generic rest forms it, without the entropy increment
        return D2Ld(q0, q1, S0) + 0.5 * ffr_plus(q0, q1, S0)

    def covector_jacobian(side):
        # central differences of the system's final pi_minus or pi_plus,
        # looked up at call time: they are read off the pass built here, and
        # a generic pass's pi_plus is differenced without its D_S Ld
        def dpi(q0, q1, S0):
            pi = getattr(d, side)
            if side == "pi_plus" and getattr(d.triple_pass, "generic", False):
                pi = plus
            x = np.concatenate([q0, q1, [S0]])
            return fd_gradient(lambda y: pi(y[:n], y[n : 2 * n], y[2 * n]), x)
        return dpi

    def pi_minus_dq1(q0, q1, S0):
        if getattr(d.dpi_minus, "generic", False):
            # the q1 columns of the generic dpi_minus, without the others
            pi = d.pi_minus
            return fd_gradient(lambda y: pi(q0, y, S0), q1)
        return d.dpi_minus(q0, q1, S0)[..., n : 2 * n]

    if n == 1:
        triple_pass, pi_minus_dq1 = _at_float_points(triple_pass, pi_minus_dq1)
    return {"triple_pass": triple_pass, "pi_minus_dq1": pi_minus_dq1,
            "dpi_minus": covector_jacobian("pi_minus"),
            "dpi_plus": covector_jacobian("pi_plus")}


def _from_pass(triple_pass):
    """pi_minus, pi_plus and the entropy increment, each from one pass."""
    return {"pi_minus": lambda q0, q1, S0: triple_pass(q0, q1, S0)[0],
            "pi_plus": lambda q0, q1, S0: _pass_values(triple_pass, q0, q1, S0)[1],
            "entropy_increment": lambda q0, q1, S0: _pass_values(triple_pass, q0, q1, S0)[2]}


def _pass_values(triple_pass, q0, q1, S0):
    """(pi_minus, pi_plus, S1 - S0) of a triple from one pass.  A
    hand-written rest may divide a float by a vanishing D_S Ld: its
    ZeroDivisionError is raised as TemperatureDegenerateError, as
    `_quotient` raises it."""
    pi, rest, args = triple_pass(q0, q1, S0)
    try:
        return (pi, *rest(*args))
    except ZeroDivisionError:
        raise TemperatureDegenerateError(_SINGULAR) from None


# ---------------------------------------------------------------------------
# sums of products whose constant terms are formed once


def _sum_of_products(terms):
    """The field (m, w, S0) -> the sum of ``terms`` in their order.

    A term is ``(k, field)``, the product k * field(m, w, S0), ``(k, field,
    transposed)``, k * transposed(field(m, w, S0)), or a bare field, its
    value.  The addend of a field declared constant (see
    `continuous.LagrangianThermoSystem`) is formed here, once, in the form
    each kind of point takes (`continuous._forms`); so is the sum of the
    constant addends that lead.  A call evaluates the other fields, one
    call for adjacent terms of one field, and adds the addends in order but
    the zeros that `_exact_addends` drops: the bits of the sum formed term
    by term at the point, entry by entry at a point of two floats.  A sum
    of constant addends only is a `_constant`.
    """
    lead, segments = None, []  # the leading constants' sum; (k, field, shape, constants after)
    for term in terms:
        k, field, *shape = (None, term) if callable(term) else term
        shape = shape[0] if shape else None
        value = getattr(field, "constant", None)
        if value is None:
            segments.append((k, field, shape, []))
            continue
        if shape is not None:
            value = shape(value)
        if k is not None:
            value = k * value
        if segments:
            segments[-1][3].append(value)
        else:
            lead = value if lead is None else lead + value
    if not segments:
        return _constant(lead)
    lead = None if lead is None else _forms(lead)
    segments = [(k, f, shape, _exact_addends(run)) for k, f, shape, run in segments]
    # with the flat tuples of a point of two floats (see `_forms`)
    segments = [(k, f, shape, (*run, [_forms(c)[2] for c in run[1]]))
                for k, f, shape, run in segments]

    def total(m, w, S0):
        if type(m) is tuple:
            return pair_total(m, w, S0)
        form = type(m) is not float
        acc = None if lead is None else lead[form]
        last = None
        for k, f, shape, run in segments:
            if f is not last:
                last, value = f, f(m, w, S0)
            x = value if shape is None else shape(value)
            x = x if k is None else k * x
            acc = x if acc is None else acc + x
            for c in run[form]:
                acc = acc + c
        return acc

    def pair_total(m, w, S0):
        acc = None if lead is None else lead[2]
        last = None
        for k, f, shape, run in segments:
            if f is not last:
                last, value = f, f(m, w, S0)
            x = value if shape is None else shape(value)
            x = x if k is None else tuple(map(k.__mul__, x))
            acc = x if acc is None else tuple(map(add, acc, x))
            for c in run[2]:
                acc = tuple(map(add, acc, c))
        return acc
    return total


def _exact_addends(run):
    """The constant addends of ``run``, which follow one another in a sum, as
    (their floats, the arrays), less those that change no bit of the sum:
    one that is -0.0 in every entry (x + -0.0 is x), and one that is +0.0 in
    every entry where in each entry a later addend is not -0.0 (an
    accumulated +0.0 and -0.0 then reach one value).  Decided entry by entry."""
    kept, covered = [], False  # covered: a later addend is not -0.0 there
    for c in reversed(run):
        negative = (c == 0.0) & np.signbit(c)
        if not (negative.all() or not c.any() and not negative.any() and np.all(covered)):
            kept.insert(0, c)
        covered = covered | ~negative
    return [float(c.flat[0]) for c in kept], kept


# ---------------------------------------------------------------------------
# midpoint discretization of a continuous system


def midpoint_discretize(sys, h):
    """Discretize a Lagrangian system by the midpoint substitutions.

    q -> (q0 + q1)/2 and v -> (q1 - q0)/h in L and in the friction
    covector; the single friction value acts on dq0 as ffr_minus and on
    dq1 as ffr_plus.  The stepping kernel is one midpoint pass,
    ``triple_pass``: pi_minus from the midpoint values dL/dv, dL/dq and
    Ffr, and a rest that forms pi_plus and, with dL/dS, the entropy
    increment from the same values.  The rest of the system comes from
    builders indexed by the side ``cv``, -1 for the minus side (slot q0)
    and +1 for the plus side (slot q1): ``slot(cv)`` is D1Ld or D2Ld, and
    ``q_block(cv, c)`` (c = -1: q0, c = 1: q1) and ``S_block(cv)`` are the
    column blocks of d(pi)/dx at the midpoint (m, w, S0), by the chain rule
    from the system's second partials and friction Jacobians; a covector
    Jacobian forms the midpoint once for its three blocks.  Each block is a
    `_sum_of_products`, which forms the products of the fields the system
    declares constant once, when the block is built.

    Each builder is one formula over float points and arrays, which takes
    the values of ``sys`` as they come (see `LagrangianThermoSystem`); at
    n = 1 without ``float_points`` the pass and ``pi_minus_dq1`` are
    adapted to float points.  At n = 2 with ``float_points`` the pass and
    ``pi_minus_dq1`` also take points of two floats: the midpoint, the pass
    and its rest entry by entry and the matrix by `_sum_of_products`, the
    bits of the array formulas (``pair`` reproduces ``@``).
    """
    if not 0 < h < np.inf:
        raise ValueError(f"time step must be positive and finite, got {h}")
    n = sys.n

    def mid(q0, q1):
        return 0.5 * (q0 + q1), (q1 - q0) / h

    def slot(cv):
        # the slot derivative: (1/2) dL/dq + (cv/h) dL/dv
        cvh = cv * h

        def D(q0, q1, S0):
            m, w = mid(q0, q1)
            return 0.5 * sys.dLdq(m, w, S0) + sys.dLdv(m, w, S0) / cvh
        return D

    def at_mid(fn):
        # a field of (q, v, S) evaluated at the midpoint substitution; a
        # constant one is its own value there, with no midpoint formed
        if hasattr(fn, "constant"):
            return fn

        def f(q0, q1, S0):
            m, w = mid(q0, q1)
            return fn(m, w, S0)
        return f

    def q_block(cv, c):
        # d pi / dq0 (c = -1) or / dq1 (c = 1) on side cv at the midpoint; L's
        # terms, then the friction terms: this sum order fixes the two-forms' bits
        k_vv, k_q, k_qv, k_vq = c / (h * h), 0.25 * cv, cv * c / (2 * h), 1 / (2 * h)
        friction = _sum_of_products([(k_q, sys.dFfrdq), (k_qv, sys.dFfrdv)])
        return _sum_of_products([
            (k_q, sys.d2Ldq2), (k_qv, sys.d2Ldqdv), (k_vq, sys.d2Ldqdv, transposed),
            (k_vv, sys.d2Ldv2), friction])

    def S_block(cv):
        # d pi / dS0 on side cv, at the midpoint
        k, k_v = 0.5 * cv, 1 / h
        return _sum_of_products([(k, sys.d2LdqdS), (k_v, sys.d2LdvdS), (k, sys.dFfrdS)])

    def covector_jacobian(cv):
        blocks = (q_block(cv, -1), q_block(cv, 1), S_block(cv))
        return at_mid(lambda m, w, S0: np.column_stack([b(m, w, S0) for b in blocks]))

    # the Legendre covectors cv * (slot(cv) + ffr/2) and the entropy
    # increment; the sum order dL/dv / h + (cv/2) dL/dq + (cv/2) Ffr fixes
    # the covectors' bits.  The halves are formed once for both sides: x - y
    # is x + (-y) and -0.5 * y is -(0.5 * y), bit for bit
    def triple_pass(q0, q1, S0):
        m, w = 0.5 * (q0 + q1), (q1 - q0) / h  # mid(q0, q1), one call less per residual
        f = sys.Ffr(m, w, S0)
        dv, dq, df = sys.dLdv(m, w, S0) / h, 0.5 * sys.dLdq(m, w, S0), 0.5 * f
        return dv - dq - df, rest, (q0, q1, S0, m, w, dv, dq, df, f)

    def rest(q0, q1, S0, m, w, dv, dq, df, f):
        dS = _quotient(pair(f, q1 - q0), sys.dLdS(m, w, S0))
        return dv + dq + df, dS

    # the pass at a point of two floats (q0, q1 tuples): that of arrays
    # entry by entry, the same bits; arrays go on to that
    def pair_pass(q0, q1, S0):
        if type(q0) is not tuple:
            return triple_pass(q0, q1, S0)
        (a0, a1), (b0, b1) = q0, q1  # mid(q0, q1) entry by entry
        m, w = (0.5 * (a0 + b0), 0.5 * (a1 + b1)), ((b0 - a0) / h, (b1 - a1) / h)
        f = sys.Ffr(m, w, S0)
        v, g = sys.dLdv(m, w, S0), sys.dLdq(m, w, S0)
        dv, dq, df = (v[0] / h, v[1] / h), (0.5 * g[0], 0.5 * g[1]), (0.5 * f[0], 0.5 * f[1])
        return ((dv[0] - dq[0] - df[0], dv[1] - dq[1] - df[1]), pair_rest,
                ((b0 - a0, b1 - a1), S0, m, w, dv, dq, df, f))

    def pair_rest(dq1, S0, m, w, dv, dq, df, f):
        # a zero D_S Ld raises ZeroDivisionError, which the callers report
        pi = (dv[0] + dq[0] + df[0], dv[1] + dq[1] + df[1])
        return pi, pair(f, dq1) / sys.dLdS(m, w, S0)

    block = q_block(-1, 1)
    pi_minus_dq1 = at_mid(block)

    def pair_dq1(q0, q1, S0):
        if type(q0) is not tuple:
            return pi_minus_dq1(q0, q1, S0)
        (a0, a1), (b0, b1) = q0, q1
        return block((0.5 * (a0 + b0), 0.5 * (a1 + b1)), ((b0 - a0) / h, (b1 - a1) / h), S0)

    kernel = triple_pass, pi_minus_dq1
    if n == 1 and not sys.float_points:
        kernel = _at_float_points(*kernel)
    elif n == 2 and sys.float_points and not any(getattr(f, "generic", False) for f in (
            sys.d2Ldq2, sys.d2Ldqdv, sys.d2Ldv2, sys.dFfrdq, sys.dFfrdv)):
        # a constant Newton matrix takes the point itself
        kernel = pair_pass, block if pi_minus_dq1 is block else pair_dq1
        for f in kernel:
            f.float_points = True
    ffr = at_mid(sys.Ffr)
    return DiscreteThermoSystem(
        n=n, h=h, Ld=at_mid(sys.L), D1Ld=slot(-1), D2Ld=slot(1), DSLd=at_mid(sys.dLdS),
        ffr_minus=ffr, ffr_plus=ffr, dpi_minus=covector_jacobian(-1),
        dpi_plus=covector_jacobian(1), pi_minus_dq1=kernel[1], triple_pass=kernel[0],
        name=sys.name,
    )


# ---------------------------------------------------------------------------
# core one-step objects


def entropy_update(d, t):
    """Entropy after one step: the phenomenological-constraint update.

        S1 = S0 + (ffr_plus . q1 - ffr_minus . q0) / DSLd

    evaluated on each triple through the system's entropy increment.
    """
    return t.S0 + d.entropy_increment(t.q0, t.q1, t.S0)


def legendre_minus(d, t):
    """Minus Legendre transform: (q0, -D1Ld - ffr_minus/2, S0)."""
    return t.q0.copy(), d.pi_minus(t.q0, t.q1, t.S0), t.S0


def legendre_plus(d, t):
    """Plus Legendre transform: (q1, D2Ld + ffr_plus/2, entropy update)."""
    _, pi_plus, dS = _pass_values(d.triple_pass, t.q0, t.q1, t.S0)
    return t.q1.copy(), pi_plus, t.S0 + dS


def discrete_momenta(d, t):
    """h-scaled momenta (p_minus, p_plus); these approximate p = dL/dv."""
    return _momentum(d, t, "minus")[0], _momentum(d, t, "plus")[0]


def _momentum(d, t, side):
    """The h-scaled momentum of one side of t and the q it pairs with:
    (h D2Ld + (h/2) ffr_plus, q1) for "plus", (-h D1Ld - (h/2) ffr_minus,
    q0) for "minus"."""
    q0, q1, S0 = t.q0, t.q1, t.S0
    if side == "plus":
        return d.h * d.D2Ld(q0, q1, S0) + (d.h / 2) * d.ffr_plus(q0, q1, S0), q1
    if side == "minus":
        return -d.h * d.D1Ld(q0, q1, S0) - (d.h / 2) * d.ffr_minus(q0, q1, S0), q0
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def discrete_flow(d, t, cfg=None):
    """One step of the discrete Lagrangian flow.

    Maps (q0, q1, S0) to (q1, q2, S1) where S1 is the entropy update and q2 is the
    Newton root of the discrete Euler-Lagrange residual: the cold step `solve.solve_step`,
    on floats at n = 1, bit for bit the step `integrate` takes.  One triple only.
    """
    from .solve import _point, solve_step

    t = _single(t)
    q2, S1 = solve_step(d, _point(d, t.q0), _point(d, t.q1), t.S0, cfg)
    return DiscreteTriple(t.q1, q2, S1)


# ---------------------------------------------------------------------------
# two-forms and the pullback theorem


def omega_embedded(d, t, side):
    """Full (2n+1)-dimensional antisymmetric matrix of omega^{+/-} at t.

    Computed as the exact pullback of the canonical form dq^i ^ dp_i by
    the corresponding discrete Legendre transform, so it carries the
    dq ^ dS block produced by entropy-dependent momenta alongside the
    dq0 ^ dq1 block ``[:n, n:2n]``.  One triple only.
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
    Ap = dpi(t.q0, t.q1, t.S0)
    return Aq.T @ Ap - Ap.T @ Aq


#: the central-difference steps of the flow Jacobian, coarse then fine:
#: larger than `fd_gradient`'s for the Newton-tolerance noise
_FLOW_STEPS = (1e-4, 5e-5)


def _flow_jacobian(d, t, cfg):
    """The flow of t and the Richardson-extrapolated central-difference
    Jacobian of the flow at t, at the steps `_FLOW_STEPS`.

    The 4(2n+1) perturbed triples, in `continuous.fd_gradient`'s order
    (each step, each coordinate j, x + d e_j then x - d e_j), and t
    itself after them are one stack of cold steps: one `solve.solve_step`
    on the stack at array points, one float step per row at float points
    (n = 1, see `solve._point`).  Either way each flow is the bits of
    `discrete_flow` on its triple alone.  One triple only.
    """
    from .solve import solve_step

    n = d.n
    x0 = t.as_array()
    m = x0.size
    steps = np.repeat(_FLOW_STEPS, m)
    plus = 2 * np.arange(2 * m)   # row of x + d e_j; x - d e_j follows it
    cols = np.tile(np.arange(m), 2)
    X = np.tile(x0, (4 * m + 1, 1))
    X[plus, cols] += steps
    X[plus + 1, cols] -= steps
    q0, q1, S0 = X[:, :n], X[:, n : 2 * n], X[:, 2 * n]
    if n == 1:
        # float points: one float step per row
        q2, S1 = np.array([solve_step(d, *x, cfg) for x in X.tolist()]).T
        q2 = q2[:, None]
    else:
        q2, S1 = solve_step(d, q0, q1, S0, cfg)
    flows = np.column_stack([q1, q2, S1])
    # row s m + j of the differences is column j of the Jacobian at step s
    diffs = (flows[plus] - flows[plus + 1]) / (2 * steps)[:, None]
    coarse, fine = diffs[:m].T, diffs[m:].T
    image = DiscreteTriple(t.q1, flows[-1, n : 2 * n], flows[-1, 2 * n])
    return image, (4.0 * fine - coarse) / 3.0


def pullback_check(d, t, cfg=None):
    """Defect of the flow-pullback identity on the two-forms.

    Returns ``max |J^T W^-(flow(t)) J - W^+(t)|`` with J the
    finite-difference Jacobian of the flow at t; the identity is exact
    for the analytic flow, so the value measures only discretization of
    J (and Newton tolerance).  The flow of t and the perturbed flows of J
    are one stack of cold steps (see `_flow_jacobian`), so at n >= 2 ``d``
    must take stacks, as for `DiscretePath.constraint_residual`.  One
    triple only.
    """
    image, J = _flow_jacobian(d, t, cfg)
    w_minus = omega_embedded(d, image, "minus")
    w_plus = omega_embedded(d, t, "plus")
    return float(np.max(np.abs(J.T @ w_minus @ J - w_plus)))


# ---------------------------------------------------------------------------
# momentum maps and the discrete Noether condition


def momentum_map(d, t, xi, side):
    """Pairing of the discrete momentum of one side with the generator xi, a float
    at one triple or an array on a stack; xi receives the q it is paired with, (n,)
    or (..., n).  Only that side's momentum is formed, bit for bit its entry of
    `discrete_momenta`."""
    p, q = _momentum(d, t, side)
    return pair(p, xi(q))


def noether_condition(d, xi, t, tol=1e-10):
    """Discrete Noether condition xi(Ld) + f_d(xi) = 0 at a triple, or at
    every row of a stack; a NaN residual fails it.

    xi acts diagonally on (q0, q1) with zero S-component; the friction
    pairing carries the same 1/2 weights as the variational principle.
    ``xi`` receives q0 and q1 as in `momentum_map`.  When the condition
    holds the momentum map is a constant of the discrete motion.
    """
    pi_minus, pi_plus, _ = _pass_values(d.triple_pass, t.q0, t.q1, t.S0)
    val = pair(pi_plus, xi(t.q1)) - pair(pi_minus, xi(t.q0))
    return bool(np.all(np.abs(val) <= tol))


# ---------------------------------------------------------------------------
# the discrete action


def discrete_action(d, path, validate=True):
    """Discrete action of a path of the thermodynamic path space: Ld summed in path order."""
    if validate:
        res = path.constraint_residual(d)
        if not res <= 1e-12:
            raise ValueError(
                f"path violates the entropy-update constraint (relative residual {res:.3e})"
            )
    t = path.stack()
    return float(sum(np.broadcast_to(d.Ld(t.q0, t.q1, t.S0), t.S0.shape)))
