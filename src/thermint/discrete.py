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
from operator import add, sub

import numpy as np

from .continuous import (_constant, _forms, _or_on_arrays, derive_missing, fd_gradient, pair,
                         transposed)
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
        q0, q1 = self.q0, self.q1
        # 1-D float arrays are kept as they are, which `np.asarray` would return
        if not (type(q0) is np.ndarray is type(q1) and q0.ndim == 1 == q1.ndim
                and q0.dtype == float == q1.dtype):
            q0 = np.atleast_1d(np.asarray(q0, dtype=float))
            q1 = np.atleast_1d(np.asarray(q1, dtype=float))
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

    The kinds of point and the return contract are those of
    `continuous.LagrangianThermoSystem`, q0 and q1 taking the place of q
    and v.  The step and the diagnostics use each value as it comes,
    without a cast.

    Every callable also takes a stack of triples (see `DiscreteTriple`),
    ``pi_minus_dq1`` returning (..., n, n) (or one (n, n) matrix that
    serves every row) and the covector Jacobians (..., n, 2n+1), as
    `midpoint_discretize` builds them from a stack-capable continuous
    system; the diagnostics evaluate a whole path, `DiscretePath.stack`,
    that way, and `solve.solve_step` the flows of a pullback check.

    Two fields declare how the system is evaluated, and a
    ``dataclasses.replace`` copy keeps them.  ``float_points``: the pass,
    ``pi_minus_dq1``, ``D1Ld``, ``D2Ld`` and the friction covectors also
    take float points, so a step, a Legendre transform and a momentum map
    at one triple run on them (`_floats`) and return the arrays of the call
    on arrays, bit for bit; the covector Jacobians take arrays.  It
    declares a system of one or two dimensions, and holds where the pass
    and ``pi_minus_dq1`` are supplied: a system that derives either steps
    on arrays.  ``bind_S``: the binding of S of
    `continuous.LagrangianThermoSystem`, by which a step binds each S it
    passes once.  `midpoint_discretize` sets both from its system.
    """

    n: int
    h: float
    Ld: callable
    D1Ld: callable
    D2Ld: callable
    DSLd: callable
    ffr_minus: callable
    ffr_plus: callable

    # Jacobians of the Legendre covectors in (q0, q1, S0), (..., n, 2n+1)
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
    float_points: bool = False       # the kernel also takes q0 and q1 of n <= 2 floats
    bind_S: callable = None          # (q, S) -> S bound once per step

    def __post_init__(self):
        if self.float_points and self.n > 2:
            raise ValueError("float_points declares a system of one or two dimensions")
        derive_missing(self, _generic_kernel(self))
        derive_missing(self, _from_pass(self.triple_pass))
        if any(getattr(f, "generic", False) for f in (self.triple_pass, self.pi_minus_dq1)):
            self.float_points = False  # the generic kernel is built for arrays


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


# ---------------------------------------------------------------------------
# float points


def _floats(d, *points):
    """The one rule for where a call runs on floats: the points (one point of
    d each, as arrays) as float points, a float at n = 1 and a tuple of two
    at n = 2, where d declares ``float_points``; None elsewhere, a stack
    included.  A step (`solve._point`), the Legendre transforms and
    `momentum_map` at one triple take their points here, and go back to
    arrays by `continuous._or_on_arrays`."""
    if d.float_points and points[0].ndim == 1:
        if d.n == 1:
            return tuple(map(np.ndarray.item, points))
        return tuple(map(tuple, map(np.ndarray.tolist, points)))
    return None


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
            x = np.concatenate([q0, q1, np.asarray(S0)[..., None]], axis=-1)
            return fd_gradient(lambda y: pi(y[..., :n], y[..., n : 2 * n], y[..., 2 * n]), x)
        return dpi

    def pi_minus_dq1(q0, q1, S0):
        if getattr(d.dpi_minus, "generic", False):
            # the q1 columns of the generic dpi_minus, without the others
            pi = d.pi_minus
            return fd_gradient(lambda y: pi(q0, y, S0), q1)
        return d.dpi_minus(q0, q1, S0)[..., n : 2 * n]

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
    constant addends that lead.  A call evaluates the other fields, one call
    for adjacent terms of one field, or reads them from ``values`` (a dict by
    field that sums at one midpoint share), and adds the addends in order
    but the zeros `_exact_addends` drops: the bits of the sum formed term by
    term, entry by entry at a point of two floats, inline at a float point
    for one field's product and its constants.  A sum of constant addends
    only is a `_constant`.
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

    one = None if lead is not None or len(segments) > 1 or segments[0][2] is not None else (
        segments[0][0], segments[0][1], segments[0][3][0])

    def total(m, w, S0, values=None):
        if one is not None and type(m) is float:
            k, f, floats = one
            x = f(m, w, S0) if k is None else k * f(m, w, S0)
            for c in floats:
                x = x + c
            return x
        pairs = type(m) is tuple
        form = 2 if pairs else type(m) is not float
        acc = None if lead is None else lead[form]
        last = None
        for k, f, shape, run in segments:
            if f is not last:
                last, value = f, values[f] if values and f in values else f(m, w, S0)
                if values is not None:
                    values[f] = value
            x = value if shape is None else shape(value)
            if k is not None:
                x = tuple(map(k.__mul__, x)) if pairs else k * x
            acc = x if acc is None else tuple(map(add, acc, x)) if pairs else acc + x
            for c in run[form]:
                acc = tuple(map(add, acc, c)) if pairs else acc + c
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
    Jacobian forms the midpoint once for its three blocks, binds S0 (see
    `LagrangianThermoSystem`), evaluates each field once for all three and
    writes them into one (..., n, 2n+1) array.  Each block is a
    `_sum_of_products`, which forms the products of the fields the system
    declares constant once, when the block is built.  The discrete system
    takes the ``bind_S`` of ``sys``, by which a step binds the S it passes.

    Each formula is written once and takes the values of ``sys`` as they
    come, at every kind of point of `LagrangianThermoSystem` (entry by
    entry at a point of two floats, where ``pair`` reproduces ``@``): one
    kernel serves all three, bit for bit.  The discrete system declares
    ``float_points`` (see `DiscreteThermoSystem`) where ``sys`` does, at
    n = 2 only when no field of the Newton matrix is derived; the covector
    Jacobians take arrays and stacks.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"time step must be positive and finite, got {h}")
    n = sys.n

    def at_mid(fn):
        # a field of (q, v, S) evaluated at the midpoint substitution; a
        # constant one is its own value there, with no midpoint formed
        if hasattr(fn, "constant"):
            return fn

        def at_midpoint(q0, q1, S0):
            if type(q0) is tuple:  # entry by entry at a point of two floats
                (a0, a1), (b0, b1) = q0, q1
                return fn((0.5 * (a0 + b0), 0.5 * (a1 + b1)), ((b0 - a0) / h, (b1 - a1) / h), S0)
            return fn(0.5 * (q0 + q1), (q1 - q0) / h, S0)
        return at_midpoint

    def slot(cv):
        # the slot derivative: (1/2) dL/dq + (cv/h) dL/dv
        cvh = cv * h

        def D(m, w, S0):
            g, v = sys.dLdq(m, w, S0), sys.dLdv(m, w, S0)
            if type(m) is tuple:
                return 0.5 * g[0] + v[0] / cvh, 0.5 * g[1] + v[1] / cvh
            return 0.5 * g + v / cvh
        return at_mid(D)

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

        def columns(m, w, S0):
            S0, values = S0 if bind is None else bind(m, S0), {}
            out = np.empty(m.shape[:-1] + (n, 2 * n + 1))
            for cols, b in zip((slice(0, n), slice(n, 2 * n), 2 * n), blocks):
                out[..., cols] = b.constant if hasattr(b, "constant") else b(
                    m, w, S0, values=values)
            return out
        return at_mid(columns)

    # the Legendre covectors cv * (slot(cv) + ffr/2) and the entropy
    # increment; the sum order dL/dv / h + (cv/2) dL/dq + (cv/2) Ffr fixes
    # the covectors' bits.  The halves are formed once for both sides: x - y
    # is x + (-y) and -0.5 * y is -(0.5 * y), bit for bit.  The midpoint is
    # formed inline, as `at_mid` forms it, with dq1 = q1 - q0 kept for the
    # increment.  The pass and its rest read their fields once, here, not per call
    Ffr, dLdv, dLdq, dLdS = sys.Ffr, sys.dLdv, sys.dLdq, sys.dLdS
    bind = sys.bind_S

    def triple_pass(q0, q1, S0):
        if type(q0) is tuple:  # entry by entry at a point of two floats
            (a0, a1), (b0, b1) = q0, q1
            dq1 = b0 - a0, b1 - a1
            m, w = (0.5 * (a0 + b0), 0.5 * (a1 + b1)), (dq1[0] / h, dq1[1] / h)
            f, v, g = Ffr(m, w, S0), dLdv(m, w, S0), dLdq(m, w, S0)
            dv, dq, df = (v[0] / h, v[1] / h), (0.5 * g[0], 0.5 * g[1]), (0.5 * f[0], 0.5 * f[1])
            pi = dv[0] - dq[0] - df[0], dv[1] - dq[1] - df[1]
        else:
            dq1 = q1 - q0
            m, w = 0.5 * (q0 + q1), dq1 / h
            f, v, g = Ffr(m, w, S0), dLdv(m, w, S0), dLdq(m, w, S0)
            dv, dq, df = v / h, 0.5 * g, 0.5 * f
            pi = dv - dq - df
        return pi, rest, (dq1, S0, m, w, dv, dq, df, f)

    def rest(dq1, S0, m, w, dv, dq, df, f):
        dS = _quotient(pair(f, dq1), dLdS(m, w, S0))
        if type(dv) is tuple:
            return (dv[0] + dq[0] + df[0], dv[1] + dq[1] + df[1]), dS
        return dv + dq + df, dS

    pi_minus_dq1 = at_mid(q_block(-1, 1))
    slots, ffr = (slot(-1), slot(1)), at_mid(sys.Ffr)
    # the Newton matrix's fields; at n = 1 a derived second partial takes floats too
    derived = (sys.d2Ldq2, sys.d2Ldqdv, sys.d2Ldv2, sys.dFfrdq, sys.dFfrdv)
    return DiscreteThermoSystem(
        n=n, h=h, Ld=at_mid(sys.L), D1Ld=slots[0], D2Ld=slots[1], DSLd=at_mid(sys.dLdS),
        ffr_minus=ffr, ffr_plus=ffr, dpi_minus=covector_jacobian(-1),
        dpi_plus=covector_jacobian(1),
        pi_minus_dq1=pi_minus_dq1, triple_pass=triple_pass, name=sys.name,
        float_points=sys.float_points and (
            n == 1 or not any(getattr(f, "generic", False) for f in derived)),
        bind_S=bind,
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
    """Minus Legendre transform: (q0, -D1Ld - ffr_minus/2, S0).  At one
    triple pi_minus takes float points where ``d`` declares them (see
    `DiscreteThermoSystem`)."""
    x = _floats(d, t.q0, t.q1)
    arrays = t.q0, t.q1, t.S0
    pi = d.pi_minus(*arrays) if x is None else np.array(
        _or_on_arrays(d.pi_minus(*x, t.S0), d.pi_minus, *arrays), ndmin=1, copy=None)
    return t.q0.copy(), pi, t.S0


def legendre_plus(d, t):
    """Plus Legendre transform: (q1, D2Ld + ffr_plus/2, entropy update).  At
    one triple the pass takes float points where ``d`` declares them.  A zero
    D_S Ld on floats may come of an overflow that float arithmetic passes
    silently, so the transform is then formed again on arrays, whose error wins."""
    x = _floats(d, t.q0, t.q1)
    if x is not None:
        try:
            entries = _plus_entries(d, *x, t.S0)
        except TemperatureDegenerateError:
            pass
        else:
            *pi, dS = _or_on_arrays(entries, _plus_entries, d, t.q0, t.q1, t.S0)
            return t.q1.copy(), np.array(pi), t.S0 + dS
    _, pi, dS = _pass_values(d.triple_pass, t.q0, t.q1, t.S0)
    return t.q1.copy(), pi, t.S0 + dS


def _plus_entries(d, q0, q1, S0):
    """(*pi_plus, S1 - S0) at (q0, q1, S0), from one pass."""
    _, pi, dS = _pass_values(d.triple_pass, q0, q1, S0)
    return (pi, dS) if type(pi) is float else (*pi, dS)


def discrete_momenta(d, t):
    """h-scaled momenta (p_minus, p_plus); these approximate p = dL/dv."""
    return _momentum(d, "minus", t.q0, t.q1, t.S0), _momentum(d, "plus", t.q0, t.q1, t.S0)


def _momentum(d, side, q0, q1, S0):
    """The h-scaled momentum of one side at (q0, q1, S0), at any kind of
    point: h D2Ld + (h/2) ffr_plus for "plus", -h D1Ld - (h/2) ffr_minus for
    "minus", entry by entry at a point of two floats."""
    if side == "plus":
        D, f, k, op = d.D2Ld, d.ffr_plus, d.h, add
    elif side == "minus":
        D, f, k, op = d.D1Ld, d.ffr_minus, -d.h, sub
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    a, b, half = D(q0, q1, S0), f(q0, q1, S0), d.h / 2
    if type(a) is tuple:
        return op(k * a[0], half * b[0]), op(k * a[1], half * b[1])
    return op(k * a, half * b)


def discrete_flow(d, t, cfg=None):
    """One step of the discrete Lagrangian flow.

    Maps (q0, q1, S0) to (q1, q2, S1) where S1 is the entropy update and q2 is the
    Newton root of the discrete Euler-Lagrange residual: the cold step `solve.solve_step`,
    on the kind of point `integrate` steps on (see `solve._point`), bit for bit its step.
    One triple only.
    """
    from .solve import _point, solve_step

    t = _single(t)
    q2, S1 = solve_step(d, _point(d, t.q0), _point(d, t.q1), t.S0, cfg)
    return DiscreteTriple(t.q1, q2, S1)


# ---------------------------------------------------------------------------
# two-forms and the pullback theorem


def omega_embedded(d, t, side):
    """Full (2n+1)-dimensional antisymmetric matrix of omega^{+/-} at t,
    shape (2n+1, 2n+1), or (..., 2n+1, 2n+1) on a stack, row k the bits of
    the call on triple k.

    Computed as the exact pullback of the canonical form dq^i ^ dp_i by
    the corresponding discrete Legendre transform, so it carries the
    dq ^ dS block produced by entropy-dependent momenta alongside the
    dq0 ^ dq1 block ``[:n, n:2n]``.
    """
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
    return Aq.T @ Ap - Ap.mT @ Aq


#: the central-difference steps of the flow Jacobian, coarse then fine:
#: larger than `fd_gradient`'s for the Newton-tolerance noise
_FLOW_STEPS = (1e-4, 5e-5)


def _flow_jacobian(d, t, cfg):
    """The flow of t and the Richardson-extrapolated central-difference
    Jacobian of the flow at t, at the steps `_FLOW_STEPS`.

    The 4(2n+1) perturbed triples, in `continuous.fd_gradient`'s order
    (each step, each coordinate j, x + d e_j then x - d e_j), and t
    itself after them are one stack of cold steps: one float step per row
    where the kernel steps on floats at n = 1 (see `solve._point`), else
    one `solve.solve_step` on the stack.  Each flow is the bits of
    `discrete_flow` on its triple alone, but where that steps on two
    floats: its update `solve._solve_pair` gives the bits of numpy's solve,
    which the stacked rows call, only where OpenBLAS runs its SkylakeX
    kernel (see `solve`).  One triple only.
    """
    from .solve import _point, solve_step

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
    if type(_point(d, x0[:n])) is float:
        # one float step per row
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
    `discrete_momenta`.  At one triple it is formed on float points where ``d``
    declares them (see `DiscreteThermoSystem`), and paired with a float64 value
    of xi on floats, bit for bit the pairing of arrays."""
    q = t.q1 if side == "plus" else t.q0
    x = _floats(d, t.q0, t.q1)
    if x is None:
        return pair(_momentum(d, side, t.q0, t.q1, t.S0), xi(q))
    p, v = _momentum(d, side, *x, t.S0), xi(q)
    w = np.asarray(v)
    if w.dtype == float and w.shape == q.shape:
        w = w.item() if d.n == 1 else tuple(w.tolist())
        return _or_on_arrays(pair(p, w), _paired, d, side, t.q0, t.q1, t.S0, v)
    return _paired(d, side, t.q0, t.q1, t.S0, v)


def _paired(d, side, q0, q1, S0, v):
    """`momentum_map` on arrays: the momentum at (q0, q1, S0) paired with v."""
    return pair(_momentum(d, side, q0, q1, S0), v)


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
