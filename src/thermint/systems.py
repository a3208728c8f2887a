"""Catalog of concrete thermodynamic systems with analytic data.

Four systems: a damped harmonic oscillator, a piston compressing an ideal
monoatomic gas, the same piston with a Van der Waals gas, and a cylinder
closed by two pistons; the two ideal-gas cylinders are one declaration,
`_ideal_gas`, over their volumes x and x + y.  All four are
L = |v|^2/2 - V(q, S) with Rayleigh friction -gamma v, so each factory
declares only its potential and `_separable` derives the entry: the
Lagrangian side with its second partials, friction Jacobians and
closed-form acceleration, and H.  V is a sequence of terms, which L
subtracts in order and H adds in order: float sums do not associate, and
this order fixes the bits of the H columns of the CSVs.  Entries also
carry, where available, an exact solution and a closed-form discrete
update.

The gases' fields share the factor e^S.  Their ``dLdS`` declares
``bind_S = _bind`` (see `LagrangianThermoSystem`): the kernel binds each
step's S once, and every field of the step reads that e^S off the bound S;
a field called with a plain S forms e^S itself (`_exp`).  No state is kept
between calls.  At a float point a gas field is one Python frame, its
guard and powers inline; `_power`, `_uniform` and `_matrix` serve arrays,
points of two floats and stacks.
"""

import errno
import os
from dataclasses import dataclass, field

import numpy as np

from .continuous import LagrangianThermoSystem, _constant, pair, vec
from .errors import DomainError
from .geometry import HamiltonianPoint
from .solve import NewtonConfig, _newton

__all__ = [
    "SystemCatalogEntry",
    "DampedOscillatorSolution",
    "oscillator",
    "ideal_gas",
    "van_der_waals",
    "two_pistons",
    "CATALOG",
    "get_system",
    "hamiltonian_point",
]


@dataclass
class SystemCatalogEntry:
    """A system: its Lagrangian plus the Hamiltonian ``H``.

    The Lagrangian is the model; `hamiltonian_point` reads the Hamiltonian
    partials and the momentum-space friction from it through the Legendre
    transform.  The catalog declares its entries by the terms of their
    potential through `_separable`, where L subtracts the terms in order
    and H adds them in order, because that order fixes the bits of the H
    columns of the CSVs.

    ``H`` takes one point, ``q`` and ``p`` of shape (n,) and ``S`` a
    float, or a stack of points, ``q`` and ``p`` of shape (..., n) and
    ``S`` of shape (...), and returns a float or an array of shape (...).
    Row k of a stack gives the bits of the single-point call on row k, so
    a series of Hamiltonian values is one call; the Lagrangian side takes
    stacks as `LagrangianThermoSystem` states.  A single point stays on
    floats, because `integrate` and the per-step users call once per
    point.  A stack takes powers with ``np.float_power`` and pairs with
    ``np.vecdot``: they round as float ``**`` and ``@`` do, where array
    ``**`` differs in 1115 of 20 000 arguments (e = -2/3) and an einsum
    pairing in 3220 of 20 000 (n = 2).

    The gases bind S (`_bind`): a step forms e^S once and every callable of
    the step reads it off the bound S; a call with a plain S forms its own
    e^S, a Python float at a float point and numpy's value at an array
    point, whose arithmetic numpy's error state sees as it sees a stack's.
    """

    lagrangian: LagrangianThermoSystem
    H: callable            # (q, p, S) -> float
    exact_solution: callable = None      # (q0, v0, S0) -> solution handle
    update_coefficients: callable = None  # h -> (a, b) of the explicit recurrence
    invariants: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.lagrangian.n


def hamiltonian_point(entry, q, p, S):
    """Assemble the geometry-side data of a phase-space point.

    The velocity v solves dL/dv(q, v, S) = p, by the step's Newton loop
    `solve._newton` from v = p, its pass dL/dv and its matrix d2L/dv2, at
    the default tolerance and with the step's stop rules and errors; the
    Hamiltonian partials are dH = (-dL/dq, v, -dL/dS) and the friction is
    Ffr, both at (q, v, S).  Where dL/dv is v, as on the catalog, the start
    is the root: Newton takes no iteration and v is p.
    """
    sys = entry.lagrangian
    q, p = vec(q), vec(p)
    v, _, _ = _newton(lambda q, w, S: (sys.dLdv(q, w, S), None, None), sys.d2Ldv2,
                      NewtonConfig().tol, q, S, p, p)
    dH = np.concatenate([-vec(sys.dLdq(q, v, S)), v, [-sys.dLdS(q, v, S)]])
    return HamiltonianPoint(q=q, p=p, S=S, dH=dH, Ffr=sys.Ffr(q, v, S))


# ---------------------------------------------------------------------------
# one point or a stack of points
#
# Each catalog formula is written once through these helpers, the only
# places that tell a point from a stack (see `SystemCatalogEntry`): a
# point stays on Python floats, a stack uses the numpy functions that
# round as the float operations do.  A one-dimensional system also takes
# a float point, q itself a float, and two-pistons a point of two floats,
# q a tuple (see `LagrangianThermoSystem`): there a covector or a 1x1
# matrix is its one entry, and a covector a tuple and a 2x2 matrix a flat one.


def _coord(q, i):
    """Coordinate i: a float at a point (a float point is its own coordinate
    0), an array of shape (...) on a stack."""
    if type(q) is float:
        return q
    return float(q[i]) if type(q) is tuple or q.ndim == 1 else q[..., i]


def _overflow(err, flag):
    """The error call of `_power`: float ``**``'s error where it overflows."""
    raise OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))


def _power(x, e):
    """x ** e; `np.float_power` on an array (array ``**`` rounds differently),
    which raises the OverflowError of float ``**`` where that overflows."""
    if type(x) is float:
        return x ** e
    with np.errstate(over="call", call=_overflow):
        return np.float_power(x, e)


#: the smallest normal float
_TINY = float(np.finfo(float).tiny)


class _BoundS(float):
    """An entropy S bound with its e^S, ``exp``: a float equal to S, which a
    field takes in place of S and reads e^S off.  Arithmetic on it gives a
    plain float, so no value derived from S carries a factor of its own."""

    __slots__ = ("exp",)


def _exp(q, S):
    """e^S at the kind of point q, formed by `np.exp`: a Python float at a
    float point or a point of two floats (``float()`` keeps its bits, where
    `math.exp` rounds differently on some arguments), its numpy float at an
    array point, so that numpy's error state sees the arithmetic that
    follows as it sees a stack's, and an array on a stack.  Every call forms
    it: nothing is kept between calls."""
    if type(q) is float or type(q) is tuple:
        return float(np.exp(S))
    return np.exp(S)


def _bind(q, S):
    """S bound with its e^S at the kind of point q (`_BoundS`, `_exp`): the
    ``bind_S`` of the gases (see `LagrangianThermoSystem`); a stack's S as it
    is."""
    if not isinstance(S, float):
        return S
    bound = _BoundS(S)
    # `_exp` inlined, which makes no call for e^S
    bound.exp = float(np.exp(S)) if type(q) is float or type(q) is tuple else np.exp(S)
    return bound


def _above(x, lo, what):
    """x, after checking that it exceeds lo (in every row of a stack)."""
    if (x <= lo) if type(x) is float else np.any(x <= lo):
        bad = x if type(x) is float else float(x[x <= lo].flat[0])
        raise DomainError(f"{what}, got {bad}")
    return x


def _coordinate_above(lo, what):
    """The guard of a one-dimensional system: `_above` on coordinate 0 of q,
    in one call at a float point above lo (NaN takes `_above`, as all else)."""

    def guard(q):
        return q if type(q) is float and q > lo else _above(_coord(q, 0), lo, what)

    return guard


def _uniform(q, x):
    """The covector whose components all equal x at q: (n,) from a list at
    a point of shape (n,), (..., n) on a stack (x of shape (...)), x itself
    at a float point, (x, x) at a point of two floats."""
    if type(q) is float:
        return x
    if type(q) is tuple:
        return (x, x)
    n = q.shape[-1]
    return np.array([x] * n) if q.ndim == 1 else np.stack([x] * n, axis=-1)


def _matrix(q, x):
    """The n x n matrix whose entries all equal x at q: (n, n) from a list at
    a point of shape (n,), (..., n, n) on a stack (x of shape (...)), x
    itself at a float point, (x, x, x, x) at a point of two floats."""
    if type(q) is float:
        return x
    if type(q) is tuple:
        return (x, x, x, x)
    n = q.shape[-1]
    return np.array([[x] * n] * n) if q.ndim == 1 else np.full(q.shape + (n,), x[..., None, None])


# ---------------------------------------------------------------------------
# the separable form L = |v|^2/2 - V(q, S) with Rayleigh friction -gamma v


def _separable(name, n, gamma, potential, force, force_dq, force_dS, temperature,
               bind_S=None, **entry_fields):
    """The catalog entry of L = |v|^2/2 - V(q, S) with friction -gamma v.

    ``potential`` holds the terms of V and ``temperature`` = dV/dS, callables
    of (q, S); ``force`` = -dV/dq, its q-Jacobian ``force_dq`` and
    ``force_dS`` = -d2V/dqdS are callables of (q, v, S), the fields dL/dq,
    d2L/dq2 and d2L/dqdS themselves.  Every other field of L follows, and
    H = |p|^2/2 + V.  ``bind_S``, where the fields share a factor of S,
    binds S once for them: it becomes the ``bind_S`` of dL/dS (see
    `LagrangianThermoSystem`).
    """
    eye, zeros, zero = np.eye(n), np.zeros((n, n)), np.zeros(n)
    dLdS = lambda q, v, S: -temperature(q, S)
    if bind_S is not None:
        dLdS.bind_S = bind_S

    def L(q, v, S):
        value = 0.5 * pair(v, v)
        for term in potential:
            value = value - term(q, S)
        return value

    def H(q, p, S):
        q, p = vec(q), vec(p)
        value = 0.5 * pair(p, p)
        for term in potential:
            value = value + term(q, S)
        # a float at one point, where a term may be numpy's float (see `_exp`)
        return float(value) if q.ndim == 1 else value

    lag = LagrangianThermoSystem(
        n=n,
        L=L,
        dLdq=force,
        dLdv=lambda q, v, S: v,
        dLdS=dLdS,
        # per entry at a point of two floats
        Ffr=(lambda q, v, S: -gamma * v) if n == 1 else (
            lambda q, v, S: (-gamma * v[0], -gamma * v[1]) if type(v) is tuple else -gamma * v),
        name=name,
        d2Ldq2=force_dq,
        d2Ldqdv=_constant(zeros),
        d2Ldv2=_constant(eye),
        d2LdqdS=force_dS,
        d2LdvdS=_constant(zero),
        dFfrdq=_constant(zeros),
        dFfrdv=_constant(-gamma * eye),
        dFfrdS=_constant(zero),
        accel=lambda q, v, S: force(q, v, S) - gamma * v,
        float_points=True,
    )
    return SystemCatalogEntry(lagrangian=lag, H=H, **entry_fields)


# ---------------------------------------------------------------------------
# damped harmonic oscillator


#: grid intervals on which `DampedOscillatorSolution.entropy` applies the
#: 21-point rule at once, which bounds its arrays
_QUAD_BLOCK_INTERVALS = 256

#: QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1], the first rule
#: `quad` applies to an interval [a, b]: the Kronrod abscissae, whose nodes
#: are c -/+ hl * x with c = (a + b)/2 and hl = (b - a)/2, their weights, and
#: the 10-point Gauss weights of the odd abscissae 1, 3, ..., 9
_XGK21 = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK21 = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525356942, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
#: the order in which dqk21 adds its nodes into the Kronrod sum: the centre,
#: the Gauss nodes, the others; and into its error scale: the centre, then 0-9
_KRONROD_ORDER, _ASC_ORDER = [10, 1, 3, 5, 7, 9, 0, 2, 4, 6, 8], [10, *range(10)]
_EPS50 = 50.0 * float(np.finfo(float).eps)


def _in_order(terms):
    """Each column's terms added from the first row to the last, as a loop
    adds them."""
    return np.cumsum(terms, axis=0)[-1]


def _gk21(f, a, b):
    """dqk21 on every interval [a[i], b[i]], one elementwise numpy operation for
    each operation of QUADPACK's loop, so each result has `quad`'s bits; and
    whether dqagse accepts that first rule, with a margin of 2 in both its
    comparisons, which no last bit of ``pow`` in its error estimate can cross.
    Row j of a (21, len(a)) table holds node c - hl x_j, row 11 + j node
    c + hl x_j; row 10 is the centre."""
    c, hl = 0.5 * (a + b), 0.5 * (b - a)
    absc = _XGK21[:, None] * hl
    fv = f(np.concatenate([c - absc, c + absc[:10]]))
    f1, f2, fc = fv[:11], fv[11:], fv[10]
    fsum, fabs = f1.copy(), abs(f1)
    fsum[:10] += f2
    fabs[:10] += abs(f2)
    resg = _in_order(_WG10[:, None] * fsum[1:10:2])
    resk = _in_order((_WGK21[:, None] * fsum)[_KRONROD_ORDER])
    resabs = _in_order((_WGK21[:, None] * fabs)[_KRONROD_ORDER])
    reskh = resk * 0.5
    dev = abs(f1 - reskh)
    dev[:10] += abs(f2 - reskh)
    resasc = _in_order((_WGK21[:, None] * dev)[_ASC_ORDER])
    result, resabs, resasc = resk * hl, resabs * abs(hl), resasc * abs(hl)
    abserr = abs((resk - resg) * hl)
    scaled = (resasc != 0) & (abserr != 0)
    ratio = np.divide(200.0 * abserr, resasc, out=np.zeros_like(abserr), where=scaled)
    abserr = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), abserr)
    abserr = np.where(resabs > _TINY / _EPS50, np.maximum(_EPS50 * resabs, abserr), abserr)
    errbnd = np.maximum(1e-13, 1e-13 * abs(result))
    return result, (abserr <= 0.5 * errbnd) & (abserr < 0.5 * resasc) | (abserr == 0)


class DampedOscillatorSolution:
    """Exact solution q(t) = A e^{-gamma t/2} cos(wt t + phi) fitted to ICs.

    The entropy reference S(t) = S0 + int_0^t qdot^2 is evaluated by
    adaptive quadrature of the exact velocity, which keeps it free of the
    outliers a numerically integrated reference would carry.

    ``q`` and ``v`` take a float or an array of times through one formula
    that evaluates each transcendental once.  A float stays a numpy scalar
    rather than a 0-d array; the numpy functions keep the values
    bit-identical to the array case, so v of an array of times is v at
    each of them.

    ``entropy`` applies QUADPACK's first rule (`_gk21`) to each block of
    `_QUAD_BLOCK_INTERVALS` grid intervals at once, from one array call of
    v and of the square (`_power`) at its 21 nodes.  Where dqagse would
    return that rule's result, with a margin of 2 in its accept test, the
    block keeps it: the bits `quad` returns there.  Any other interval (one
    `quad` bisects, a roundoff warning, an infinite time) takes
    `quad` itself, so the rule decides the time and never a bit.
    """

    def __init__(self, gamma, q0, v0, S0=0.0):
        if not 0 < gamma < 2:
            raise ValueError("underdamped regime requires 0 < gamma < 2")
        self.gamma = float(gamma)
        self.omega = float(np.sqrt(1.0 - (gamma / 2.0) ** 2))
        self.q0 = float(np.atleast_1d(q0)[0])
        self.v0 = float(np.atleast_1d(v0)[0])
        self.S0 = float(S0)
        # cos/sin amplitudes of e^{-gamma t/2} (c cos wt t + s sin wt t)
        self._c = self.q0
        self._s = (self.v0 + 0.5 * gamma * self.q0) / self.omega

    def _parts(self, t):
        """e^{-gamma t/2}, cos(wt t), sin(wt t)."""
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
        wt = self.omega * t
        return np.exp(-0.5 * self.gamma * t), np.cos(wt), np.sin(wt)

    def q(self, t):
        damp, cos, sin = self._parts(t)
        return damp * (self._c * cos + self._s * sin)

    def v(self, t):
        damp, cos, sin = self._parts(t)
        osc = self._c * cos + self._s * sin
        dosc = self.omega * (-self._c * sin + self._s * cos)
        return damp * dosc - 0.5 * self.gamma * damp * osc

    def entropy(self, ts):
        """S on an increasing time grid, by cumulative adaptive quadrature:
        the value of one `quad` call per grid interval [ts[i-1], ts[i]] (from
        0 at i = 0) that is not empty, added in order to S0.  A NaN time is
        a ValueError naming its index."""
        from scipy.integrate import quad

        # v(u) ** 2: at a float time v is a numpy scalar, which squares by
        # pow; array ``**`` squares as np.square, which rounds differently
        sq = lambda u: _power(self.v(u), 2.0)
        ts = np.asarray(ts, dtype=float)
        # quad orders its limits with min and max, which make (0, nan) the
        # empty [0, 0]
        nan = np.flatnonzero(np.isnan(ts))
        if nan.size:
            raise ValueError(f"ts[{nan[0]}] is NaN: the entropy has no value at a NaN time")
        lows = np.concatenate([[0.0], ts])[:-1]
        vals = np.empty(ts.shape)
        for start in range(0, len(ts), _QUAD_BLOCK_INTERVALS):
            a = lows[start : start + _QUAD_BLOCK_INTERVALS]
            b = ts[start : start + _QUAD_BLOCK_INTERVALS]
            vals[start : start + len(b)], settled = _gk21(sq, a, b)
            for i in np.flatnonzero(~settled & (b != a)):
                vals[start + i] = quad(sq, float(a[i]), float(b[i]), epsabs=1e-13,
                                       epsrel=1e-13, limit=200)[0]
        filled = ts != lows
        return np.cumsum(np.concatenate([[self.S0], vals[filled]]))[np.cumsum(filled)]


def oscillator(gamma=0.1):
    """Damped harmonic oscillator, L = v^2/2 - q^2/2 - gamma S.

    Rayleigh friction -gamma v dq; H = p^2/2 + q^2/2 + gamma S is a first
    integral of the continuous dynamics.  The discrete Euler-Lagrange
    equations reduce to the explicit recurrence

        q_{k+1} = a q_k - b q_{k-1},
        a = 2 (4 - h^2) / (4 + h (h + 2 gamma)),
        b = (4 + h^2 - 2 h gamma) / (4 + h (h + 2 gamma)),

    together with S_k = S_{k-1} + (q_k - q_{k-1})^2 / h.  The exact
    solution is supplied in the underdamped regime 0 < gamma < 2 only.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    g = float(gamma)

    def coefficients(h):
        den = 4.0 + h * (h + 2.0 * g)
        return 2.0 * (4.0 - h * h) / den, (4.0 + h * h - 2.0 * h * g) / den

    return _separable(
        "oscillator", 1, g,
        potential=(lambda q, S: 0.5 * pair(q, q), lambda q, S: g * S),
        force=lambda q, v, S: -q,
        force_dq=_constant(-np.eye(1)),
        force_dS=_constant(np.zeros(1)),
        temperature=lambda q, S: g,
        exact_solution=((lambda q0, v0, S0: DampedOscillatorSolution(g, q0, v0, S0))
                        if g < 2 else None),
        update_coefficients=coefficients,
    )


# ---------------------------------------------------------------------------
# ideal gas in a cylinder: one piston, or two


def _ideal_gas(name, n, gamma, c, volume, lo=None, **entry_fields):
    """The entry of a monoatomic ideal gas, L = |v|^2/2 - U with U = e^S
    V^{-1/c} and friction -gamma v, in the volume V = ``volume(q)`` after its
    guard: a sum of the n coordinates, so every pressure is -dU/dV and every
    entry of their q-Jacobian -d2U/dV2.  Each field reads e^S off a bound S
    (`_bind`) or forms it (`_exp`).  ``lo`` is given where V is the one
    coordinate q, and is the lower bound of its guard: a float q above it is
    V, with no call, and the guard decides everywhere else.  A float V takes
    its power inline, a stack's `_power`."""
    lo = np.inf if lo is None else float(lo)  # else no float q is V
    ex = 1.0 / float(c)
    e0, e1, e2 = -ex, -ex - 1.0, -ex - 2.0
    k2 = -ex * (ex + 1.0)

    def U(q, S):  # internal energy e^S V^{-1/c}, also its own S-derivative
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > lo:
            return E * q ** e0
        V = volume(q)
        return E * (V ** e0 if type(V) is float else _power(V, e0))

    def pressures(q, v, S):  # dL/dq_i = -dU/dV, also their own S-derivatives
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > lo:
            return ex * E * q ** e1
        V = volume(q)
        return _uniform(q, ex * E * (V ** e1 if type(V) is float else _power(V, e1)))

    def stiffness(q, v, S):  # d2L/dq_i dq_j = -d2U/dV2
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > lo:
            return k2 * E * q ** e2
        V = volume(q)
        return _matrix(q, k2 * E * (V ** e2 if type(V) is float else _power(V, e2)))

    return _separable(name, n, float(gamma), potential=(U,), force=pressures,
                      force_dq=stiffness, force_dS=pressures, temperature=U, bind_S=_bind,
                      **entry_fields)


def ideal_gas(gamma=0.1, c=1.5):
    """Monoatomic ideal gas in a cylinder closed by a piston: `_ideal_gas`
    of the volume V = x.

    L = v^2/2 - e^S x^{-1/c} with c the scaled molar heat capacity;
    friction -gamma v dx.  The piston position must stay positive.
    """
    if gamma <= 0 or c <= 0:
        raise ValueError("gamma and c must be positive")
    lo = 0.0  # the bound of the volume x, which the guard and the float points read
    return _ideal_gas("ideal-gas", 1, gamma, c,
                      _coordinate_above(lo, "piston position must stay positive"), lo)


def two_pistons(gamma=0.1, c=1.5):
    """Ideal gas in a cylinder closed by two pistons (coordinates x, y):
    `_ideal_gas` of the volume V = x + y.

    L = (vx^2 + vy^2)/2 - e^S (x + y)^{-1/c}, friction -gamma vx dx
    - gamma vy dy.  With friction, gamma (x - y) + vx - vy is a Cartan
    invariant; without it, vx - vy is the Noether charge of the
    translation generator (-1, 1).
    """
    if gamma < 0 or c <= 0:
        raise ValueError("gamma must be nonnegative and c positive")
    g = float(gamma)
    invariants = {
        "cartan": lambda st: g * (st.q[0] - st.q[1]) + st.v[0] - st.v[1],
        "relative-velocity": lambda st: st.v[0] - st.v[1],
    }

    def volume(q):  # one call at a point inside the domain, a stack by its columns
        x, y = q if type(q) is tuple else q.tolist() if q.ndim == 1 else (q[..., 0], q[..., 1])
        V = x + y
        return V if type(V) is float and V > 0.0 else _above(V, 0.0, "total volume x + y "
                                                                 "must stay positive")

    return _ideal_gas("two-pistons", 2, g, c, volume, invariants=invariants)


# ---------------------------------------------------------------------------
# Van der Waals gas


def van_der_waals(gamma=0.1, a_hat=1.0e3, b_hat=0.1):
    """Van der Waals gas in the piston cylinder.

    L = v^2/2 - (x - b)^{-2/3} e^S + a/x for molecules without internal
    degrees of freedom (the 2/3 exponent is the monoatomic 1/c).  The
    position must stay above the excluded volume b.
    """
    if gamma <= 0 or b_hat < 0:
        raise ValueError("gamma must be positive and b_hat nonnegative")
    g, ah, bh = float(gamma), float(a_hat), float(b_hat)

    # bh >= 0, so x > bh also keeps x positive; at a float point x is q
    # where q > bh, with no call, and the guard decides everywhere else
    xval = _coordinate_above(bh, f"position must exceed the excluded volume {bh}")

    def U(q, S):
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > bh:
            return E * (q - bh) ** (-2.0 / 3.0)
        return E * _power(xval(q) - bh, -2.0 / 3.0)

    def force(q, v, S):  # dL/dx
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > bh:
            return (2.0 / 3.0) * E * (q - bh) ** (-5.0 / 3.0) - ah / q ** 2
        x = xval(q)
        return _uniform(q, (2.0 / 3.0) * E * _power(x - bh, -5.0 / 3.0) - ah / _power(x, 2))

    def stiffness(q, v, S):  # d2L/dx2
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > bh:
            return -(10.0 / 9.0) * E * (q - bh) ** (-8.0 / 3.0) + 2.0 * ah / q ** 3
        x = xval(q)
        # `_power` inlined at an array point, whose x is a float
        if type(x) is float:
            powers = (x - bh) ** (-8.0 / 3.0), x ** 3
        else:
            powers = _power(x - bh, -8.0 / 3.0), _power(x, 3)
        return _matrix(q, -(10.0 / 9.0) * E * powers[0] + 2.0 * ah / powers[1])

    def force_dS(q, v, S):  # d2L/dx dS
        E = S.exp if type(S) is _BoundS else _exp(q, S)
        if type(q) is float and q > bh:
            return (2.0 / 3.0) * E * (q - bh) ** (-5.0 / 3.0)
        return _uniform(q, (2.0 / 3.0) * E * _power(xval(q) - bh, -5.0 / 3.0))

    return _separable(
        "van-der-waals", 1, g,
        potential=(U, lambda q, S: -ah / xval(q)),
        force=force,
        force_dq=stiffness,
        force_dS=force_dS,
        temperature=U,
        bind_S=_bind,
    )


CATALOG = {
    "oscillator": oscillator,
    "ideal-gas": ideal_gas,
    "van-der-waals": van_der_waals,
    "two-pistons": two_pistons,
}


def get_system(name, **params):
    """Build a catalog entry by name ('oscillator', 'ideal-gas', ...)."""
    try:
        factory = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; available: {sorted(CATALOG)}") from None
    return factory(**params)
