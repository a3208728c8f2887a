"""Catalog of concrete thermodynamic systems with analytic data.

Four systems: a damped harmonic oscillator, a piston compressing an ideal
monoatomic gas, the same piston with a Van der Waals gas, and a cylinder
closed by two pistons.  All four are L = |v|^2/2 - V(q, S) with Rayleigh
friction -gamma v, so each factory declares only its potential and
`_separable` derives the entry: the Lagrangian side with its second
partials, friction Jacobians and closed-form acceleration, and the
Hamiltonian twin under p = v.  V is a sequence of terms, which L subtracts
in order and H adds in order: float sums do not associate, and this order
fixes the bits of the H columns of the CSVs.  Entries also carry, where
available, an exact solution and a closed-form discrete update.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .continuous import LagrangianThermoSystem, pair
from .errors import DomainError
from .geometry import HamiltonianPoint, evolution_field_coordinates

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
    "hamiltonian_rhs",
]


@dataclass
class SystemCatalogEntry:
    """A named system: Lagrangian side plus Hamiltonian side.

    The catalog declares its entries by the terms of their potential
    through `_separable`, where L subtracts the terms in order and H adds
    them in order, because that order fixes the bits of the H columns of
    the CSVs; a user-defined entry supplies every field itself.

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
    pairing in 3220 of 20 000 (n = 2).  The other Hamiltonian callables
    take one point.
    """

    name: str
    lagrangian: LagrangianThermoSystem
    H: callable            # (q, p, S) -> float
    dHdq: callable         # (q, p, S) -> (n,)
    dHdp: callable         # (q, p, S) -> (n,)
    dHdS: callable         # (q, p, S) -> float
    Ffr_p: callable        # momentum-space friction covector, (q, p, S) -> (n,)
    params: dict = field(default_factory=dict)
    exact_solution: callable = None      # (q0, v0, S0) -> solution handle
    update_coefficients: callable = None  # h -> (a, b) of the explicit recurrence
    invariants: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.lagrangian.n


def hamiltonian_point(entry, q, p, S, Fext=None):
    """Assemble the geometry-side data of a phase-space point."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    dH = np.concatenate([
        np.atleast_1d(entry.dHdq(q, p, S)),
        np.atleast_1d(entry.dHdp(q, p, S)),
        [entry.dHdS(q, p, S)],
    ])
    return HamiltonianPoint(q=q, p=p, S=S, dH=dH, Ffr=entry.Ffr_p(q, p, S), Fext=Fext)


def hamiltonian_rhs(entry, q, p, S, Fext=None):
    """First-order evolution equations on (q, p, S): the coordinates of the
    evolution field at the point, split as (qdot, pdot, Sdot)."""
    n = entry.n
    E = evolution_field_coordinates(hamiltonian_point(entry, q, p, S, Fext))
    return E[:n], E[n : 2 * n], E[-1]


# ---------------------------------------------------------------------------
# one point or a stack of points
#
# Each catalog formula is written once through these helpers, the only
# places that tell a point from a stack (see `SystemCatalogEntry`): a
# point stays on Python floats, a stack uses the numpy functions that
# round as the float operations do.  A one-dimensional system also takes
# a float point, q itself a float (see `LagrangianThermoSystem`): there
# a covector or a 1x1 matrix is its one entry.


def _vec(x):
    """A point or a stack as a float array with at least one axis."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def _coord(q, i):
    """Coordinate i: a float at a point (a float point is its own coordinate
    0), an array of shape (...) on a stack."""
    if type(q) is float:
        return q
    return float(q[i]) if q.ndim == 1 else q[..., i]


def _power(x, e):
    """x ** e; `np.float_power` on an array (array ``**`` rounds differently)."""
    return x ** e if type(x) is float else np.float_power(x, e)


def _above(x, lo, what):
    """x, after checking that it exceeds lo (in every row of a stack)."""
    if (x <= lo) if type(x) is float else np.any(x <= lo):
        bad = x if type(x) is float else float(x[x <= lo].flat[0])
        raise DomainError(f"{what}, got {bad}")
    return x


def _covector(q, *parts):
    """The covector with these components at q: the one component at a
    float point, (n,) at a point, (..., n) on a stack."""
    if type(q) is float:
        return parts[0]
    if isinstance(parts[0], np.ndarray):
        return np.stack(parts, axis=-1)
    return np.array(parts)


def _matrix1(q, x):
    """The 1x1 matrix [[x]] at a point q; x itself at a float point."""
    return x if type(q) is float else np.array([[x]])


def _constant(value):
    """A field of (q, v, S) that does not depend on the point: ``value``,
    or its one entry at a float point."""
    entry = float(value.flat[0])
    return lambda q, v, S: entry if type(q) is float else value


# ---------------------------------------------------------------------------
# the separable form L = |v|^2/2 - V(q, S) with Rayleigh friction -gamma v


def _separable(name, n, gamma, params, potential, force, force_dq, force_dS, temperature,
               domain_check=None, **entry_fields):
    """The catalog entry of L = |v|^2/2 - V(q, S) with friction -gamma v.

    ``potential`` holds the terms of V; ``force`` = -dV/dq, its q-Jacobian
    ``force_dq``, ``force_dS`` = -d2V/dqdS and ``temperature`` = dV/dS are
    callables of (q, S).  Every other field follows, the Hamiltonian side
    with p = v.
    """
    eye, zeros, zero = np.eye(n), np.zeros((n, n)), np.zeros(n)

    def L(q, v, S):
        value = 0.5 * pair(v, v)
        for term in potential:
            value = value - term(q, S)
        return value

    def H(q, p, S):
        q, p = _vec(q), _vec(p)
        value = 0.5 * pair(p, p)
        for term in potential:
            value = value + term(q, S)
        return value

    lag = LagrangianThermoSystem(
        n=n,
        L=L,
        dLdq=lambda q, v, S: force(q, S),
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -temperature(q, S),
        Ffr=lambda q, v, S: -gamma * v,
        name=name,
        params=params,
        d2Ldq2=lambda q, v, S: force_dq(q, S),
        d2Ldqdv=_constant(zeros),
        d2Ldv2=_constant(eye),
        d2LdqdS=lambda q, v, S: force_dS(q, S),
        d2LdvdS=_constant(zero),
        dFfrdq=_constant(zeros),
        dFfrdv=_constant(-gamma * eye),
        dFfrdS=_constant(zero),
        accel=lambda q, v, S: force(q, S) - gamma * v,
        domain_check=domain_check,
        float_points=(n == 1),
    )
    return SystemCatalogEntry(
        name=name,
        lagrangian=lag,
        H=H,
        dHdq=lambda q, p, S: -force(_vec(q), S),
        dHdp=lambda q, p, S: _vec(p),
        dHdS=lambda q, p, S: temperature(_vec(q), S),
        Ffr_p=lambda q, p, S: -gamma * _vec(p),
        params=params,
        **entry_fields,
    )


# ---------------------------------------------------------------------------
# damped harmonic oscillator


class DampedOscillatorSolution:
    """Exact solution q(t) = A e^{-gamma t/2} cos(wt t + phi) fitted to ICs.

    The entropy reference S(t) = S0 + int_0^t qdot^2 is evaluated by
    adaptive quadrature of the exact velocity, which keeps it free of the
    outliers a numerically integrated reference would carry.

    ``q`` and ``v`` take a float or an array of times through one formula
    that evaluates each transcendental once.  A float stays a numpy scalar
    rather than a 0-d array, because the quadrature calls ``v`` 21 times
    per grid interval and the array round trip dominated that cost; the
    numpy functions keep the values bit-identical to the array case.
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
        """S on an increasing time grid, by cumulative adaptive quadrature."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape)
        acc = self.S0
        prev = 0.0
        sq = lambda u: self.v(u) ** 2
        for i, t in enumerate(ts):
            if t != prev:
                val, _ = quad(sq, prev, t, epsabs=1e-13, epsrel=1e-13, limit=200)
                acc += val
                prev = t
            out[i] = acc
        return out


def oscillator(gamma=0.1):
    """Damped harmonic oscillator, L = v^2/2 - q^2/2 - gamma S.

    Rayleigh friction -gamma v dq; H = p^2/2 + q^2/2 + gamma S is a first
    integral of the continuous dynamics.  The discrete Euler-Lagrange
    equations reduce to the explicit recurrence

        q_{k+1} = a q_k - b q_{k-1},
        a = 2 (4 - h^2) / (4 + h (h + 2 gamma)),
        b = (4 + h^2 - 2 h gamma) / (4 + h (h + 2 gamma)),

    together with S_k = S_{k-1} + (q_k - q_{k-1})^2 / h.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    g = float(gamma)

    def coefficients(h):
        den = 4.0 + h * (h + 2.0 * g)
        return 2.0 * (4.0 - h * h) / den, (4.0 + h * h - 2.0 * h * g) / den

    return _separable(
        "oscillator", 1, g, {"gamma": g},
        potential=(lambda q, S: 0.5 * pair(q, q), lambda q, S: g * S),
        force=lambda q, S: -q,
        force_dq=lambda q, S: _matrix1(q, -1.0),
        force_dS=lambda q, S: _covector(q, 0.0),
        temperature=lambda q, S: g,
        exact_solution=lambda q0, v0, S0: DampedOscillatorSolution(g, q0, v0, S0),
        update_coefficients=coefficients,
    )


# ---------------------------------------------------------------------------
# ideal gas compressed by a piston


def ideal_gas(gamma=0.1, c=1.5):
    """Monoatomic ideal gas in a cylinder closed by a piston.

    L = v^2/2 - e^S x^{-1/c} with c the scaled molar heat capacity;
    friction -gamma v dx.  The piston position must stay positive.
    """
    if gamma <= 0 or c <= 0:
        raise ValueError("gamma and c must be positive")
    g, ex = float(gamma), 1.0 / float(c)

    def xval(q):
        return _above(_coord(q, 0), 0.0, "piston position must stay positive")

    def U(q, S):  # internal energy e^S x^{-1/c}, also its own S-derivative
        return np.exp(S) * _power(xval(q), -ex)

    def pressure_force(q, S):  # -dU/dx = (1/c) e^S x^{-1/c - 1}, also its own S-derivative
        return _covector(q, ex * np.exp(S) * _power(xval(q), -ex - 1.0))

    return _separable(
        "ideal-gas", 1, g, {"gamma": g, "c": float(c)},
        potential=(U,),
        force=pressure_force,
        force_dq=lambda q, S: _matrix1(q, -ex * (ex + 1.0) * np.exp(S)
                                      * xval(q) ** (-ex - 2.0)),
        force_dS=pressure_force,
        temperature=U,
        domain_check=xval,
    )


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

    outside = f"position must exceed the excluded volume {bh}"

    def xval(q):  # bh >= 0, so x > bh also keeps x positive
        return _above(_coord(q, 0), bh, outside)

    def U(q, S):
        return np.exp(S) * _power(xval(q) - bh, -2.0 / 3.0)

    def force(q, S):  # dL/dx
        x = xval(q)
        return _covector(q, (2.0 / 3.0) * np.exp(S) * _power(x - bh, -5.0 / 3.0)
                         - ah / _power(x, 2))

    def stiffness(q, S):  # d2L/dx2, at a point
        x = xval(q)
        return _matrix1(q, -(10.0 / 9.0) * np.exp(S) * (x - bh) ** (-8.0 / 3.0)
                        + 2.0 * ah / x ** 3)

    return _separable(
        "van-der-waals", 1, g, {"gamma": g, "a_hat": ah, "b_hat": bh},
        potential=(U, lambda q, S: -ah / xval(q)),
        force=force,
        force_dq=stiffness,
        force_dS=lambda q, S: _covector(q, (2.0 / 3.0) * np.exp(S)
                                        * (xval(q) - bh) ** (-5.0 / 3.0)),
        temperature=U,
        domain_check=xval,
    )


# ---------------------------------------------------------------------------
# cylinder with two pistons


def two_pistons(gamma=0.1, c=1.5):
    """Ideal gas in a cylinder closed by two pistons (coordinates x, y).

    L = (vx^2 + vy^2)/2 - e^S (x + y)^{-1/c}, friction -gamma vx dx
    - gamma vy dy.  With friction, gamma (x - y) + vx - vy is a Cartan
    invariant; without it, vx - vy is the Noether charge of the
    translation generator (-1, 1).
    """
    if gamma < 0 or c <= 0:
        raise ValueError("gamma must be nonnegative and c positive")
    g, ex = float(gamma), 1.0 / float(c)

    def uval(q):
        return _above(_coord(q, 0) + _coord(q, 1), 0.0,
                      "total volume x + y must stay positive")

    def U(q, S):
        return np.exp(S) * _power(uval(q), -ex)

    def pressures(q, S):  # dL/dx = dL/dy = -dU/dx, also their own S-derivatives
        P = ex * np.exp(S) * _power(uval(q), -ex - 1.0)
        return _covector(q, P, P)

    invariants = {
        "cartan": lambda st: g * (st.q[0] - st.q[1]) + st.v[0] - st.v[1],
        "relative-velocity": lambda st: st.v[0] - st.v[1],
    }

    return _separable(
        "two-pistons", 2, g, {"gamma": g, "c": float(c)},
        potential=(U,),
        force=pressures,
        force_dq=lambda q, S: -ex * (ex + 1.0) * np.exp(S)
        * uval(q) ** (-ex - 2.0) * np.ones((2, 2)),
        force_dS=pressures,
        temperature=U,
        domain_check=uval,
        invariants=invariants,
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
