"""Catalog of concrete thermodynamic systems with analytic data.

Four systems: a damped harmonic oscillator, a piston compressing an ideal
monoatomic gas, the same piston with a Van der Waals gas, and a cylinder
closed by two pistons.  Each entry bundles the Lagrangian side (with
analytic first and second partials), the Hamiltonian side (H and its
partials plus the momentum-space friction covector), domain guards, and,
where available, an exact solution and a closed-form discrete update.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .continuous import LagrangianThermoSystem
from .errors import DomainError
from .geometry import HamiltonianPoint

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
    """A named system: Lagrangian side plus Hamiltonian side."""

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
    """First-order evolution equations on (q, p, S)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    ffr = np.asarray(entry.Ffr_p(q, p, S), dtype=float)
    fext = np.zeros_like(q) if Fext is None else np.asarray(Fext, dtype=float)
    hp = np.atleast_1d(np.asarray(entry.dHdp(q, p, S), dtype=float))
    qdot = hp
    pdot = -np.atleast_1d(np.asarray(entry.dHdq(q, p, S), dtype=float)) + ffr + fext
    Sdot = -float(hp @ ffr) / float(entry.dHdS(q, p, S))
    return qdot, pdot, Sdot


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
    eye = np.eye(1)

    lag = LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * float(v @ v) - 0.5 * float(q @ q) - g * S,
        dLdq=lambda q, v, S: -q,
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -g,
        Ffr=lambda q, v, S: -g * v,
        name="oscillator",
        params={"gamma": g},
        d2Ldq2=lambda q, v, S: -eye,
        d2Ldv2=lambda q, v, S: eye,
        d2LdqdS=lambda q, v, S: np.zeros(1),
        d2LdvdS=lambda q, v, S: np.zeros(1),
        d2LdS2=lambda q, v, S: 0.0,
        dFfrdq=lambda q, v, S: np.zeros((1, 1)),
        dFfrdv=lambda q, v, S: -g * eye,
        dFfrdS=lambda q, v, S: np.zeros(1),
        accel=lambda q, v, S: -q - g * v,
    )

    def coefficients(h):
        den = 4.0 + h * (h + 2.0 * g)
        return 2.0 * (4.0 - h * h) / den, (4.0 + h * h - 2.0 * h * g) / den

    def as_vec(x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    return SystemCatalogEntry(
        name="oscillator",
        lagrangian=lag,
        H=lambda q, p, S: 0.5 * float(as_vec(p) @ as_vec(p))
        + 0.5 * float(as_vec(q) @ as_vec(q)) + g * S,
        dHdq=lambda q, p, S: as_vec(q),
        dHdp=lambda q, p, S: as_vec(p),
        dHdS=lambda q, p, S: g,
        Ffr_p=lambda q, p, S: -g * as_vec(p),
        params={"gamma": g},
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
    eye = np.eye(1)

    def xval(q):
        x = float(q[0])
        if x <= 0.0:
            raise DomainError(f"piston position must stay positive, got {x}")
        return x

    def guard(q):
        xval(q)

    def U(q, S):  # internal energy e^S x^{-1/c}
        return np.exp(S) * xval(q) ** (-ex)

    def pressure_force(q, S):  # dL/dx = (1/c) e^S x^{-1/c - 1}
        return np.array([ex * np.exp(S) * xval(q) ** (-ex - 1.0)])

    lag = LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * float(v @ v) - U(q, S),
        dLdq=lambda q, v, S: pressure_force(q, S),
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -U(q, S),
        Ffr=lambda q, v, S: -g * v,
        name="ideal-gas",
        params={"gamma": g, "c": float(c)},
        d2Ldq2=lambda q, v, S: np.array([[-ex * (ex + 1.0) * np.exp(S) * xval(q) ** (-ex - 2.0)]]),
        d2Ldv2=lambda q, v, S: eye,
        d2LdqdS=lambda q, v, S: pressure_force(q, S),
        d2LdvdS=lambda q, v, S: np.zeros(1),
        d2LdS2=lambda q, v, S: -U(q, S),
        dFfrdq=lambda q, v, S: np.zeros((1, 1)),
        dFfrdv=lambda q, v, S: -g * eye,
        dFfrdS=lambda q, v, S: np.zeros(1),
        accel=lambda q, v, S: -g * v + pressure_force(q, S),
        domain_check=guard,
    )

    def as_vec(x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    return SystemCatalogEntry(
        name="ideal-gas",
        lagrangian=lag,
        H=lambda q, p, S: 0.5 * float(as_vec(p) @ as_vec(p)) + U(as_vec(q), S),
        dHdq=lambda q, p, S: -pressure_force(as_vec(q), S),
        dHdp=lambda q, p, S: as_vec(p),
        dHdS=lambda q, p, S: U(as_vec(q), S),
        Ffr_p=lambda q, p, S: -g * as_vec(p),
        params={"gamma": g, "c": float(c)},
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
    eye = np.eye(1)

    def xval(q):
        x = float(q[0])
        if x <= bh or x <= 0.0:
            raise DomainError(f"position must exceed the excluded volume {bh}, got {x}")
        return x

    def guard(q):
        xval(q)

    def U(q, S):
        return np.exp(S) * (xval(q) - bh) ** (-2.0 / 3.0)

    def force(q, S):  # dL/dx
        x = xval(q)
        return np.array([(2.0 / 3.0) * np.exp(S) * (x - bh) ** (-5.0 / 3.0) - ah / x ** 2])

    lag = LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * float(v @ v) - U(q, S) + ah / xval(q),
        dLdq=lambda q, v, S: force(q, S),
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -U(q, S),
        Ffr=lambda q, v, S: -g * v,
        name="van-der-waals",
        params={"gamma": g, "a_hat": ah, "b_hat": bh},
        d2Ldq2=lambda q, v, S: np.array([[
            -(10.0 / 9.0) * np.exp(S) * (xval(q) - bh) ** (-8.0 / 3.0)
            + 2.0 * ah / xval(q) ** 3
        ]]),
        d2Ldv2=lambda q, v, S: eye,
        d2LdqdS=lambda q, v, S: np.array([
            (2.0 / 3.0) * np.exp(S) * (xval(q) - bh) ** (-5.0 / 3.0)
        ]),
        d2LdvdS=lambda q, v, S: np.zeros(1),
        d2LdS2=lambda q, v, S: -U(q, S),
        dFfrdq=lambda q, v, S: np.zeros((1, 1)),
        dFfrdv=lambda q, v, S: -g * eye,
        dFfrdS=lambda q, v, S: np.zeros(1),
        accel=lambda q, v, S: -g * v + force(q, S),
        domain_check=guard,
    )

    def as_vec(x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    return SystemCatalogEntry(
        name="van-der-waals",
        lagrangian=lag,
        H=lambda q, p, S: 0.5 * float(as_vec(p) @ as_vec(p)) + U(as_vec(q), S)
        - ah / xval(as_vec(q)),
        dHdq=lambda q, p, S: -force(as_vec(q), S),
        dHdp=lambda q, p, S: as_vec(p),
        dHdS=lambda q, p, S: U(as_vec(q), S),
        Ffr_p=lambda q, p, S: -g * as_vec(p),
        params={"gamma": g, "a_hat": ah, "b_hat": bh},
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
    eye = np.eye(2)
    ones = np.ones(2)

    def uval(q):
        u = float(q[0] + q[1])
        if u <= 0.0:
            raise DomainError(f"total volume x + y must stay positive, got {u}")
        return u

    def guard(q):
        uval(q)

    def U(q, S):
        return np.exp(S) * uval(q) ** (-ex)

    def P(q, S):  # -dU/dx = -dU/dy
        return ex * np.exp(S) * uval(q) ** (-ex - 1.0)

    lag = LagrangianThermoSystem(
        n=2,
        L=lambda q, v, S: 0.5 * float(v @ v) - U(q, S),
        dLdq=lambda q, v, S: P(q, S) * ones,
        dLdv=lambda q, v, S: v,
        dLdS=lambda q, v, S: -U(q, S),
        Ffr=lambda q, v, S: -g * v,
        name="two-pistons",
        params={"gamma": g, "c": float(c)},
        d2Ldq2=lambda q, v, S: -ex * (ex + 1.0) * np.exp(S)
        * uval(q) ** (-ex - 2.0) * np.ones((2, 2)),
        d2Ldv2=lambda q, v, S: eye,
        d2LdqdS=lambda q, v, S: P(q, S) * ones,
        d2LdvdS=lambda q, v, S: np.zeros(2),
        d2LdS2=lambda q, v, S: -U(q, S),
        dFfrdq=lambda q, v, S: np.zeros((2, 2)),
        dFfrdv=lambda q, v, S: -g * eye,
        dFfrdS=lambda q, v, S: np.zeros(2),
        accel=lambda q, v, S: P(q, S) * ones - g * v,
        domain_check=guard,
    )

    invariants = {
        "cartan": lambda st: g * (st.q[0] - st.q[1]) + st.v[0] - st.v[1],
        "relative-velocity": lambda st: st.v[0] - st.v[1],
    }

    def as_vec(x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    return SystemCatalogEntry(
        name="two-pistons",
        lagrangian=lag,
        H=lambda q, p, S: 0.5 * float(as_vec(p) @ as_vec(p)) + U(as_vec(q), S),
        dHdq=lambda q, p, S: -P(as_vec(q), S) * ones,
        dHdp=lambda q, p, S: as_vec(p),
        dHdS=lambda q, p, S: U(as_vec(q), S),
        Ffr_p=lambda q, p, S: -g * as_vec(p),
        params={"gamma": g, "c": float(c)},
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
