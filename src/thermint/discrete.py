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

These six callables are always present on a `DiscreteThermoSystem`:
`midpoint_discretize` supplies fused one-pass and analytic versions, and
any other system gets the generic combinations of its slot derivatives at
construction, with Jacobians from `continuous.fd_gradient` (central
differences with step ``cbrt(eps) * (1 + |x|)``).
"""

from dataclasses import dataclass

import numpy as np

from .continuous import fd_gradient
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
    "momenta",
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
    """A point (q0, q1, S0) of the discrete state space."""

    q0: np.ndarray
    q1: np.ndarray
    S0: float

    def __post_init__(self):
        q0 = np.atleast_1d(np.asarray(self.q0, dtype=float))
        q1 = np.atleast_1d(np.asarray(self.q1, dtype=float))
        if q0.shape != q1.shape:
            raise ValueError("q0 and q1 must have the same shape")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "S0", float(self.S0))

    def as_array(self):
        return np.concatenate([self.q0, self.q1, [self.S0]])

    @classmethod
    def from_array(cls, x, n):
        return cls(x[:n], x[n : 2 * n], x[2 * n])


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

    ``D1Ld``, ``D2Ld``, ``DSLd``, ``ffr_minus``, ``ffr_plus`` and
    ``entropy_increment`` also take a stack of triples, q0 and q1 of
    shape (..., n) and S0 of shape (...), as `midpoint_discretize` builds
    them from a stack-capable continuous system.  `discrete_momenta`'s
    core `momenta`, `DiscretePath.constraint_residual` and
    `bench.hamiltonian_estimates` evaluate a whole path that way.
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
        # a derived callable closes over the fields it was built from, so
        # it is rebuilt when a copy (dataclasses.replace) changes them
        for attr, fn in _generic_kernel(self).items():
            current = getattr(self, attr)
            if current is None or getattr(current, "generic", False):
                setattr(self, attr, fn)


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

    def constraint_residual(self, d):
        """Max relative violation of the entropy-update constraint.

        The entropy updates of all N triples are one call on the stacks
        (q_{k-1}), (q_k), (S_{k-1}), so ``d`` must take stacks (see
        `DiscreteThermoSystem`).  NaN violations are ignored.
        """
        S1 = self.Ss[1:]
        s_pred = _updated_entropy(d, self.qs[:-1], self.qs[1:], self.Ss[:-1])
        err = np.abs(S1 - s_pred) / np.maximum(1.0, np.abs(S1))
        return float(np.fmax.reduce(err, initial=0.0))


# ---------------------------------------------------------------------------
# one triple or a stack of triples


def _pair(f, dq):
    """f . dq over the last axis: a float for one triple, an array for a
    stack (`np.vecdot`, which sums as ``@`` does)."""
    f = np.asarray(f)
    return float(f @ dq) if f.ndim == 1 else np.vecdot(f, dq)


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
        return np.asarray(d.dpi_minus(q0, q1, S0), dtype=float)[:, n : 2 * n]

    def entropy_increment(q0, q1, S0):
        # (ffr_plus . q1 - ffr_minus . q0) / DSLd; a shared covector f is
        # paired as f . (q1 - q0), the same quantity without cancellation
        # at large coordinates.  A zero DSLd raises ZeroDivisionError.
        dsl = DSLd(q0, q1, S0)
        if shared:
            num = _pair(ffr_plus(q0, q1, S0), q1 - q0)
        else:
            num = _pair(ffr_plus(q0, q1, S0), q1) - _pair(ffr_minus(q0, q1, S0), q0)
        return _quotient(num, dsl)

    kernel = {"pi_minus": pi_minus, "pi_plus": pi_plus,
              "pi_minus_dq1": pi_minus_dq1, "entropy_increment": entropy_increment,
              "dpi_minus": covector_jacobian("pi_minus"),
              "dpi_plus": covector_jacobian("pi_plus")}
    for fn in kernel.values():
        fn.generic = True
    return kernel


# ---------------------------------------------------------------------------
# midpoint discretization of a continuous system


def midpoint_discretize(sys, h):
    """Discretize a Lagrangian system by the midpoint substitutions.

    q -> (q0 + q1)/2 and v -> (q1 - q0)/h in L and in the friction
    covector; the single friction value acts on dq0 as ffr_minus and on
    dq1 as ffr_plus.  All discrete partials are assembled by the chain
    rule from the system's analytic partials; the semiregularity matrix
    and the covector Jacobians only where the system supplies the second
    partials and friction Jacobians they need.
    """
    if h <= 0:
        raise ValueError(f"time step must be positive, got {h}")
    n = sys.n

    def mid(q0, q1):
        return 0.5 * (q0 + q1), (q1 - q0) / h

    def Ld(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return sys.L(m, w, S0)

    def D1Ld(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return 0.5 * np.asarray(sys.dLdq(m, w, S0)) - np.asarray(sys.dLdv(m, w, S0)) / h

    def D2Ld(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return 0.5 * np.asarray(sys.dLdq(m, w, S0)) + np.asarray(sys.dLdv(m, w, S0)) / h

    def at_mid(fn, cast):
        # a field of (q, v, S) evaluated at the midpoint substitution
        def f(q0, q1, S0):
            m, w = mid(q0, q1)
            return cast(fn(m, w, S0))
        return f

    def chain(dq, dv, cv):
        # d/dq0 (cv = -1) or d/dq1 (cv = 1) of a field evaluated at the
        # midpoint: (1/2) d/dq + (cv/h) d/dv
        def jac(q0, q1, S0):
            m, w = mid(q0, q1)
            return (0.5 * np.asarray(dq(m, w, S0), dtype=float)
                    + (cv / h) * np.asarray(dv(m, w, S0), dtype=float))
        return jac

    def array(x):
        return np.asarray(x, dtype=float)

    DSLd = at_mid(sys.dLdS, _point_or_stack)
    ffr = at_mid(sys.Ffr, array)
    kw = {}
    if sys.d2Ldq2 is not None and sys.d2Ldv2 is not None:
        # d2L/dqdv defaults to zero when not supplied (true for all the
        # shipped systems, whose kinetic term is |v|^2/2)
        def lqv(m, w, S0):
            if sys.d2Ldqdv is None:
                return np.zeros((n, n))
            return np.asarray(sys.d2Ldqdv(m, w, S0), dtype=float)

        def make_ldd(cq0, cv0, cq1, cv1):
            # d/dq0 ~ (cq0/2, cv0/h), d/dq1 ~ (cq1/2, cv1/h) on (m, w)
            def jac(q0, q1, S0):
                m, w = mid(q0, q1)
                qq = np.asarray(sys.d2Ldq2(m, w, S0), dtype=float)
                vv = np.asarray(sys.d2Ldv2(m, w, S0), dtype=float)
                qv = lqv(m, w, S0)
                return (0.25 * cq0 * cq1 * qq
                        + (cq0 * cv1 / (2 * h)) * qv
                        + (cq1 * cv0 / (2 * h)) * qv.T
                        + (cv0 * cv1 / (h * h)) * vv)
            return jac

        if sys.dFfrdq is not None and sys.dFfrdv is not None:
            # fused semiregularity matrix d(pi_minus)/dq1
            def pi_minus_dq1(q0, q1, S0):
                m, w = mid(q0, q1)
                qq = np.asarray(sys.d2Ldq2(m, w, S0), dtype=float)
                vv = np.asarray(sys.d2Ldv2(m, w, S0), dtype=float)
                qv = lqv(m, w, S0)
                fq = np.asarray(sys.dFfrdq(m, w, S0), dtype=float)
                fv = np.asarray(sys.dFfrdv(m, w, S0), dtype=float)
                return (vv / (h * h) - 0.25 * qq - (0.5 / h) * qv + (0.5 / h) * qv.T
                        - 0.25 * fq - (0.5 / h) * fv)

            kw["pi_minus_dq1"] = pi_minus_dq1

            if (sys.d2LdqdS is not None and sys.d2LdvdS is not None
                    and sys.dFfrdS is not None):
                dffr = (chain(sys.dFfrdq, sys.dFfrdv, -1), chain(sys.dFfrdq, sys.dFfrdv, 1),
                        at_mid(sys.dFfrdS, array))

                def covector_jacobian(cv):
                    # d/dx of cv * (D_slot Ld + ffr/2), the slot being q0 for
                    # pi_minus (cv = -1) and q1 for pi_plus (cv = 1)
                    blocks = tuple(zip((make_ldd(1, cv, 1, -1), make_ldd(1, cv, 1, 1),
                                        chain(sys.d2LdqdS, sys.d2LdvdS, cv)), dffr))

                    def dpi(q0, q1, S0):
                        return np.column_stack([cv * (second(q0, q1, S0) + 0.5 * f(q0, q1, S0))
                                                for second, f in blocks])
                    return dpi

                kw["dpi_minus"] = covector_jacobian(-1)
                kw["dpi_plus"] = covector_jacobian(1)

    # fused covectors of the two Legendre maps (single midpoint pass)
    def pi_minus(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return (np.asarray(sys.dLdv(m, w, S0)) / h
                - 0.5 * np.asarray(sys.dLdq(m, w, S0))
                - 0.5 * np.asarray(sys.Ffr(m, w, S0)))

    def pi_plus(q0, q1, S0):
        m, w = mid(q0, q1)
        sys.check_domain(m)
        return (np.asarray(sys.dLdv(m, w, S0)) / h
                + 0.5 * np.asarray(sys.dLdq(m, w, S0))
                + 0.5 * np.asarray(sys.Ffr(m, w, S0)))

    def entropy_increment(q0, q1, S0):
        m, w = mid(q0, q1)
        return _quotient(_pair(sys.Ffr(m, w, S0), q1 - q0), sys.dLdS(m, w, S0))

    return DiscreteThermoSystem(
        n=n, h=h, Ld=Ld, D1Ld=D1Ld, D2Ld=D2Ld, DSLd=DSLd,
        ffr_minus=ffr, ffr_plus=ffr, pi_minus=pi_minus, pi_plus=pi_plus,
        entropy_increment=entropy_increment, name=sys.name, **kw,
    )


# ---------------------------------------------------------------------------
# core one-step objects


def entropy_update(d, t):
    """Entropy after one step: the phenomenological-constraint update.

        S1 = S0 + (ffr_plus . q1 - ffr_minus . q0) / DSLd

    evaluated on the triple through the system's entropy increment.
    """
    return _updated_entropy(d, t.q0, t.q1, t.S0)


def _updated_entropy(d, q0, q1, S0):
    """`entropy_update` on raw (q0, q1, S0): one triple or a stack."""
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
    return momenta(d, t.q0, t.q1, t.S0)


def momenta(d, q0, q1, S0):
    """`discrete_momenta` on raw (q0, q1, S0): one triple, or a stack of
    triples giving stacks of momenta."""
    p_plus = d.h * np.asarray(d.D2Ld(q0, q1, S0), dtype=float) + (d.h / 2) * np.asarray(
        d.ffr_plus(q0, q1, S0), dtype=float)
    p_minus = -d.h * np.asarray(d.D1Ld(q0, q1, S0), dtype=float) - (d.h / 2) * np.asarray(
        d.ffr_minus(q0, q1, S0), dtype=float)
    return p_minus, p_plus


def semiregularity_matrix(d, t):
    """d(pi_minus)/dq1; invertibility makes the minus transform
    a local diffeomorphism.  Its negative is the Newton Jacobian of
    `del_residual` in q_next."""
    return np.asarray(d.pi_minus_dq1(t.q0, t.q1, t.S0), dtype=float)


def discrete_flow(d, t, cfg=None):
    """One step of the discrete Lagrangian flow.

    Maps (q0, q1, S0) to (q1, q2, S1) where S1 is the entropy update and
    q2 is the Newton root of the discrete Euler-Lagrange residual; the
    step is the same one `integrate` takes (`solve.solve_step`).
    """
    from .solve import NewtonConfig, solve_step

    q2, S1 = solve_step(d, t.q0, t.q1, t.S0, cfg or NewtonConfig())
    return DiscreteTriple(t.q1, q2, S1)


# ---------------------------------------------------------------------------
# two-forms and the pullback theorem


def omega_matrices(d, t):
    """q0/q1 coefficient blocks of the two pulled-back two-forms.

        Wplus  = d(pi_plus)/dq0
        Wminus = -(d(pi_minus)/dq1)^T

    in the index convention of the module docstring; each is
    ``-omega_embedded(d, t, side)[:n, n:2n].T``.
    """
    n = d.n
    dplus = np.asarray(d.dpi_plus(t.q0, t.q1, t.S0), dtype=float)
    dminus = np.asarray(d.dpi_minus(t.q0, t.q1, t.S0), dtype=float)
    return dplus[:, :n], -dminus[:, n : 2 * n].T


def omega_embedded(d, t, side):
    """Full (2n+1)-dimensional antisymmetric matrix of omega^{+/-} at t.

    Computed as the exact pullback of the canonical form dq^i ^ dp_i by
    the corresponding discrete Legendre transform, so it carries the
    dq ^ dS block produced by entropy-dependent momenta alongside the
    dq0 ^ dq1 block of `omega_matrices`.
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
    Ap = np.asarray(dpi(t.q0, t.q1, t.S0), dtype=float)
    return Aq.T @ Ap - Ap.T @ Aq


def _flow_jacobian(d, t, cfg, step=1e-4):
    """Richardson-extrapolated central-difference Jacobian of the flow."""
    n = d.n
    dim = 2 * n + 1
    x0 = t.as_array()

    def flow_vec(x):
        return discrete_flow(d, DiscreteTriple.from_array(x, n), cfg).as_array()

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


def pullback_check(d, t, cfg=None, fd_step=1e-4):
    """Defect of the flow-pullback identity on the two-forms.

    Returns ``max |J^T W^-(flow(t)) J - W^+(t)|`` with J the
    finite-difference Jacobian of the flow at t; the identity is exact
    for the analytic flow, so the value measures only discretization of
    J (and Newton tolerance).
    """
    from .solve import NewtonConfig

    cfg = cfg or NewtonConfig()
    image = discrete_flow(d, t, cfg)
    J = _flow_jacobian(d, t, cfg, step=fd_step)
    w_minus = omega_embedded(d, image, "minus")
    w_plus = omega_embedded(d, t, "plus")
    return float(np.max(np.abs(J.T @ w_minus @ J - w_plus)))


# ---------------------------------------------------------------------------
# momentum maps and the discrete Noether condition


def momentum_map(d, t, xi, side):
    """Pairing of a discrete momentum with the generator xi (callable q -> R^n)."""
    p_minus, p_plus = discrete_momenta(d, t)
    if side == "plus":
        return float(p_plus @ np.asarray(xi(t.q1), dtype=float))
    if side == "minus":
        return float(p_minus @ np.asarray(xi(t.q0), dtype=float))
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def noether_condition(d, xi, samples, tol=1e-10):
    """Discrete Noether condition xi(Ld) + f_d(xi) = 0 on sample triples.

    xi acts diagonally on (q0, q1) with zero S-component; the friction
    pairing carries the same 1/2 weights as the variational principle.
    When the condition holds the momentum map is a constant of the
    discrete motion.
    """
    for t in samples:
        theta_minus = np.asarray(d.pi_minus(t.q0, t.q1, t.S0), dtype=float)
        theta_plus = np.asarray(d.pi_plus(t.q0, t.q1, t.S0), dtype=float)
        val = (theta_plus @ np.asarray(xi(t.q1), dtype=float)
               - theta_minus @ np.asarray(xi(t.q0), dtype=float))
        if abs(val) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# the discrete action


def raw_action(d, path):
    """Sum of Ld over the segments of a path (no membership check)."""
    return float(sum(d.Ld(t.q0, t.q1, t.S0) for t in path.triples()))


def discrete_action(d, path, validate=True, constraint_tol=1e-12):
    """Discrete action of a path of the thermodynamic path space."""
    if validate:
        res = path.constraint_residual(d)
        if res > constraint_tol:
            raise ValueError(
                f"path violates the entropy-update constraint (relative residual {res:.3e})"
            )
    return raw_action(d, path)
