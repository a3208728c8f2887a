"""Pointwise linear algebra of almost/partially cosymplectic structures.

A structure at a point of a (2n+1)-dimensional phase space (coordinates
ordered q^1..q^n, p_1..p_n, S throughout) is a pair (omega, eta) of an
antisymmetric 2-form and a 1-form.  Everything here is plain numpy linear
algebra on that coordinate basis.

Sign conventions (fixed here, asserted by the cosymplectic trivial case in
the tests):

* the matrix ``W`` of omega acts as ``omega(u, v) = u @ W @ v``; the
  canonical form dq^i ^ dp_i has the block matrix [[0, I, 0], [-I, 0, 0],
  [0, 0, 0]];
* covector/vector pairing is the plain dot product;
* the flat map sends a vector ``v`` to the covector
  ``flat(v) = W.T @ v + (eta @ v) * eta``, i.e. iota_v omega + eta(v) eta.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructureDegenerateError, TemperatureDegenerateError

__all__ = [
    "PointStructure",
    "HamiltonianPoint",
    "canonical_omega",
    "assemble_structure",
    "flat_matrix",
    "reeb_field",
    "evolution_field",
    "evolution_field_coordinates",
    "contact_evolution_field",
    "structure_defect",
]

#: relative condition-number bound beyond which a flat matrix is treated
#: as singular
_COND_LIMIT = 1e12


def canonical_omega(n):
    """Matrix of dq^i ^ dp_i on the (2n+1)-dimensional space."""
    W = np.zeros((2 * n + 1, 2 * n + 1))
    W[:n, n : 2 * n] = np.eye(n)
    W[n : 2 * n, :n] = -np.eye(n)
    return W


@dataclass(frozen=True)
class PointStructure:
    """(omega, eta) at a single point: an antisymmetric matrix of odd size plus a covector.
    Its flat matrix is formed once, at the first field solved from it, so W and eta
    are not changed in place after that."""

    W: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        size = W.shape[0] if W.ndim == 2 else -1
        if W.shape != (size, size) or eta.shape != (size,):
            raise ValueError("W must be a square matrix and eta a covector of its size")
        if size % 2 != 1:
            raise ValueError(f"dimension must be odd, got {size}")
        # a NaN entry makes the defect NaN, which fails the check
        if not np.max(np.abs(W + W.T)) <= 1e-14 * max(1.0, np.max(np.abs(W))):
            raise ValueError("W is not antisymmetric")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "eta", eta)

    @property
    def n(self):
        return (self.W.shape[0] - 1) // 2

    @cached_property
    def _flat(self):
        """`flat_matrix` of the structure, formed and checked once:
        StructureDegenerateError where its condition number exceeds
        `_COND_LIMIT` (a degenerate structure raises at every reading)."""
        B = flat_matrix(self)
        if np.linalg.cond(B) > _COND_LIMIT:
            raise StructureDegenerateError(
                "flat map singular: (omega, eta) not almost cosymplectic here"
            )
        return B


@dataclass(frozen=True)
class HamiltonianPoint:
    """State plus Hamiltonian data needed to assemble the structure.

    ``dH`` holds the coefficients of dH in the (dq, dp, dS) basis;
    ``Ffr``/``Fext`` the dq-components of the semibasic force one-forms.
    """

    q: np.ndarray
    p: np.ndarray
    S: float
    dH: np.ndarray
    Ffr: np.ndarray
    Fext: np.ndarray = None

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        n = q.shape[0]
        dH = np.asarray(self.dH, dtype=float)
        Ffr = np.atleast_1d(np.asarray(self.Ffr, dtype=float))
        Fext = self.Fext
        Fext = np.zeros(n) if Fext is None else np.atleast_1d(np.asarray(Fext, dtype=float))
        if p.shape != (n,) or dH.shape != (2 * n + 1,) or Ffr.shape != (n,) or Fext.shape != (n,):
            raise ValueError("inconsistent component shapes")
        for name, val in (("q", q), ("p", p), ("dH", dH), ("Ffr", Ffr), ("Fext", Fext)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "S", float(self.S))

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def dHdS(self):
        return self.dH[-1]


def assemble_structure(pt):
    """Build the (omega, eta) structure of a Hamiltonian point.

    eta = -dH/dS dS - Ffr_i dq^i, omega the canonical form.  Requires a
    nonzero dH/dS (nonzero temperature).
    """
    if pt.dHdS == 0.0:
        raise TemperatureDegenerateError(
            "dH/dS vanishes: structure undefined at absolute zero"
        )
    n = pt.n
    eta = np.zeros(2 * n + 1)
    eta[:n] = -pt.Ffr
    eta[-1] = -pt.dHdS
    return PointStructure(W=canonical_omega(n), eta=eta)


def flat_matrix(s):
    """Matrix of v -> iota_v omega + eta(v) eta.

    Invertible exactly when (omega, eta) is almost cosymplectic at the
    point; singularity is left to the caller to detect.
    """
    return s.W.T + np.outer(s.eta, s.eta)


def reeb_field(s):
    """Reeb vector R with iota_R omega = 0 and eta(R) = 1 (= flat^-1 eta)."""
    return np.linalg.solve(s._flat, s.eta)


def evolution_field(s, pt):
    """Evolution vector of H subject to external forces, via the flat map.

    Solves flat(E) = dH + eta - Fext; E satisfies eta(E) = 0 and
    iota_E omega = dH - R(H) eta - Fext.
    """
    rhs = pt.dH + s.eta
    rhs[: pt.n] -= pt.Fext
    return np.linalg.solve(s._flat, rhs)


def evolution_field_coordinates(pt):
    """Closed-form coordinate expression of the evolution vector field.

    Independent of the flat-map route; used to cross-check conventions.
    """
    if pt.dHdS == 0.0:
        raise TemperatureDegenerateError("dH/dS vanishes")
    n = pt.n
    Hq = pt.dH[:n]
    Hp = pt.dH[n : 2 * n]
    E = np.empty(2 * n + 1)
    E[:n] = Hp
    E[n : 2 * n] = pt.Ffr + pt.Fext - Hq
    E[-1] = -(Hp @ pt.Ffr) / pt.dHdS
    return E


def contact_evolution_field(pt):
    """Contact evolution field Y_H of the frictional special case.

    With Ffr_i = -p_i dH/dS the thermodynamic evolution field reduces to
    the contact one; this returns that closed form for cross-checking.
    """
    n = pt.n
    Hq = pt.dH[:n]
    Hp = pt.dH[n : 2 * n]
    Y = np.empty(2 * n + 1)
    Y[:n] = Hp
    Y[n : 2 * n] = -(Hq + pt.p * pt.dHdS)
    Y[-1] = pt.p @ Hp
    return Y


def structure_defect(pt):
    """Largest defect of the structure identities at a Hamiltonian point.

    The identities are: the flat-map evolution field equals its coordinate
    form, eta(E) = 0, iota_R omega = 0, eta(R) = 1 and flat(R) = eta.  The
    flat matrix is formed and checked once for E and R.
    """
    s = assemble_structure(pt)
    E = evolution_field(s, pt)
    R = reeb_field(s)
    return float(max(np.max(np.abs(E - evolution_field_coordinates(pt))), abs(s.eta @ E),
                     np.max(np.abs(s.W.T @ R)), abs(s.eta @ R - 1.0),
                     np.max(np.abs(s._flat @ R - s.eta))))
