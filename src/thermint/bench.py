"""Benchmark harness: reference integrators, error metrics, experiments.

Variational paths come from the implicit Newton solver, the explicit RK2
midpoint rule is the baseline, and the reference is either the exact
oscillator solution or an adaptive embedded Runge-Kutta 4(5) run at tight
tolerance with dense interpolation onto the benchmark grid.  All CSV
output is deterministic: fixed float formatting, no timestamps.
"""

import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .continuous import (ThermoState, Trajectory, _on_floats, _or_on_arrays,
                         equations_of_motion, first_order_rhs)
from .discrete import discrete_momenta, midpoint_discretize
from .errors import ConfigError
from .solve import NewtonConfig, initialize, integrate
from .systems import get_system

__all__ = [
    "rk2_integrate",
    "reference_integrate",
    "hamiltonian_estimates",
    "ExperimentConfig",
    "MethodErrors",
    "ErrorReport",
    "run_experiment",
    "convergence_study",
    "default_newton_tol",
    "load_config",
    "write_trajectory_csv",
    "write_summary_csv",
]

METHODS = ("variational", "rk2", "reference")


def _rk2_step(sys, q, v, S, h):
    """One explicit midpoint (RK2) step on raw (q, v, S)."""
    k1q, k1v, k1S = equations_of_motion(sys, q, v, S)
    k2q, k2v, k2S = equations_of_motion(
        sys, q + 0.5 * h * k1q, v + 0.5 * h * k1v, S + 0.5 * h * k1S)
    return q + h * k2q, v + h * k2v, S + h * k2S


def _rk2_on_arrays(sys, q, v, S, h):
    """`_rk2_step` from the float point (q, v, S), taken on length-1 arrays,
    and its new state as floats."""
    q1, v1, S1 = _rk2_step(sys, np.array([q]), np.array([v]), S, h)
    return float(q1[0]), float(v1[0]), S1


def rk2_integrate(sys, state0, h, N):
    """N RK2 midpoint steps; returns the trajectory on the uniform grid.

    Where `continuous._on_floats` holds (a one-dimensional system with
    ``float_points`` and a closed-form ``accel``), q and v step as Python
    floats, bit for bit the step on length-1 arrays, a step whose new state
    is not finite taken again on them (`continuous._or_on_arrays`), and are
    stored into the one column of the output; any other system steps on
    arrays, two-pistons included.  The RK45 reference
    (`reference_integrate`) evaluates its right-hand side by the same rule.
    Whatever step k raises, numpy's FloatingPointError included, is
    re-raised with ``step_index = k``.
    ``h`` must be positive and finite and ``N`` non-negative.
    """
    if not 0 < h < math.inf:
        raise ConfigError(f"time step must be positive and finite, got {h}")
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    n = sys.n
    qs = np.empty((N + 1, n))
    vs = np.empty((N + 1, n))
    Ss = np.empty(N + 1)
    qs[0], vs[0], Ss[0] = state0.q, state0.v, state0.S
    on_floats = _on_floats(sys)
    if on_floats:
        q_out, v_out = qs[:, 0], vs[:, 0]
        q, v = float(state0.q[0]), float(state0.v[0])
    else:
        q_out, v_out = qs, vs
        q, v = state0.q, state0.v
    S = state0.S
    try:
        for k in range(1, N + 1):
            y = _rk2_step(sys, q, v, S, h)
            q, v, S = _or_on_arrays(y, _rk2_on_arrays, sys, q, v, S, h) if on_floats else y
            q_out[k], v_out[k], Ss[k] = q, v, S
    except Exception as exc:
        exc.step_index = k
        raise
    return Trajectory(h=h, times=h * np.arange(N + 1), qs=qs, vs=vs, Ss=Ss)


def reference_integrate(sys, state0, t_final, rtol=1e-10, atol=1e-10, *, h):
    """Adaptive embedded RK 4(5) reference, densely interpolated onto the grid.

    ``h`` fixes the output grid spacing.  The right-hand side is
    `continuous.first_order_rhs`: on Python floats where
    `continuous._on_floats` holds, as `rk2_integrate` steps, bit for bit the
    evaluation on length-1 arrays, with the same way back to arrays
    (`continuous._or_on_arrays`), and on arrays otherwise.
    """
    # solve_ivp does not end on a NaN or infinite tolerance
    if not all(0 < x < math.inf for x in (rtol, atol, h, t_final)):
        raise ConfigError("rtol, atol, h and t_final must be positive and finite")
    n = sys.n

    from scipy.integrate import solve_ivp

    N = int(round(t_final / h))
    ts = h * np.arange(N + 1)
    y0 = np.concatenate([state0.q, state0.v, [state0.S]])
    # the grid ends past t_final when t_final / h rounds up: integrate over
    # all of it, so the dense output is never extrapolated
    sol = solve_ivp(first_order_rhs(sys), (0.0, max(t_final, ts[-1])), y0, method="RK45",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise ConfigError(f"reference integration failed: {sol.message}")
    ys = sol.sol(ts)
    return Trajectory(h=h, times=ts, qs=ys[:n].T, vs=ys[n : 2 * n].T, Ss=ys[2 * n])


def hamiltonian_estimates(entry, d, path):
    """The three Hamiltonian series along a discrete path.

    For k = 1..N (one value per solver triple):

        H_plus[k-1]  = H(q_k, p_plus(q_{k-1}, q_k, S_{k-1}), S_k)
        H_minus[k-1] = H(q_{k-1}, p_minus(q_{k-1}, q_k, S_{k-1}), S_{k-1})
        H_vel[k-1]   = H(q_k, (q_k - q_{k-1})/h, S_k)

    using the h-scaled discrete momenta and the p = v identification of
    the catalog systems for the velocity estimator.  Each series is one
    call of ``entry.H`` on `DiscretePath.stack`, so ``entry.H`` and ``d``
    must take stacks of points (see `SystemCatalogEntry`).
    """
    t, S1 = path.stack(), path.Ss[1:]
    p_minus, p_plus = discrete_momenta(d, t)
    H = entry.H
    return H(t.q1, p_plus, S1), H(t.q0, p_minus, t.S0), H(t.q1, (t.q1 - t.q0) / d.h, S1)


# ---------------------------------------------------------------------------
# experiment configuration


#: per-system defaults of the keys an ExperimentConfig leaves unset
_DEFAULTS = {
    "oscillator": dict(q0=[0.0], v0=[1.0], S0=0.0, init_mode="exact", t_final=1000.0),
    "ideal-gas": dict(q0=[1.0], v0=[0.0], S0=10.0, init_mode="hold", t_final=100.0),
    "van-der-waals": dict(q0=[1.0], v0=[0.0], S0=10.0, init_mode="hold", t_final=100.0),
    "two-pistons": dict(q0=[1.0, 1.0], v0=[0.2, -0.3], S0=1.0, init_mode="taylor",
                        t_final=100.0),
}


def default_newton_tol(system, h):
    """Newton tolerance sized to the double-precision residual floor.

    The best attainable residual of the implicit step scales like
    ulp(|q|) / h^2, so runs whose coordinates grow large (the expanding
    pistons reach |q| ~ 10^4 on the table horizons) cannot meet the
    oscillator-scale 1e-12; likewise smaller steps raise the floor
    through the 1/h^2 factor.  An h so small that this factor overflows
    is a ConfigError.
    """
    if system in ("ideal-gas", "van-der-waals"):
        base = 3e-8
    elif system == "two-pistons":
        base = 1e-9
    else:
        base = 1e-12
    if h < 0.01:
        try:
            base *= (0.01 / h) ** 2
        except OverflowError:
            base = math.inf
    if base == math.inf:
        raise ConfigError(f"h = {h!r} is too small: the Newton tolerance "
                          f"(0.01 / h)^2 overflows")
    return base


def _kind(what, parse, ok):
    """A kind of config value: ``parse`` reads text or a value, ``ok`` accepts it.

    The kind returns the parsed value, or raises a ConfigError saying that
    the key must be ``what``.
    """
    def kind(value, key):
        try:
            x = parse(value)
            if ok(x):
                return x
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return kind


def _items(value):
    """The entries of comma-separated text, or of a value or sequence."""
    if isinstance(value, str):
        return [part.strip() for part in value.split(",")]
    return np.atleast_1d(value).tolist()


def _not_a_number(value):
    """``value``, unless it reads as a number."""
    try:
        float(value)
    except (TypeError, ValueError):
        return value
    raise ValueError(value)


def _one_of(*names):
    """The kind of a key that takes one of ``names``."""
    return _kind("one of " + ", ".join(names), str, names.__contains__)


_finite = _kind("a finite number", float, math.isfinite)
_positive = _kind("a positive finite number", float, lambda x: 0 < x < math.inf)
_vector = _kind("comma-separated finite numbers",
                lambda value: np.array([float(x) for x in _items(value)]),
                lambda x: np.isfinite(x).all())
_methods = _kind("a non-empty list of " + ", ".join(METHODS),
                 lambda value: tuple(_items(value)), lambda x: x and all(m in METHODS for m in x))

#: the parameters of the catalog factories, which ExperimentConfig keeps in ``params``
FACTORY_KEYS = ("gamma", "c", "a_hat", "b_hat")

#: the kind of every config key
KINDS = {
    "system": _one_of(*_DEFAULTS),
    **dict.fromkeys(("h", "t_final", "newton_tol", "rtol", "atol"), _positive),
    "S0": _finite,
    **dict.fromkeys(("q0", "v0", "q1"), _vector),
    "init_mode": _one_of("exact", "reference", "hold", "taylor"),
    "methods": _methods,
    "out": _kind("a path that is neither blank nor a number", _not_a_number,
                 lambda path: os.fspath(path).strip()),
    **dict.fromkeys(FACTORY_KEYS, _finite),
}


@dataclass
class ExperimentConfig:
    """One benchmark cell: a system, a step size, a horizon, methods.

    Every field takes text or a value: `KINDS` parses each field given,
    so the config file, argv and Python callers meet the same checks, and
    a bad value raises a ConfigError naming its key.  ``params`` holds the
    `FACTORY_KEYS` (None keeps the factory default), and a value the
    factory rejects is a ConfigError too.  Unset fields take the system's
    defaults: h = 0.01, t_final 1000 (oscillator) or 100, `_DEFAULTS`.

    Initial data is either (q0, v0) plus an initialization mode, or an
    explicit second point q1 (the variational method then starts from it
    verbatim; the baselines fall back to v0 = (q1 - q0)/h if no v0 is
    given).
    """

    system: str = "oscillator"
    h: float = None
    t_final: float = None
    params: dict = field(default_factory=dict)
    q0: np.ndarray = None
    v0: np.ndarray = None
    q1: np.ndarray = None
    S0: float = None
    init_mode: str = None
    methods: tuple = ("variational", "rk2")
    out: str = None
    newton_tol: float = None
    rtol: float = 1e-10
    atol: float = 1e-10

    def __post_init__(self):
        for key, kind in KINDS.items():
            if getattr(self, key, None) is not None:
                setattr(self, key, kind(getattr(self, key), key))
        self.params = {k: _finite(v, k) for k, v in self.params.items() if v is not None}
        try:
            entry = get_system(self.system, **self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.system} parameters {self.params}: {exc}") from None
        n = entry.n
        for key in ("q0", "v0", "q1"):
            value = getattr(self, key)
            if value is not None and value.shape != (n,):
                raise ConfigError(f"{key} must have {n} value(s) for system "
                                  f"{self.system!r}, got shape {value.shape}")
        for key, value in {"h": 0.01, **_DEFAULTS[self.system]}.items():
            if getattr(self, key) is None:
                if key == "v0" and self.q1 is not None:
                    value = (self.q1 - self.q0) / self.h
                setattr(self, key, KINDS[key](value, key))
        if self.t_final < self.h:
            raise ConfigError("t_final must be at least h")
        if ("variational" in self.methods and self.q1 is None and self.init_mode == "exact"
                and entry.exact_solution is None):
            raise ConfigError(f"init_mode exact: system {self.system!r} with parameters "
                              f"{self.params} has no exact solution; give q1 or another "
                              f"init_mode")
        if self.newton_tol is None:
            self.newton_tol = default_newton_tol(self.system, self.h)

    @property
    def n_steps(self):
        return int(round(self.t_final / self.h))


def load_config(path):
    """Read a ``key = value`` file (# comments, t-final as t_final) into text values.

    Every key must be one of `KINDS`; `ExperimentConfig` parses the text.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in KINDS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = val
    return out


@dataclass
class MethodErrors:
    """Error metrics of one method against the reference."""

    max_pos_err: float
    max_S_err: float
    H_dev: dict
    runtime: float


@dataclass
class ErrorReport:
    system: str
    h: float
    t_final: float
    methods: dict  # name -> MethodErrors


def _reference(entry, cfg, ts):
    """(q, S) reference arrays on the grid: exact when available.

    The third item is None for the exact solution; otherwise it is the
    RK45 trajectory with its runtime, for the "reference" method to reuse.
    """
    if entry.exact_solution is not None:
        sol = entry.exact_solution(cfg.q0, cfg.v0, cfg.S0)
        return sol.q(ts)[:, None], sol.entropy(ts), None
    t0 = time.perf_counter()
    traj = reference_integrate(entry.lagrangian, ThermoState(cfg.q0, cfg.v0, cfg.S0),
                               cfg.t_final, cfg.rtol, cfg.atol, h=cfg.h)
    return traj.qs, traj.Ss, (traj, time.perf_counter() - t0)


def run_experiment(cfg):
    """Run every configured method and measure errors against the reference.

    Returns an ErrorReport; when ``cfg.out`` is set, one trajectory CSV per
    method plus a summary CSV are written under that directory with
    deterministic bytes.
    """
    entry = get_system(cfg.system, **cfg.params)
    N = cfg.n_steps
    ts = cfg.h * np.arange(N + 1)
    qref, Sref, rk45 = _reference(entry, cfg, ts)
    H0 = entry.H(cfg.q0, cfg.v0, cfg.S0)

    report = ErrorReport(system=cfg.system, h=cfg.h, t_final=cfg.t_final, methods={})
    tables = {}
    for method in cfg.methods:
        t0 = time.perf_counter()
        if method == "variational":
            d = midpoint_discretize(entry.lagrangian, cfg.h)
            if cfg.q1 is not None:
                q0, q1, S0 = cfg.q0, cfg.q1, cfg.S0
            else:
                q0, q1, S0 = initialize(entry, cfg.q0, cfg.v0, cfg.S0, cfg.h, cfg.init_mode)
            path = integrate(d, q0, q1, S0, N, NewtonConfig(tol=cfg.newton_tol))
            qs, Ss = path.qs, path.Ss
            # velocity series (q_k - q_{k-1})/h, v0 at k = 0
            vs = np.concatenate([cfg.v0[None], np.diff(qs, axis=0) / path.h])
            series = dict(zip(("p_plus", "p_minus", "velocity"),
                              hamiltonian_estimates(entry, d, path)))
            Hcols = tuple(np.concatenate([[H0], x]) for x in series.values())
        else:
            state0 = ThermoState(cfg.q0, cfg.v0, cfg.S0)
            if method == "rk2":
                traj = rk2_integrate(entry.lagrangian, state0, cfg.h, N)
            elif rk45 is not None:
                # the error reference is this method's trajectory: reuse it and its time
                traj, seconds = rk45
                t0 -= seconds
            else:
                traj = reference_integrate(entry.lagrangian, state0, cfg.t_final,
                                           cfg.rtol, cfg.atol, h=cfg.h)
            qs, vs, Ss = traj.qs, traj.vs, traj.Ss
            hseries = entry.H(qs, vs, Ss)
            series = {"velocity": hseries}
            Hcols = (hseries, hseries, hseries)
        runtime = time.perf_counter() - t0
        report.methods[method] = MethodErrors(
            max_pos_err=float(np.max(np.abs(qs - qref))),
            max_S_err=float(np.max(np.abs(Ss - Sref))),
            H_dev={k: float(np.max(np.abs(x - H0))) for k, x in series.items()},
            runtime=runtime,
        )
        tables[method] = (ts, qs, vs, Ss) + Hcols

    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        for method, cols in tables.items():
            write_trajectory_csv(os.path.join(cfg.out, f"{cfg.system}_{method}.csv"), *cols)
        write_summary_csv(os.path.join(cfg.out, "summary.csv"), cfg, report)
    return report


def convergence_study(system, h_list, t_final=1000.0, method="variational", params=None):
    """Log-log least-squares order of the max position error in h.

    Returns ``(slope, errors)`` with one error per step size.
    """
    h_list = list(h_list)
    if len(set(h_list)) < 2:
        raise ConfigError("convergence study needs at least two distinct step sizes")
    errors = []
    for h in h_list:
        cfg = ExperimentConfig(system=system, h=h, t_final=t_final,
                               methods=(method,), params=params or {})
        rep = run_experiment(cfg)
        errors.append(rep.methods[method].max_pos_err)
    if min(errors) == 0.0:
        raise ConfigError("a zero position error has no order to fit; lengthen t_final")
    slope = np.polyfit(np.log(h_list), np.log(errors), 1)[0]
    return float(slope), errors


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x):
    return format(float(x), ".17g")


#: rows formatted per write, which bounds the memory one block takes
_CSV_BLOCK_ROWS = 256

#: the magnitudes the trajectory writer formats in numpy; any other value,
#: zero, inf and NaN among them, is formatted by `_fmt`
_CSV_MIN, _CSV_MAX = 1e-200, 1e200

#: the decimal exponents of the tables: floor(log10 |x|) over that range,
#: from -201 (the double nearest 1e-200 lies below it) to 200, where log10
#: or a rounding that carries reaches 1e200
_E_LOW, _E_HIGH = -201, 200

#: y = |x| 10^(16 - E) < 10^17 is computed within 4e-15: hi + lo is
#: 10^(16 - E) within 2^-106 of itself (1.2e-15 of y), rounding |x| lo costs
#: at most 9e-16 and adding it to the exact product's error term 1.8e-15,
#: and wherever floor(y) is in range the product's rounded part is an
#: integer.  A fraction of y further than this from 1/2 rounds y as the
#: exact y does
_TIE_MARGIN = 1e-12

#: bytes of one value and its comma: eight words of four bytes (see
#: `_csv_tables`), the comma at byte `_COMMA`
_SLOT, _COMMA = 32, 30


def _halves(v):
    """v as two halves of 26 bits that add up to it (Veltkamp's split), whose
    products Dekker's exact product adds."""
    split = v * 134217729.0  # 2^27 + 1
    high = split - (split - v)
    return high, v - high


@functools.cache
def _csv_tables():
    """The trajectory writer's tables, built on its first call from integers
    (``int / int`` is correctly rounded).

    - ``powers``: 10^(16 - E) as hi + lo, hi split into two halves of 26
      bits for Dekker's exact product; a column per E from `_E_LOW`.
    - ``point``: where ``%.17g`` puts the point among the 17 digits at E;
      18 for none (E in -4..-1).
    - ``words``: the eight words of four bytes `_csv_rows` gathers for a
      value, in the order written: its sign and the ``0.`` with up to three
      zeros ``%.17g`` writes for E in -4..-1, by E and sign; the end of
      those and the first digit, by E and digit; the four digits of each
      integer below 10^4, for the next sixteen digits; a NUL for the digits
      to move into, ``e`` and the exponent where ``%.17g`` writes one, and
      the comma, two words by E.  `_SIGN_WORDS`, `_LEAD_WORDS` and
      `_EXP_WORDS` index the parts by E after the four digits.
    - ``zeros``: the trailing zeros of every integer below 10^4 as four
      digits.
    - ``keep``, ``moved``, ``dot``: by point and count of digits up to the
      last that is not 0 (``point * 18 + count``), a mask of the bytes that
      stay, a mask of those that take the byte before them (the digits after
      the point move one on), and the point.
    """
    powers, point, lead, exponent = [], [], [], []
    for E in range(_E_LOW, _E_HIGH + 1):
        num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
        hi = num / den
        m, d = hi.as_integer_ratio()
        powers.append((hi, (num * d - m * den) / (den * d)))
        fixed = -4 <= E < 17
        point.append(18 if fixed and E < 0 else E + 1 if fixed else 1)
        lead.append(b"0." + b"0" * (-E - 1) if fixed and E < 0 else b"")
        exponent.append(b"" if fixed else b"e%+03d" % E)
    hi, lo = np.array(powers).T
    lead, exponent = (np.array(b, "S5").view(np.uint8).reshape(-1, 5) for b in (lead, exponent))
    words = np.zeros((_EXP_WORDS + 2 * len(point), 4), np.uint8)
    g = np.arange(10_000, dtype=np.uint16)
    for col, power in enumerate((1000, 100, 10, 1)):
        words[:10_000, col] = ord("0") + g // power % 10
    signs = words[_SIGN_WORDS:_LEAD_WORDS].reshape(-1, 2, 4)
    signs[:, 1, 0] = ord("-")
    signs[..., 1:] = lead[:, None, :3]
    firsts = words[_LEAD_WORDS:_EXP_WORDS].reshape(-1, 10, 4)
    firsts[..., :2] = lead[:, None, 3:]
    firsts[..., 3] = ord("0") + np.arange(10)
    ends = words[_EXP_WORDS:].reshape(-1, 8)
    ends[:, 1:6] = exponent
    ends[:, 6] = ord(",")
    zeros = np.zeros(10_000, np.int8)
    for power in (10, 100, 1000, 10_000):
        zeros += g % power == 0
    # the digits are bytes 7..23 and 24 is free; byte j of those 18 is digit
    # j before the point, the point, or digit j - 1 after it
    at, count, j = np.arange(19)[:, None, None], np.arange(18)[:, None], np.arange(18)
    shown = np.where(at < 18, np.maximum(count, at), count)
    keep, moved, dot = np.zeros((3, 19, 18, _SLOT), np.uint8)
    keep[..., 7:25] = (j < at) & (j < shown)
    moved[..., 7:25] = (j > at) & (j <= shown)
    dot[..., 7:25] = (j == at) & (shown > at)
    keep *= 255
    keep[..., :7] = keep[..., 25:] = 255
    moved *= 255
    dot *= ord(".")
    words = words.view(np.uint32).ravel()
    tables = (np.array([hi, *_halves(hi), lo]), np.array(point), words, zeros,
              *(table.reshape(-1, _SLOT) for table in (keep, moved, dot)))
    for table in tables:
        table.flags.writeable = False
    return tables


#: where each part of `_csv_tables`' ``words`` starts
_SIGN_WORDS = 10_000
_LEAD_WORDS = _SIGN_WORDS + 2 * (_E_HIGH - _E_LOW + 1)
_EXP_WORDS = _LEAD_WORDS + 10 * (_E_HIGH - _E_LOW + 1)


def _digits(x):
    """Where ``ok``, the 17 digits ``%.17g`` writes for x as an integer D in
    [10^16, 10^17) and the row i of their exponent in `_csv_tables`; see
    `write_trajectory_csv`."""
    powers = _csv_tables()[0]
    a = np.abs(x)
    ok = (a >= _CSV_MIN) & (a < _CSV_MAX)
    a = np.where(ok, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _E_LOW
    # y = p + t: p + e = a hi exactly (Dekker's TwoProduct), t = e + a lo
    hi, hi1, hi2, lo = powers.take(i, axis=1)
    a1, a2 = _halves(a)
    p = a * hi
    t = (((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2) + a * lo
    floor_p = np.floor(p)
    r = (p - floor_p) + t
    floor_r = np.floor(r)
    frac = r - floor_r
    F = floor_p.astype(np.int64) + floor_r.astype(np.int64)
    # floor(y) outside [10^16, 10^17): log10 missed E, and y holds 16 or 18 digits
    ok &= (F >= 10 ** 16) & (F < 10 ** 17) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    D = np.where(ok, F + (frac > 0.5), 10 ** 16)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    return ok, i + carry, D


def _csv_rows(values):
    """The CSV rows of a float array (rows x columns), each value with
    `_fmt`'s bytes; see `write_trajectory_csv`."""
    _, point, words, zeros, keep, moved, dot = _csv_tables()
    x = values.ravel()
    ok, i, D = _digits(x)
    # the eight words of each value, and the trailing zeros of its digits:
    # D ends as its first digit
    out = np.empty((x.size, 8), np.uint32)
    trailing, zero = 0, True
    for col in (5, 4, 3, 2):
        D, group = np.divmod(D, 10_000)
        out[:, col] = words.take(group)
        z = zeros.take(group)
        trailing = trailing + zero * z
        zero = zero & (z == 4)
    out[:, 0] = words.take(_SIGN_WORDS + 2 * i + (x < 0))
    out[:, 1] = words.take(_LEAD_WORDS + 10 * i + D)
    out[:, 6] = words.take(_EXP_WORDS + 2 * i)
    out[:, 7] = words.take(_EXP_WORDS + 2 * i + 1)
    k = point.take(i) * 18 + (17 - trailing)
    # each byte where it is, or one on for a digit after the point
    out = out.view(np.uint8)
    after = np.empty_like(out)
    after.ravel()[1:] = out.ravel()[:-1]
    out &= keep.take(k, axis=0)
    after &= moved.take(k, axis=0)
    out |= after
    out |= dot.take(k, axis=0)
    rest = np.flatnonzero(~ok)
    if rest.size:
        out[rest, :_COMMA] = np.array([_fmt(v) for v in x[rest].tolist()],
                                      f"S{_COMMA}").view(np.uint8).reshape(-1, _COMMA)
    out.reshape(values.shape + (_SLOT,))[:, -1, _COMMA] = 10
    return out.tobytes().translate(None, b"\0")


def write_trajectory_csv(path, ts, qs, vs, Ss, Hp, Hm, Hv):
    """Trajectory CSV: t, q_1..q_n, v_1..v_n, S, H_plus, H_minus, H_vel.

    Every value has the bytes of ``%.17g`` (`_fmt`), formatted in numpy a
    block of `_CSV_BLOCK_ROWS` rows at a time.  For 1e-200 <= |x| < 1e200,
    E = floor(log10 |x|) picks 10^(16 - E) from a table of double-double
    powers of ten, and Dekker's exact product gives y = |x| 10^(16 - E)
    within 4e-15; its nearest integer holds the 17 digits ``%.17g``
    prints (10^17 carries into the next power of ten), which are laid out
    as ``%.17g`` does: the sign, ``0.`` and up to three zeros for E in
    -4..-1, the point, trailing zeros dropped, ``e`` and the exponent
    outside -4 <= E < 17.  `_fmt` formats every value this does not
    settle: zero, inf, NaN, any |x| outside that range, a fraction of y
    within `_TIE_MARGIN` of 1/2, and a floor(y) outside [10^16, 10^17),
    where log10 missed E.  So every byte is `_fmt`'s whatever a last bit of
    ``np.log10`` is.
    """
    n = qs.shape[1]
    header = (["t"] + [f"q_{i+1}" for i in range(n)] + [f"v_{i+1}" for i in range(n)]
              + ["S", "H_plus", "H_minus", "H_vel"])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(ts), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([ts[rows], qs[rows], vs[rows], Ss[rows],
                                     Hp[rows], Hm[rows], Hv[rows]])
            fh.write(_csv_rows(block.astype(float, copy=False)))


def write_summary_csv(path, cfg, report):
    """Summary CSV: system,method,h,max_pos_err,max_S_err,max_H_dev."""
    with open(path, "w", newline="\n") as fh:
        fh.write("system,method,h,max_pos_err,max_S_err,max_H_dev\n")
        for method in cfg.methods:
            me = report.methods[method]
            primary = me.H_dev.get("p_plus", me.H_dev["velocity"])
            fh.write(",".join([cfg.system, method, _fmt(cfg.h), _fmt(me.max_pos_err),
                               _fmt(me.max_S_err), _fmt(primary)]) + "\n")
