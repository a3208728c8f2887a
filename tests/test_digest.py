"""Frozen bytes of the deterministic CSV output and of the references.

The sha256 digests pin every byte of the variational, RK2 and reference
columns and of the summary rows: any change to the arithmetic of the
stepping kernel, the RK2 step or the reference integration changes them.
They also pin the exact oscillator reference (q, v and the quadrature
entropy of ``DampedOscillatorSolution`` on a 2501-point grid, with a
float time giving the same bits as an array time) and the RK2 and RK45
trajectories of the Van der Waals gas and of a system whose right-hand
side solves its velocity Hessian, the values of every catalog callable
at seeded points, and the discrete two-forms of every catalog system at
seeded triples, and the two Legendre covectors, the entropy increment and the
triple pass of every catalog system at seeded triples.  The digests depend on the numpy/scipy builds they were
recorded with (numpy 2.4, scipy 1.17).  Horizons are short so the file
runs in a few seconds.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from thermint import (DiscreteTriple, ExperimentConfig, LagrangianThermoSystem, ThermoState,
                      get_system, initialize, midpoint_discretize, omega_embedded,
                      reference_integrate, rk2_integrate, run_experiment)
from thermint.systems import DampedOscillatorSolution, _gk21, hamiltonian_point

METHODS = ("variational", "rk2", "reference")

DIGESTS = {
    ("oscillator", 0.1, 50.0): {
        "oscillator_reference.csv":
            "e7852f581b8a1bd651ad2ca55dbd0cd67643769441bce73180c6047831a811ba",
        "oscillator_rk2.csv":
            "a8a1414eced415651b47966393595af6e2b6e0e4d5cacbc9b258130477fbbab3",
        "oscillator_variational.csv":
            "180968e78766c8538f262241aca1f77a783d2be771a61997c7d38176bc4a11f9",
        "summary.csv":
            "2e2a16a6bdcf68a35804218f4c663bf74b40ff3885413aa19c58c4526822e055",
    },
    ("ideal-gas", 0.01, 5.0): {
        "ideal-gas_reference.csv":
            "ac840d5bcfcade820b346626fba74a9013e166f7fc342823a6f5fc7ef2509712",
        "ideal-gas_rk2.csv":
            "8fffb3216fd78a019c66944e1ba59556682124e68cdb7caf961ff7973f00f663",
        "ideal-gas_variational.csv":
            "5ae192977a8c8e2f8efa25028ec35952a33060ad5b170efeca92d6a3efda480b",
        "summary.csv":
            "2e930067d1321bf04df94976907aa96ec6c626058348b9fc5093d2aa05ac2d8e",
    },
    ("two-pistons", 0.01, 5.0): {
        "two-pistons_reference.csv":
            "675d27a62858cac4dcf70f25cf3d44c4564263c083e755b744f0838184a7b186",
        "two-pistons_rk2.csv":
            "715a966984023ff206d63c317401a4e5900d9323531d38842112b375fb937431",
        "two-pistons_variational.csv":
            "faa107e331f859d851bca12ab8f48e445be8ae6b29ae43740780f15843f41eaa",
        "summary.csv":
            "baa85c36a2ec87280953d7a07a5ea185166bbe16a7bc1a5468bafe324f1581de",
    },
}

# q1 of initialize(entry, [1]*n, [0.2]*n, 0.5, 0.01, "reference")
REFERENCE_INIT = {
    "oscillator": ["0x1.007fba86f39f2p+0"],
    "ideal-gas": ["0x1.00869a5b1c1fbp+0"],
    "two-pistons": ["0x1.008423ab5eaadp+0", "0x1.008423ab5eaadp+0"],
}


# the Van der Waals cell, recorded like DIGESTS; it pins the gas's H columns
VDW_DIGESTS = {
    ("van-der-waals", 0.01, 5.0): {
        "van-der-waals_reference.csv":
            "1e078cc3fc8c2eee082fd73a00f7175606868f33b293874ba537e3d1677b0c7b",
        "van-der-waals_rk2.csv":
            "57edf07b21070efc24efb4e9f8598c60ba5fb093c2f97ff62a4a353aabcb0c0e",
        "van-der-waals_variational.csv":
            "fd3e63d8f55deccdb45e40fc0cc689b8cfc71fa240b90571203126d78925e41e",
        "summary.csv":
            "f2a2024e50c30e1080b39a65c1c95fa0632efa61ea82f89f39977540c8f96b8e",
    },
}


def _assert_csv_digests(cell, digests, tmp_path):
    system, h, t_final = cell
    run_experiment(ExperimentConfig(system=system, h=h, t_final=t_final, methods=METHODS,
                                    out=str(tmp_path)))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)


@pytest.mark.parametrize("cell", sorted(DIGESTS))
def test_csv_bytes_frozen(cell, tmp_path):
    _assert_csv_digests(cell, DIGESTS[cell], tmp_path)


@pytest.mark.parametrize("cell", sorted(VDW_DIGESTS))
def test_van_der_waals_csv_bytes_frozen(cell, tmp_path):
    _assert_csv_digests(cell, VDW_DIGESTS[cell], tmp_path)


@pytest.mark.parametrize("system", sorted(REFERENCE_INIT))
def test_reference_initialization_frozen(system):
    entry = get_system(system)
    _, q1, _ = initialize(entry, [1.0] * entry.n, [0.2] * entry.n, 0.5, 0.01, "reference")
    assert [float(x).hex() for x in q1] == REFERENCE_INIT[system]


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


EXACT_TIMES = 0.01 * np.arange(2501)

# q(ts), v(ts), entropy(ts) of DampedOscillatorSolution(0.1, q0, v0, S0) on EXACT_TIMES
EXACT_REFERENCE = {
    (0.0, 1.0, 0.0): {
        "q":
            "45e3c927b4f47483f367e57401de6b8e51ffc41210b3b7326c6515a10cae4a2e",
        "v":
            "271ae91206ffd9c2c1c47267441d9f12a26c73b0459f094385a9fba08f9f735f",
        "entropy":
            "9b1d187d17934ac9c20455c574f2ca239fe54c2d2cb9fde0dab19d66a0a7e66e",
    },
    (0.3, -0.7, 1.5): {
        "q":
            "108ee5847c472305c8369ca4a23a9f4ed59d3e50452e739d291c223c1a3b3105",
        "v":
            "9071e36373d540872d288d50cd7d89569d98a0d5706a16f4ac3543c219ca90a5",
        "entropy":
            "768f8b51a4025e774f2c0af70ba79e771b234308a57b96204b7c94fe5e8e3063",
    },
}


@pytest.mark.parametrize("start", sorted(EXACT_REFERENCE))
def test_exact_reference_frozen(start):
    sol = DampedOscillatorSolution(0.1, *start)
    got = {"q": _sha256(sol.q(EXACT_TIMES)), "v": _sha256(sol.v(EXACT_TIMES)),
           "entropy": _sha256(sol.entropy(EXACT_TIMES))}
    assert got == EXACT_REFERENCE[start]


def test_exact_reference_scalar_matches_array():
    # entropy evaluates the integrand v ** 2 in one array call, which must give
    # the bits of each float call: squared by np.float_power, as a numpy
    # scalar's ** squares (array ** squares as np.square, which differs)
    sol = DampedOscillatorSolution(0.1, 0.3, -0.7, 1.5)
    for t in np.random.default_rng(7).uniform(0.0, 1000.0, 1000):
        t = float(t)
        assert sol.v(t).hex() == sol.v(np.array([t]))[0].hex()
        assert sol.q(t).hex() == sol.q(np.array([t]))[0].hex()
        assert (sol.v(t) ** 2).hex() == np.float_power(sol.v(np.array([t])), 2)[0].hex()


def _count_float_calls_of_v(sol):
    """Wrap ``sol.v`` on the instance; the returned list grows by one at each
    call with a float time, which ``entropy`` makes only on an interval its
    first rule does not settle."""
    calls, v = [], sol.v

    def counted(t):
        if isinstance(t, float):
            calls.append(t)
        return v(t)

    sol.v = counted
    return calls


def _entropy_per_interval(sol, ts):
    """The entropy reference as one plain `quad` call per grid interval."""
    from scipy.integrate import quad

    out, acc, prev = [], sol.S0, 0.0
    for t in ts.tolist():
        if t != prev:
            val, _ = quad(lambda u: sol.v(u) ** 2, prev, t, epsabs=1e-13, epsrel=1e-13,
                          limit=200)
            acc += val
            prev = t
        out.append(acc)
    return np.array(out)


def test_exact_entropy_matches_per_interval_quadrature():
    # an irregular grid over more than one table block: a first time above 0,
    # repeated times, unequal spacing and a few long intervals, which quad
    # bisects, so some of its nodes fall outside the table
    rng = np.random.default_rng(17)
    ts = np.sort(np.concatenate([rng.uniform(0.25, 60.0, 500), [3.0, 3.0, 3.0, 60.0],
                                 [70.0, 78.5, 90.0]]))
    ts = np.repeat(ts, rng.integers(1, 3, ts.size))
    assert ts[0] > 0 and np.any(np.diff(ts) == 0) and ts.size > 600
    sol = DampedOscillatorSolution(0.1, 0.3, -0.7, 1.5)
    oracle = _entropy_per_interval(sol, ts)
    fallbacks = _count_float_calls_of_v(sol)
    assert sol.entropy(ts).tobytes() == oracle.tobytes()
    assert fallbacks


def test_exact_entropy_edge_grids():
    # grids a block of the rule could mishandle: nothing to add, S0 = -0.0
    # with only empty intervals, a decreasing grid, a 40 s interval as the
    # last of a block and as the first of the next, and times that are not
    # finite, which quad takes with its own warnings, as it did per interval
    sol = DampedOscillatorSolution(0.1, 0.3, -0.7, -0.0)
    assert sol.entropy([]).shape == (0,)
    assert sol.entropy([0.0, 0.0]).tobytes() == np.array([-0.0, -0.0]).tobytes()
    grids = [np.linspace(30.0, 0.0, 700)]
    for k in (255, 256):
        grids.append(0.01 * np.arange(600) + np.where(np.arange(600) >= k, 40.0, 0.0))
    for ts in grids:
        assert sol.entropy(ts).tobytes() == _entropy_per_interval(sol, ts).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="invalid value encountered in multiply"):
            sol.entropy([0.0, 1.0, np.inf, 2.0])
        with pytest.raises(IntegrationWarning):
            sol.entropy([0.0, 1.0, np.nan, 2.0])


@pytest.mark.parametrize("start", sorted(EXACT_REFERENCE))
def test_exact_entropy_nodes_are_tabled(start, monkeypatch):
    # QUADPACK's first rule settles every EXACT_TIMES interval, so entropy
    # calls quad on none of them, and on each one quad of the float integrand
    # v(u) ** 2 returns the rule's bits: a scipy whose rule moved fails here
    # instead of only running slower
    import scipy.integrate

    quad, calls = scipy.integrate.quad, []

    def recording_quad(f, a, b, **kwargs):
        calls.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", recording_quad)
    sol = DampedOscillatorSolution(0.1, *start)
    sol.entropy(EXACT_TIMES)
    assert calls == []
    lows, highs = EXACT_TIMES[:-1], EXACT_TIMES[1:]
    rule, settled = _gk21(lambda u: np.float_power(sol.v(u), 2.0), lows, highs)
    assert settled.all()
    per_interval = [quad(lambda u: sol.v(u) ** 2, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                    for lo, hi in zip(lows.tolist(), highs.tolist())]
    assert np.array(per_interval).tobytes() == rule.tobytes()


def _variable_mass():
    # L = (1 + q^2 + S/10) v^2 / 2 - q^2 / 2 - S with no closed-form acceleration
    # and no second partials: the right-hand side solves a finite-difference
    # velocity Hessian with finite-difference q and S mixed partials
    return LagrangianThermoSystem(
        n=1,
        L=lambda q, v, S: 0.5 * (1.0 + q[0] ** 2 + 0.1 * S) * v[0] ** 2 - 0.5 * q[0] ** 2 - S,
        dLdq=lambda q, v, S: q * v[0] ** 2 - q,
        dLdv=lambda q, v, S: (1.0 + q[0] ** 2 + 0.1 * S) * v,
        dLdS=lambda q, v, S: 0.05 * v[0] ** 2 - 1.0,
        Ffr=lambda q, v, S: -0.1 * v,
        name="variable-mass",
    )


BASELINE_CELLS = {
    "van-der-waals": (lambda: get_system("van-der-waals").lagrangian, [1.0], [0.0], 10.0),
    "variable-mass": (_variable_mass, [0.5], [0.4], 0.0),
}

# times, qs, vs, Ss of rk2_integrate (h = 0.01, 500 steps) and of
# reference_integrate (t_final = 5, grid h = 0.01)
BASELINES = {
    ("van-der-waals", "rk2"):
        "2fb611c77de24c93fba354824f53edd451b114722d5d51cd78a29f053d9f5bae",
    ("van-der-waals", "reference"):
        "978948015fb9da747beac6dfc34491473b7a151ec036a14199969b791db55b8d",
    ("variable-mass", "rk2"):
        "bd6e686dccd938cdf4765993607b38b2863f59be4a20cc3c0037ca00289873b0",
    ("variable-mass", "reference"):
        "8de5ebea69f2bc0869765b2ebb12ffb79c7a729b73a5f2939396722e7dbaa781",
}


@pytest.mark.parametrize("cell", sorted(BASELINES))
def test_baseline_trajectories_frozen(cell):
    name, method = cell
    make, q0, v0, S0 = BASELINE_CELLS[name]
    state0 = ThermoState(q0, v0, S0)
    if method == "rk2":
        traj = rk2_integrate(make(), state0, 0.01, 500)
    else:
        traj = reference_integrate(make(), state0, 5.0, h=0.01)
    assert _sha256(traj.times, traj.qs, traj.vs, traj.Ss) == BASELINES[cell]


LAGRANGIAN_FIELDS = ("L", "dLdq", "dLdv", "dLdS", "Ffr", "d2Ldq2", "d2Ldv2", "d2LdqdS",
                     "d2LdvdS", "dFfrdq", "dFfrdv", "dFfrdS", "accel")
STACK_FIELDS = ("L", "dLdq", "dLdv", "dLdS", "Ffr", "H")


def _catalog_values(entry):
    """Every catalog callable at 200 seeded points (p = v), then the
    Hamiltonian partials dH/dq, dH/dp, dH/dS and the friction of
    `hamiltonian_point` at those points, then the stack-capable callables
    on the same points as one stack."""
    rng = np.random.default_rng(41)
    q = rng.uniform(0.6, 1.6, (200, entry.n))
    v = rng.uniform(-1.0, 1.0, (200, entry.n))
    S = rng.uniform(0.0, 2.0, 200)
    fns = {f: getattr(entry.lagrangian, f) for f in LAGRANGIAN_FIELDS}
    fns["H"] = entry.H
    points = {f: np.array([fn(q[k], v[k], float(S[k])) for k in range(200)])
              for f, fn in fns.items()}
    n = entry.n
    pts = [hamiltonian_point(entry, q[k], v[k], float(S[k])) for k in range(200)]
    partials = [np.array([pt.dH[:n] for pt in pts]), np.array([pt.dH[n : 2 * n] for pt in pts]),
                np.array([pt.dH[-1] for pt in pts]), np.array([pt.Ffr for pt in pts])]
    # a value that does not depend on the point may come back unbroadcast
    stacks = [np.broadcast_to(np.asarray(fns[f](q, v, S), dtype=float), points[f].shape)
              for f in STACK_FIELDS]
    return list(points.values()) + partials + stacks


# sha256 of _catalog_values(get_system(name)), recorded before the catalog
# was declared through its potential terms: it pins the bits of the second
# partials, the friction Jacobians and the closed-form acceleration, which
# never reach a CSV, and of every Hamiltonian-side callable
CATALOG_DIGESTS = {
    "ideal-gas":
        "b73c555cdd9215cd4f637e38b158a1257c76cdf94787ddbd2967c7a3ad6bb1f8",
    "oscillator":
        "26e337c80f091d63dacce961e73a6302d7ea184eb7a53f8988a8360c8179a5ef",
    "two-pistons":
        "94871ac09b7fa4c509e8de86e0f9819b4e8d35fa9e6c46d25d43dae16a448cc7",
    "van-der-waals":
        "e338589e2530ec6ed6c1d97e86ad856d8a7cdf633055b1ebba3c891f7de8dbea",
}


@pytest.mark.parametrize("name", sorted(CATALOG_DIGESTS))
def test_catalog_callables_frozen(name):
    assert _sha256(*_catalog_values(get_system(name))) == CATALOG_DIGESTS[name]


def _two_forms(entry):
    """omega_embedded on both sides at 15 seeded triples of the midpoint
    discretization at h = 0.01; no Newton solve is involved."""
    d = midpoint_discretize(entry.lagrangian, 0.01)
    rng = np.random.default_rng(43)
    q0 = rng.uniform(0.6, 1.6, (15, entry.n))
    q1 = q0 + rng.uniform(-0.05, 0.05, (15, entry.n))
    S0 = rng.uniform(0.0, 2.0, 15)
    triples = [DiscreteTriple(q0[k], q1[k], S0[k]) for k in range(15)]
    return [omega_embedded(d, t, side) for t in triples for side in ("plus", "minus")]


# sha256 of _two_forms(get_system(name)), recorded while the two-forms were
# assembled from twelve separate second-partial and friction-Jacobian fields
TWOFORM_DIGESTS = {
    "ideal-gas":
        "297c97a6fe535ba176ae82b84e70b8beb602752bf1400cd7ec65838c2aef47e8",
    "oscillator":
        "90764da1989e98aec5a37b1aa95d1fbaba5a7db614a786fc8b06b937d1fc877d",
    "two-pistons":
        "6e2d6ab9063c7cc8d122ed09fad98f5a6a3f71d70ddacd9891a15ada4ba27572",
    "van-der-waals":
        "0b6604e1bf833bcebae6308346693197f7854712eb5a606fc65e75ac2965ef18",
}


@pytest.mark.parametrize("name", sorted(TWOFORM_DIGESTS))
def test_two_forms_frozen(name):
    assert _sha256(*_two_forms(get_system(name))) == TWOFORM_DIGESTS[name]


def _covector_values(d):
    """pi_minus, pi_plus and the entropy increment, then the triple pass's
    pi_minus and its rest (pi_plus, S1 - S0), at 30 seeded triples of the
    discretization d: as float points (n = 1 only), as arrays, then as one
    stack of the same 30 triples."""
    n = d.n
    rng = np.random.default_rng(47)
    q0 = rng.uniform(0.6, 1.6, (30, n))
    q1 = q0 + rng.uniform(-0.05, 0.05, (30, n))
    S0 = rng.uniform(0.0, 2.0, 30)

    def values(a, b, s):
        pi, rest, args = d.triple_pass(a, b, s)
        return [d.pi_minus(a, b, s), d.pi_plus(a, b, s), d.entropy_increment(a, b, s), pi,
                *rest(*args)]

    points = [(q0[k], q1[k], float(S0[k])) for k in range(30)]
    if n == 1:
        points = [(float(a[0]), float(b[0]), s) for a, b, s in points] + points
    return [x for p in points for x in values(*p)] + values(q0, q1, S0)


def _covector_systems(name):
    """The midpoint rule of a catalog system at h = 0.01, the same without
    float points (the oscillator and the ideal gas) and its generic kernel."""
    d = midpoint_discretize(get_system(name).lagrangian, 0.01)
    systems = {"midpoint": d,
               "generic": dataclasses.replace(d, pi_minus=None, pi_plus=None, pi_minus_dq1=None,
                                              entropy_increment=None, triple_pass=None)}
    if name in ("oscillator", "ideal-gas"):
        arrays = dataclasses.replace(get_system(name).lagrangian, float_points=False)
        systems["arrays"] = midpoint_discretize(arrays, 0.01)
    return systems


# sha256 of _covector_values per discretization, recorded while each
# covector and the entropy increment had a builder of its own beside the
# triple pass; the three kinds of one system agree in every bit
COVECTOR_DIGESTS = {
    ("ideal-gas", "arrays"):
        "e02ae685f2f42da8e1c18c7c3dfa6234ae07dbee4cfd2302111fad0bc853d696",
    ("ideal-gas", "generic"):
        "e02ae685f2f42da8e1c18c7c3dfa6234ae07dbee4cfd2302111fad0bc853d696",
    ("ideal-gas", "midpoint"):
        "e02ae685f2f42da8e1c18c7c3dfa6234ae07dbee4cfd2302111fad0bc853d696",
    ("oscillator", "arrays"):
        "94f8d53347eb89cc242c758cd2fd72c73c0b6301becbc8ed116a405f365e8ea3",
    ("oscillator", "generic"):
        "94f8d53347eb89cc242c758cd2fd72c73c0b6301becbc8ed116a405f365e8ea3",
    ("oscillator", "midpoint"):
        "94f8d53347eb89cc242c758cd2fd72c73c0b6301becbc8ed116a405f365e8ea3",
    ("two-pistons", "generic"):
        "e52df09df49477ce2ceb6d32c26716550bf68490e5253f1dd15b7d8464729cba",
    ("two-pistons", "midpoint"):
        "e52df09df49477ce2ceb6d32c26716550bf68490e5253f1dd15b7d8464729cba",
    ("van-der-waals", "generic"):
        "c9181259906b84f3fa2812b5b6808c286bd1fe4e5e94a098f57ecc28661bcc27",
    ("van-der-waals", "midpoint"):
        "c9181259906b84f3fa2812b5b6808c286bd1fe4e5e94a098f57ecc28661bcc27",
}


@pytest.mark.parametrize("name,kind", sorted(COVECTOR_DIGESTS))
def test_covectors_frozen(name, kind):
    d = _covector_systems(name)[kind]
    values = _covector_values(d)
    if d.n == 1:
        # the 30 float points come first, six values each
        assert {type(x) for x in values[:180]} == {float}
    assert _sha256(*values) == COVECTOR_DIGESTS[name, kind]
