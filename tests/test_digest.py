"""Frozen bytes of the deterministic CSV output and of the references.

The sha256 digests pin every byte of the variational, RK2 and reference
columns and of the summary rows: any change to the arithmetic of the
stepping kernel, the RK2 step or the reference integration changes them.
They also pin the exact oscillator reference (q, v and the quadrature
entropy of ``DampedOscillatorSolution`` on a 2501-point grid, with a
float time giving the same bits as an array time) and the RK2 and RK45
trajectories of the Van der Waals gas and of a system whose right-hand
side solves its velocity Hessian.  The digests depend on the numpy/scipy
builds they were recorded with (numpy 2.4, scipy 1.17).  Horizons are
short so the file runs in a few seconds.
"""

import hashlib

import numpy as np
import pytest

from thermint import (ExperimentConfig, LagrangianThermoSystem, ThermoState, get_system,
                      initialize, reference_integrate, rk2_integrate, run_experiment)
from thermint.systems import DampedOscillatorSolution

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


@pytest.mark.parametrize("cell", sorted(DIGESTS))
def test_csv_bytes_frozen(cell, tmp_path):
    system, h, t_final = cell
    run_experiment(ExperimentConfig(system=system, h=h, t_final=t_final, methods=METHODS,
                                    out=str(tmp_path)))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DIGESTS[cell]}
    assert got == DIGESTS[cell]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DIGESTS[cell])


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
    sol = DampedOscillatorSolution(0.1, 0.3, -0.7, 1.5)
    for t in np.random.default_rng(7).uniform(0.0, 1000.0, 1000):
        t = float(t)
        assert sol.v(t).hex() == sol.v(np.array([t]))[0].hex()
        assert sol.q(t).hex() == sol.q(np.array([t]))[0].hex()


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
