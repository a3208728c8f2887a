"""Frozen bytes of the deterministic CSV output.

The sha256 digests pin every byte of the variational, RK2 and reference
columns and of the summary rows: any change to the arithmetic of the
stepping kernel, the RK2 step or the reference integration changes them.
The digests depend on the numpy/scipy builds they were recorded with
(numpy 2.4, scipy 1.17).  Horizons are short so the file runs in about
a second.
"""

import hashlib

import pytest

from thermint import ExperimentConfig, get_system, initialize, run_experiment

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
