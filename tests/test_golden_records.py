"""Golden-records pin: small in-process bench grids hashed byte for byte.

Each grid runs ``alcove bench`` on one 5 x 40 x 16 synthetic dataset with two
seeds, four iterations and 60 training epochs, and compares the sha256 of its
``records.csv`` with a pinned digest. A change that moves any selection or
any accuracy (even by one ulp) changes a digest; such a change has to be
deliberate, with the new digests and the reason recorded in CHANGES.md.
"""

import hashlib

import pytest

from alcove.cli import main

ALL_BUT_ALFAMIX = (
    "random,uncertainty,entropy,margins,bald,powerbald,coreset,badge,typiclust,probcover,dropquery"
)
SCORED = "uncertainty,entropy,margins,bald"

# name -> (extra bench flags, sha256 of records.csv)
GRIDS = {
    "all-kinds": (
        [],
        "a4a59e65f9e0feab666227207b3337087146a7d284417484087d724b825e88b3",
    ),
    "diversify": (
        ["--strategies", SCORED, "--diversify"],
        "705a3341537a17f0e40798ebf3493aac4b36fbe6957616b0ea3b3b6a9b6ce7e6",
    ),
    "diversify-dropout": (
        ["--strategies", SCORED, "--diversify", "--inference-dropout"],
        "46fef5dfcc0332bdb9faa00773daccf8e8a7ae9967abf924feef4a288af74e90",
    ),
    "dq-literal": (
        ["--strategies", "dropquery", "--dq-literal"],
        "ec2c24d7d0035b3cbdabc49108a27fe3e1d5510d3578041e522b67da6b285290",
    ),
    # rho 0: no pass ever disagrees, so dropquery takes its empty-candidate path
    "dq-rho0": (
        ["--strategies", "dropquery", "--rho", "0"],
        "446f41268859d27f374ad526c2433ec48822cdcc76a261853d1e395fb8f0f8c7",
    ),
    "init-centroid": (
        ["--init", "centroid"],
        "4638aca8e60572235aa0db58375b1a810d4f28f487f01c9fcbbf599613b625e7",
    ),
    # alfamix has no anchors before the first reveal, so it cannot pick its own pool
    "init-own": (
        ["--strategies", ALL_BUT_ALFAMIX, "--init", "own"],
        "17649a0646e89934276523b901c7ef69ab5c19d24709a85f8bba8fce0485a0dd",
    ),
    "semisup": (
        ["--strategies", "random,margins,dropquery", "--semisup"],
        "f275faadd53d1b2fdc502682877f131646dd550d017b89d5ea0b2711f7aad6d4",
    ),
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "ds"
    code = main([
        "synth", "--classes", "5", "--per-class", "40", "--dim", "16",
        "--sep", "2", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_records_digest(name, dataset_dir, tmp_path):
    extra, digest = GRIDS[name]
    out = tmp_path / name
    code = main([
        "bench", "--data", str(dataset_dir), "--out", str(out),
        "--seeds", "1,2", "--iterations", "4", "--epochs", "60", *extra,
    ])
    assert code == 0
    got = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
    assert got == digest, f"{name}: records.csv sha256 is {got}"
