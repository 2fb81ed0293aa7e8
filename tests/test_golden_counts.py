"""Golden integer counts: any change to the simulator's numbers shows here.

Every value below was recorded at commit 6f4eef0, before the OMP detection
kernel was rewritten (Cholesky least squares, no per-call scaled
dictionary, in-place Gaussian dictionary build), and the rewrite
reproduces all of them exactly.  A change that moves one of these counts
changes simulation results; it must say why in CHANGES.md before the
value here is re-recorded.
"""
import hashlib

import pytest

from umacsim.cli import build_experiment, load_preset, preset_names
from umacsim.montecarlo import estimate_pupe
from umacsim.protocols import build_dictionaries

SEED = 7

# preset -> (ka, snr_db, trials, (failures, clashes))
GOLDEN_COUNTS = {
    "slotted_aloha_mini": (10, 0.0, 200, (280, 39)),
    "twostep_awgn_baseline": (8, 0.0, 60, (38, 0)),
    "twostep_awgn_mini": (3, 0.0, 100, (65, 0)),
    "twostep_rayleigh_64": (30, 10.0, 10, (44, 0)),
    "twostep_rayleigh_1024": (30, 10.0, 10, (36, 0)),
    "sbidma_rayleigh_1024": (30, 10.0, 10, (11, 0)),
    "sbidma_tuned": (30, 6.0, 2, (10, 0)),
}

# preset -> sha256 of (preamble columns bytes, pilot columns bytes)
GOLDEN_DICTIONARIES = {
    "sbidma_tuned": (
        "37c8458ddc663c420a2b21b0a4cc2ce1d89e7f793370252a4e44774850bc1f71",
        "9072fabf270df67f82f93de1766a28ff602be3e0efaab52551cac1e2624fc6bb",
    ),
    "twostep_rayleigh_1024": (
        "e0a65dd3b6aa21d9d14bb64b843148f9bb42dd6f32ef9acd9b76d712005ffa92",
        "c0ceb87ca0598b20bb56e07de28539f38d684ccaaf66378ecd535946928872b9",
    ),
}


def test_every_preset_is_pinned():
    assert sorted(GOLDEN_COUNTS) == preset_names()


@pytest.mark.parametrize("preset", sorted(GOLDEN_COUNTS))
def test_estimate_counts(preset):
    ka, snr_db, trials, expected = GOLDEN_COUNTS[preset]
    experiment = build_experiment(load_preset(preset))
    est = estimate_pupe(experiment, ka, snr_db, trials, SEED)
    assert (est.failures, est.clashes) == expected
    assert est.total == ka * trials


@pytest.mark.parametrize("preset", sorted(GOLDEN_DICTIONARIES))
def test_dictionary_bytes(preset):
    pre, pilots = build_dictionaries(build_experiment(load_preset(preset)).config)
    digests = tuple(
        hashlib.sha256(d.columns.tobytes()).hexdigest() for d in (pre, pilots)
    )
    assert digests == GOLDEN_DICTIONARIES[preset]
