"""Golden integer counts: any change to the simulator's numbers shows here.

Every value below but the stored complex64 preamble digests was recorded
at commit 6f4eef0, before the OMP detection kernel was rewritten (Cholesky
least squares, no per-call scaled dictionary, in-place Gaussian dictionary
build), and the rewrite reproduces all of them exactly; so do the complex64
preamble dictionaries with OMP's exact complex128 pick.  A change that
moves one of these counts changes simulation results; it must say why in
CHANGES.md before the value here is re-recorded.
"""
import hashlib

import numpy as np
import pytest

from umacsim import detection, montecarlo, protocols
from umacsim.channel import ChannelModel
from umacsim.cli import build_experiment, load_preset, preset_names
from umacsim.codec import CodecModel, CodecSpec, SlottedAlohaConfig
from umacsim.montecarlo import SlottedAlohaExperiment, TwoStepExperiment, estimate_pupe
from umacsim.protocols import EnergyPolicy, ReceiverMode, TwoStepConfig, build_dictionaries
from umacsim.sequences import (
    DictionaryKind,
    PreambleSpec,
    _gaussian_columns,
    _zadoff_chu_columns,
)

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

# (codec model, receiver) -> ((failures, clashes), sha256 of every receiver
# outcome) for the slotted-Aloha paths no preset covers (`slotted_aloha_mini`
# pins the oracle codec with TIN).  Four slots, ka 6 and 4-bit payloads at
# 5 dB, 200 trials at SEED: collisions, clashes and several SIC rounds occur.
# Recorded at 6452b5d, before the receiver cancelled in place.
GOLDEN_SLOTTED = {
    ("oracle_threshold", "tin_sic"): (
        (850, 167),
        "e4c37e6b929d361af5e3106306fb3e34aec13e18eee2515164972f5f40756785",
    ),
    ("ml_random_gaussian", "tin"): (
        (437, 167),
        "b22ceb2b4ac438c1a7e0f8d08b6a8f244ef2f5bc23e71e7a59fa4fe3cc47aa44",
    ),
    ("ml_random_gaussian", "tin_sic"): (
        (88, 167),
        "77a6f075eeb90ccd9bc472aa35164af15726e20517d1b21ad74fd770c5d20fd9",
    ),
}

# preset -> sha256 of every two-step receiver outcome (sorted decoded
# messages, sorted detected preambles, SIC rounds, decodes per round) of
# the `GOLDEN_COUNTS` estimate, recorded at fbbb4b4, while oracle users
# still sent a codeword.  The oracle codec's SINRs now use nominal codeword
# energies, a few ulp from the exact ones; no outcome moved.
GOLDEN_TWOSTEP = {
    "twostep_awgn_baseline": "04cc2005eede173ba062886ced3945ee4ec6499f533f5f7c92e596452773cd97",
    "twostep_awgn_mini": "63471eb813c277264b0e2c43f0c100c3495b77df710cb6f77329b8d7e5e022a9",
    "twostep_rayleigh_1024": "c2484f62f7fd75263e9a9ee66b832e90b472d812adeb49ed9a61e319c7ccc6a2",
    "sbidma_rayleigh_1024": "b83aec7003c3a0e4c65ad765aff9d0e32d6692cd7433455cf98296e8f45a4a66",
}

# A reduced SB-IDMA config whose complex64 Gram matrix (2048^2 entries,
# 32 MiB) exceeds `detection.GRAM_BYTES`, so its dictionary keeps no Gram
# store and each receive fills one of its own: 2048 Gaussian preambles of
# length 400 at 1/12 power, 2-of-40 occasion patterns, Rayleigh fading,
# TIN-SIC.  -> ((ka, snr_db, trials), (failures, clashes), sha256 of every
# OMP result's indices and coefficient bytes).  Residual energies are left
# out: with two BLAS threads they may differ in their last bit.  Recorded
# at 68d0b20, while each SIC round made its own beta0 pass over a fresh
# store.
LARGE_GRAM_SBIDMA = TwoStepConfig(
    preamble=PreambleSpec(
        size=2048, base_length=400, kind=DictionaryKind.GAUSSIAN, power_scale=1 / 12
    ),
    n_occasions=40,
    codec=CodecSpec(codeword_bits=500, payload_bits=100, offset_db=1.6),
    pilot_len=50,
    channel_model=ChannelModel.RAYLEIGH,
    rho=2,
    energy_policy=EnergyPolicy.PER_COPY_FULL,
)
GOLDEN_LARGE_GRAM_OMP = (
    (30, 2.0, 20),
    (159, 0),
    "a802523464c05853c2f0c1f82005755aac9e9853dbc2b6903d95c4c63fd5a980",
)

# preset -> sha256 of the complex128 (preamble, pilot) column values, as
# recorded at 6f4eef0.  Preamble columns are stored rounded to complex64, so
# their pin is on the values before rounding, from the private builders.
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

# preset -> sha256 of the stored complex64 preamble bytes, recorded when the
# preamble dictionaries became complex64: the exact rounding of the values
# pinned above, checked by `test_dictionary_bytes`.
GOLDEN_STORED_PREAMBLES = {
    "sbidma_tuned": "4c91181aef4afc80881733a4a10de2638f5f332ded6f7ca0a6f4b0f2577c68d9",
    "twostep_rayleigh_1024": "d525fee126f805f02e934b54207f998411225ecf8431a42ef4ba5761fcfd013c",
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


@pytest.mark.parametrize("model, receiver", sorted(GOLDEN_SLOTTED))
def test_slotted_aloha_outcomes(monkeypatch, model, receiver):
    # Serial, so that this process makes, and records, every receive.
    monkeypatch.delenv("UMAC_BENCH_THREADS", raising=False)
    outcomes = []
    receive = montecarlo.slotted_aloha_receive

    def recording(*args):
        out = receive(*args)
        outcomes.append((sorted(out.decoded_messages), out.sic_rounds, out.round_decodes))
        return out

    monkeypatch.setattr(montecarlo, "slotted_aloha_receive", recording)
    codec = CodecSpec(codeword_bits=16, payload_bits=4, model=CodecModel(model))
    experiment = SlottedAlohaExperiment(SlottedAlohaConfig(4, codec), ReceiverMode(receiver))
    est = estimate_pupe(experiment, 6, 5.0, 200, SEED)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert len(outcomes) == 200
    assert ((est.failures, est.clashes), digest) == GOLDEN_SLOTTED[model, receiver]


@pytest.mark.parametrize("preset", sorted(GOLDEN_TWOSTEP))
def test_twostep_outcomes(monkeypatch, preset):
    # Serial, so that this process makes, and records, every receive.
    monkeypatch.delenv("UMAC_BENCH_THREADS", raising=False)
    outcomes = []
    receive = montecarlo.twostep_receive_many

    def recording(*args):
        outs = receive(*args)
        outcomes.extend(
            (sorted(o.decoded_messages), sorted(o.detected_preambles), o.sic_rounds,
             o.round_decodes)
            for o in outs
        )
        return outs

    monkeypatch.setattr(montecarlo, "twostep_receive_many", recording)
    ka, snr_db, trials, expected = GOLDEN_COUNTS[preset]
    est = estimate_pupe(build_experiment(load_preset(preset)), ka, snr_db, trials, SEED)
    assert len(outcomes) == trials
    assert (est.failures, est.clashes) == expected
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == GOLDEN_TWOSTEP[preset]


def test_large_gram_omp_results(monkeypatch):
    monkeypatch.delenv("UMAC_BENCH_THREADS", raising=False)
    pre, _ = build_dictionaries(LARGE_GRAM_SBIDMA)
    assert pre.columns.shape[1] ** 2 * pre.columns.itemsize > detection.GRAM_BYTES
    digest = hashlib.sha256()
    detect = protocols.omp_detect_many

    def recording(*args, **kwargs):
        results = detect(*args, **kwargs)
        for r in results:
            digest.update(np.asarray(r.indices, dtype=np.int64).tobytes())
            digest.update(r.coefficients.tobytes())
        return results

    monkeypatch.setattr(protocols, "omp_detect_many", recording)
    (ka, snr_db, trials), counts, expected = GOLDEN_LARGE_GRAM_OMP
    experiment = TwoStepExperiment(config=LARGE_GRAM_SBIDMA, receiver=ReceiverMode.TIN_SIC)
    est = estimate_pupe(experiment, ka, snr_db, trials, SEED)
    assert ((est.failures, est.clashes), digest.hexdigest()) == (counts, expected)


def sha256(columns):
    return hashlib.sha256(columns.tobytes()).hexdigest()


def exact_preamble_columns(spec):
    """The complex128 preamble values `build_dictionaries` rounds to complex64."""
    if spec.kind is DictionaryKind.ZADOFF_CHU:
        return _zadoff_chu_columns(
            spec.size, spec.base_length, spec.repetitions, spec.power_scale, complex
        )
    rng = np.random.default_rng(np.random.SeedSequence(0))
    return _gaussian_columns(spec.size, spec.length, spec.length * spec.power_scale, rng, complex)


@pytest.mark.parametrize("preset", sorted(GOLDEN_DICTIONARIES))
def test_dictionary_bytes(preset):
    config = build_experiment(load_preset(preset)).config
    pre, pilots = build_dictionaries(config)
    exact = exact_preamble_columns(config.preamble)
    assert (sha256(exact), sha256(pilots.columns)) == GOLDEN_DICTIONARIES[preset]
    assert pre.columns.dtype == np.complex64 and pre.columns.flags.f_contiguous
    assert pre.columns.nbytes * 2 == exact.nbytes
    assert pilots.columns.dtype == np.complex128
    for c0 in range(0, exact.shape[1], 512):
        block = exact[:, c0 : c0 + 512]
        assert np.array_equal(pre.columns[:, c0 : c0 + 512], block.astype(np.complex64))
    assert sha256(pre.columns) == GOLDEN_STORED_PREAMBLES[preset]
