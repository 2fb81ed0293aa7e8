"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Monte-Carlo criteria use fixed seeds; every number below is reproducible
bit-for-bit, so the assertions are stable across runs.
"""
import io
import math
import os

import numpy as np
import pytest

from umacsim.bounds import (
    BoundQuery,
    aloha_collision_probability,
    min_snr_single_user,
    normal_approx_log_m,
)
from umacsim.channel import ChannelModel, complex_noise
from umacsim.codec import CodecModel, CodecSpec, SlottedAlohaConfig, decode, encode
from umacsim.detection import omp_detect
from umacsim.montecarlo import (
    SlottedAlohaExperiment,
    TwoStepExperiment,
    draw_message,
    estimate_pupe,
    min_snr_for_pupe,
)
from umacsim.protocols import (
    EnergyPolicy,
    PreambleSpec,
    ReceiverMode,
    TransmissionRecord,
    TwoStepConfig,
    encode_user,
    twostep_receive,
)
from umacsim.sequences import zadoff_chu

ORACLE = CodecSpec(codeword_bits=500, payload_bits=100)


@pytest.fixture
def announce(capsys):
    def _announce(ok: bool, label: str, detail: str = ""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[{status}] {label}{suffix}")

    return _announce


@pytest.fixture
def threads(monkeypatch):
    workers = min(4, os.cpu_count() or 1)
    monkeypatch.setenv("UMAC_BENCH_THREADS", str(workers))


def awgn_baseline_cfg():
    return TwoStepConfig(
        preamble=PreambleSpec(size=64, base_length=139, repetitions=2),
        n_occasions=64, codec=ORACLE,
        pilot_len=0, channel_model=ChannelModel.AWGN,
    )


def rayleigh_cfg(n_preambles, rho=1, energy_policy=EnergyPolicy.PER_COPY_FULL):
    pre = PreambleSpec(size=n_preambles, base_length=139, repetitions=2)
    return TwoStepConfig(preamble=pre, n_occasions=64, codec=ORACLE,
                         pilot_len=50, channel_model=ChannelModel.RAYLEIGH,
                         rho=rho, energy_policy=energy_policy)


def test_criterion_1_collision_formula(announce):
    ka, slots, trials = 50, 64, 100_000
    rng = np.random.default_rng(101)
    draws = rng.integers(0, slots, size=(trials, ka))
    hit = np.mean(np.any(draws[:, 1:] == draws[:, :1], axis=1))
    expected = aloha_collision_probability(ka, slots)
    se = math.sqrt(expected * (1 - expected) / trials)
    ok = abs(hit - expected) < 3 * se
    announce(ok, "criterion 1: slot-collision formula",
             f"mc={hit:.4f} formula={expected:.4f} 3se={3 * se:.4f}")
    assert ok


def test_criterion_2_zadoff_chu_identities(announce):
    n = 139
    max_sidelobe = 0.0
    max_mod_err = 0.0
    for root in range(1, n):
        x = zadoff_chu(root, n)
        max_mod_err = max(max_mod_err, float(np.max(np.abs(np.abs(x) - 1.0))))
        spectrum = np.abs(np.fft.fft(x)) ** 2
        autocorr = np.fft.ifft(spectrum)
        max_sidelobe = max(max_sidelobe, float(np.max(np.abs(autocorr[1:]))))
    a, b = zadoff_chu(1, n), zadoff_chu(2, n)
    cross = np.abs(np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))))
    cross_err = float(np.max(np.abs(cross - math.sqrt(n))))
    ok = max_mod_err < 1e-12 and max_sidelobe < 1e-9 and cross_err < 1e-6
    announce(ok, "criterion 2: Zadoff-Chu identities",
             f"modulus_err={max_mod_err:.1e} sidelobe={max_sidelobe:.1e} "
             f"cross_err={cross_err:.1e}")
    assert ok


def test_criterion_3_omp_recovery(announce):
    import time

    start = time.perf_counter()
    rows, cols, sparsity = 200, 1000, 5
    exact = 0
    seeds = 1000
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a /= np.linalg.norm(a, axis=0)
        support = rng.choice(cols, sparsity, replace=False)
        coefs = rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
        y = a[:, support] @ coefs
        res = omp_detect(y, a, max_iters=sparsity)
        exact += sorted(res.indices) == sorted(support)
    rate = exact / seeds
    elapsed = time.perf_counter() - start
    ok = rate >= 0.99 and elapsed < 30.0
    announce(ok, "criterion 3: OMP exact support recovery",
             f"rate={rate:.3f} elapsed={elapsed:.1f}s")
    assert ok


def test_criterion_4_normal_approximation(announce):
    q = BoundQuery(n=500, k=100, epsilon=0.5, snr=1.7)
    exact = abs(normal_approx_log_m(q) - 500 * math.log2(2.7)) < 1e-9
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(50, 4000))
        eps = float(rng.uniform(0.001, 0.4))
        k = float(rng.uniform(1.0, n / 2))
        snr = min_snr_single_user(n, k, eps)
        back = normal_approx_log_m(BoundQuery(n=n, k=k, epsilon=eps, snr=snr))
        worst = max(worst, abs(back - k) / k)
    ok = exact and worst < 1e-6
    announce(ok, "criterion 4: normal approximation",
             f"eps=0.5 exact={exact} round-trip worst={worst:.2e}")
    assert ok


def test_criterion_5_slotted_aloha_floor(announce, threads):
    cfg = SlottedAlohaConfig(slots=64, codec=CodecSpec(codeword_bits=128, payload_bits=8))
    exp = SlottedAlohaExperiment(config=cfg)
    est = estimate_pupe(exp, 10, 40.0, 100_000, seed=505)
    floor = aloha_collision_probability(10, 64)
    rel = abs(est.pupe - floor) / floor
    ok = rel < 0.10
    announce(ok, "criterion 5: slotted-Aloha collision floor",
             f"pupe={est.pupe:.4f} floor={floor:.4f} rel_err={rel:.3f}")
    assert ok


def test_criterion_6_sic_dominance(announce):
    cfg = TwoStepConfig(
        preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
        n_occasions=8,
        codec=CodecSpec(codeword_bits=128, payload_bits=8,
                        model=CodecModel.ML_RANDOM_GAUSSIAN),
        pilot_len=0, channel_model=ChannelModel.AWGN,
    )
    tin = TwoStepExperiment(config=cfg, receiver=ReceiverMode.TIN)
    sic = TwoStepExperiment(config=cfg, receiver=ReceiverMode.TIN_SIC)
    grid = [(ka, snr) for ka in (2, 4, 6) for snr in (-5.0, 0.0, 5.0, 10.0)]
    assert len(grid) >= 12
    violations = []
    for ka, snr in grid:
        a = estimate_pupe(tin, ka, snr, 150, seed=606)
        b = estimate_pupe(sic, ka, snr, 150, seed=606)
        se = math.hypot(a.std_error, b.std_error)
        if b.pupe > a.pupe + 3 * se:
            violations.append((ka, snr, a.pupe, b.pupe))
    ok = not violations
    announce(ok, "criterion 6: TIN-SIC dominates TIN on the mini grid",
             f"{len(grid)} points, violations={violations}")
    assert ok


def test_criterion_7_awgn_load_curve_shape(announce):
    exp = TwoStepExperiment(config=awgn_baseline_cfg(), receiver=ReceiverMode.TIN)
    schedule = (20, 50, 200)    # trials_schedule of the preset at scale 0.1
    points = {}
    for ka in (2, 8, 14, 16):
        points[ka] = min_snr_for_pupe(
            exp, ka, 0.05, -10.0, 20.0, seed=707, tol_db=0.1,
            trials_schedule=schedule,
        )
    p2 = points[2]
    found2 = p2.min_snr_db is not None
    # "not found <= 20 dB" exceeds any finite min-SNR requirement.
    min8 = points[8].min_snr_db
    gap_ok = found2 and (min8 is None or min8 >= p2.min_snr_db + 3.0)
    high_load_ok = all(points[ka].min_snr_db is None for ka in (14, 16))
    ok = found2 and gap_ok and high_load_ok
    min8_s = "not found" if min8 is None else f"{min8:.2f}"
    announce(ok, "criterion 7: AWGN two-step load curve shape",
             f"min2={p2.min_snr_db:.2f} dB, min8={min8_s}, "
             f"ka>=14 not found={high_load_ok}")
    assert ok


def test_criterion_8_rayleigh_ordering(announce):
    schedule = (20, 50, 150)
    seed = 808
    results = {}
    for label, cfg in (
        ("twostep_64", rayleigh_cfg(64)),
        ("twostep_1024", rayleigh_cfg(1024)),
        ("sbidma_rho2", rayleigh_cfg(1024, rho=2)),
    ):
        exp = TwoStepExperiment(config=cfg, receiver=ReceiverMode.TIN_SIC)
        results[label] = min_snr_for_pupe(
            exp, 30, 0.1, 0.0, 24.0, seed=seed, tol_db=0.2,
            trials_schedule=schedule,
        )
    # "not found" counts as +inf in the ordering.
    snr = {
        k: (math.inf if p.min_snr_db is None else p.min_snr_db)
        for k, p in results.items()
    }
    ordering = snr["twostep_1024"] < snr["twostep_64"]
    gain = (
        snr["sbidma_rho2"] <= snr["twostep_1024"] - 3.0
        and snr["sbidma_rho2"] <= snr["twostep_64"] - 3.0
    )
    ok = ordering and gain
    fmt = {k: ("not found" if v == math.inf else f"{v:.2f}") for k, v in snr.items()}
    announce(ok, "criterion 8: Rayleigh Ka=30 ordering",
             f"64pre={fmt['twostep_64']} 1024pre={fmt['twostep_1024']} "
             f"sbidma={fmt['sbidma_rho2']} dB")
    assert ok


def test_criterion_9_ml_codec_equivalence(announce):
    spec = CodecSpec(codeword_bits=128, payload_bits=8,
                     model=CodecModel.ML_RANDOM_GAUSSIAN)
    # Independent brute-force ML: rebuild the codebook from its seed and take
    # the closest codeword by explicit distance computation.
    rng0 = np.random.default_rng(np.random.SeedSequence(0))
    book = rng0.standard_normal((64, 256)) + 1j * rng0.standard_normal((64, 256))
    book *= math.sqrt(64) / np.linalg.norm(book, axis=0)

    trials = 10_000
    details = []
    ok = True
    for snr_db in (-14.0, -11.0, -8.0):
        snr = 10 ** (snr_db / 10)
        rng_a = np.random.default_rng(909)
        rng_b = np.random.default_rng(910)
        err_ours = 0
        err_ref = 0
        for _ in range(trials):
            msg = int(rng_a.integers(0, 256))
            y = math.sqrt(snr) * encode(spec, msg) + complex_noise(64, 1.0, rng_a)
            _, got = decode(spec, observed=y, gain=math.sqrt(snr))
            err_ours += got != msg

            msg_b = int(rng_b.integers(0, 256))
            y_b = math.sqrt(snr) * book[:, msg_b] + complex_noise(64, 1.0, rng_b)
            dists = np.sum(np.abs(y_b[:, None] - math.sqrt(snr) * book) ** 2, axis=0)
            err_ref += int(np.argmin(dists)) != msg_b
        p_ours, p_ref = err_ours / trials, err_ref / trials
        se = math.sqrt(
            p_ours * (1 - p_ours) / trials + p_ref * (1 - p_ref) / trials
        )
        ok = ok and abs(p_ours - p_ref) <= 3 * max(se, 1e-4)
        details.append(f"{snr_db:g}dB: {p_ours:.4f}/{p_ref:.4f}")
    announce(ok, "criterion 9: ML codec matches brute-force oracle", "; ".join(details))
    assert ok


def test_criterion_10_determinism_and_symmetry(announce, tmp_path):
    from umacsim.cli import load_preset, run

    config = load_preset("slotted_aloha_mini")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(config, str(a), trials_scale=0.1, stream=io.StringIO())
    run(config, str(b), trials_scale=0.1, stream=io.StringIO())
    identical = a.read_bytes() == b.read_bytes()

    cfg = rayleigh_cfg(64)
    symmetric = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        users = []
        for _ in range(5):
            gain = complex(
                (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
            )
            users.append(encode_user(cfg, draw_message(rng, 100), rng,
                                     power=10.0, gain=gain))
        record = TransmissionRecord(cfg, 10.0, users)
        y = complex_noise(cfg.frame_len, 1.0, rng)
        for u in users:
            record.add_user(y, u, u.gain)
        fwd = twostep_receive(y, cfg, ReceiverMode.TIN_SIC, record)
        perm = TransmissionRecord(cfg, 10.0, list(reversed(users)))
        rev = twostep_receive(y, cfg, ReceiverMode.TIN_SIC, perm)
        symmetric = symmetric and fwd.decoded_messages == rev.decoded_messages
    ok = identical and symmetric
    announce(ok, "criterion 10: determinism and unsourced symmetry",
             f"csv_identical={identical} permutation_invariant={symmetric}")
    assert ok
