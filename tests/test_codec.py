import dataclasses
import hashlib
import math

import numpy as np
import pytest

from umacsim import codec, montecarlo
from umacsim.bounds import min_snr_single_user
from umacsim.channel import complex_noise
from umacsim.cli import build_experiment, ebn0_db, load_preset
from umacsim.codec import (
    CodecError,
    CodecModel,
    CodecSpec,
    SlottedAlohaConfig,
    decode,
    decode_threshold,
    encode,
)
from umacsim.montecarlo import SlottedAlohaExperiment
from umacsim.protocols import slotted_aloha_receive

ORACLE = CodecSpec(codeword_bits=500, payload_bits=100)
ML8 = CodecSpec(codeword_bits=128, payload_bits=8, model=CodecModel.ML_RANDOM_GAUSSIAN)


class TestSpecValidation:
    def test_ml_payload_cap(self):
        with pytest.raises(CodecError):
            CodecSpec(codeword_bits=128, payload_bits=13, model=CodecModel.ML_RANDOM_GAUSSIAN)

    def test_odd_codeword_bits(self):
        with pytest.raises(CodecError):
            CodecSpec(codeword_bits=501, payload_bits=100)

    def test_complex_uses(self):
        assert ORACLE.complex_uses == 250


class TestEncode:
    def test_determinism(self):
        a = encode(ORACLE, 123456789)
        b = encode(ORACLE, 123456789)
        assert np.array_equal(a, b)

    def test_length_and_power(self):
        x = encode(ORACLE, 42, power=2.0)
        assert len(x) == 250
        assert np.allclose(np.abs(x) ** 2, 2.0, rtol=1e-12)

    def test_ml_all_256_distinct(self):
        words = [tuple(np.round(encode(ML8, m), 9)) for m in range(256)]
        assert len(set(words)) == 256

    def test_huge_message_accepted(self):
        x = encode(ORACLE, (1 << 100) - 1)
        assert len(x) == 250

    def test_out_of_range_message(self):
        with pytest.raises(CodecError):
            encode(ML8, 256)

    def test_cached_oracle_codeword_is_read_only_and_unchanged(self):
        """The cached unit codeword is read-only and, byte for byte, the
        QPSK sequence drawn from `SeedSequence(entropy=[0, message])`."""
        message = 77
        word = codec._oracle_codeword_unit(ORACLE, message)
        assert codec._oracle_codeword_unit(ORACLE, message) is word
        assert not word.flags.writeable
        with pytest.raises(ValueError):
            word[0] = 0.0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[0, message]))
        qpsk = np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)
        assert word.tobytes() == qpsk[rng.integers(0, 4, size=ORACLE.complex_uses)].tobytes()

    def test_encode_returns_a_writable_copy(self):
        """Writing into an encoded codeword leaves the next encode alone."""
        first = encode(ORACLE, 5, power=1.0)
        expected = first.copy()
        assert first.flags.writeable
        first[:] = 0.0
        assert encode(ORACLE, 5, power=1.0).tobytes() == expected.tobytes()

    def test_only_short_payloads_are_cached(self):
        """A 100-bit codeword is built afresh, so it never fills the cache
        with words no trial reads again; an 8-bit one is cached and hit."""
        codec._oracle_codeword_unit.cache_clear()
        encode(ORACLE, (1 << 99) + 12345)
        assert codec._oracle_codeword_unit.cache_info().currsize == 0
        short = CodecSpec(codeword_bits=128, payload_bits=8)
        first = encode(short, 77)
        assert encode(short, 77).tobytes() == first.tobytes()
        assert codec._oracle_codeword_unit.cache_info()[:2] == (1, 1)   # hits, misses

    def test_ml_codebook_bytes(self):
        """The codebook of twostep_awgn_mini (128-bit codewords, 8-bit
        payloads) is pinned byte for byte, read-only and in C order."""
        assert build_experiment(load_preset("twostep_awgn_mini")).config.codec == ML8
        book = codec._ml_codebook_unit(ML8)
        assert book.flags.c_contiguous and not book.flags.writeable
        assert hashlib.sha256(book.tobytes()).hexdigest() == (
            "922d8390d97b5da01704cd07bbcddeada76dae69e639cfdc60695c8fd709c0dc"
        )


class TestOracleDecode:
    def test_threshold_value(self):
        base = min_snr_single_user(250, 100, 0.05)
        assert decode_threshold(ORACLE) == pytest.approx(base * 10 ** 0.16, rel=1e-12)

    def test_boundary_success(self):
        thr = decode_threshold(ORACLE)
        ok, msg = decode(ORACLE, genie_sinr=thr * 1.001, true_message=7)
        assert ok and msg == 7

    def test_zero_sinr_failure(self):
        ok, msg = decode(ORACLE, genie_sinr=0.0, true_message=7)
        assert not ok and msg is None

    def test_monotone_in_sinr(self):
        thr = decode_threshold(ORACLE)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = float(rng.uniform(0, 3 * thr))
            ok_low, _ = decode(ORACLE, genie_sinr=s, true_message=1)
            ok_high, _ = decode(ORACLE, genie_sinr=s * 1.5 + 1e-9, true_message=1)
            assert ok_high >= ok_low

    def test_missing_genie_args(self):
        with pytest.raises(CodecError):
            decode(ORACLE, genie_sinr=1.0)


class TestMlDecode:
    def test_against_independent_brute_force(self):
        # Independent exhaustive ML: rebuild the codebook from the same seed
        # and argmin Euclidean distance directly.
        rng = np.random.default_rng(np.random.SeedSequence(0))
        n, m = 64, 256
        book = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        book *= math.sqrt(n) / np.linalg.norm(book, axis=0)

        trial_rng = np.random.default_rng(99)
        snr = 10 ** (10 / 10)
        mismatches = 0
        for _ in range(500):
            msg = int(trial_rng.integers(0, 256))
            y = math.sqrt(snr) * book[:, msg] + complex_noise(n, 1.0, trial_rng)
            _, got = decode(ML8, observed=y, gain=math.sqrt(snr))
            ref = int(np.argmin(np.linalg.norm(y[:, None] - math.sqrt(snr) * book, axis=0)))
            if got != ref:
                mismatches += 1
        assert mismatches == 0

    def test_high_snr_error_rate(self):
        spec = CodecSpec(codeword_bits=64, payload_bits=4, model=CodecModel.ML_RANDOM_GAUSSIAN)
        rng = np.random.default_rng(5)
        snr = 10 ** 2.0    # 20 dB
        errors = 0
        for _ in range(10_000):
            msg = int(rng.integers(0, 16))
            y = math.sqrt(snr) * encode(spec, msg) + complex_noise(32, 1.0, rng)
            _, got = decode(spec, observed=y, gain=math.sqrt(snr))
            errors += got != msg
        assert errors / 10_000 < 1e-3

    def test_needs_observation(self):
        with pytest.raises(CodecError):
            decode(ML8)


class TestSlottedAloha:
    """The slotted-Aloha frame `SlottedAlohaExperiment.run_trial` builds, read
    noise-free from the receiver's input."""

    def frames(self, monkeypatch, cfg, ka, power_db, seeds):
        seen = []

        def receive(y, cfg, mode, genie, power):
            seen.append((y.copy(), list(genie), power))
            return slotted_aloha_receive(y, cfg, mode, genie, power)

        monkeypatch.setattr(montecarlo, "slotted_aloha_receive", receive)
        monkeypatch.setattr(
            montecarlo, "complex_noise", lambda n, variance, rng: np.zeros(n, dtype=complex)
        )
        experiment = SlottedAlohaExperiment(config=cfg)
        for seed in seeds:
            experiment.run_trial(ka, power_db, np.random.default_rng(seed))
        return seen

    def test_single_slot_degenerate(self, monkeypatch):
        cfg = SlottedAlohaConfig(slots=1, codec=ML8)
        for y, genie, power in self.frames(monkeypatch, cfg, 1, 3.0, range(5)):
            ((msg, slot),) = genie
            assert slot == 0
            assert np.array_equal(y, encode(ML8, msg, power=power))

    def test_exactly_one_nonzero_block(self, monkeypatch):
        cfg = SlottedAlohaConfig(slots=4, codec=ML8)
        for y, genie, _ in self.frames(monkeypatch, cfg, 1, 0.0, range(8)):
            ((_, slot),) = genie
            blocks = y.reshape(4, cfg.slot_len)
            for i in range(4):
                if i == slot:
                    assert np.any(blocks[i] != 0)
                else:
                    assert np.all(blocks[i] == 0)

    def test_codebook_size(self):
        # Eb/N0 counts log2 |codebook| = log2(L 2^k) bits: k alone for one slot.
        mini = load_preset("slotted_aloha_mini")     # 64 slots of 64 uses, k = 8
        one = dataclasses.replace(mini, n_occasions=1)
        assert ebn0_db(one, 0.0) == pytest.approx(10 * math.log10(64 / (2 * 8)), abs=1e-12)
        assert ebn0_db(mini, 0.0) == pytest.approx(
            10 * math.log10(4096 / (2 * (8 + 6))), abs=1e-12
        )

    def test_codebook_log2_k100(self):
        # The codebook holds L 2^k words: Eb/N0 counts k + log2 L = 106 bits.
        config = dataclasses.replace(
            load_preset("slotted_aloha_mini"),
            payload_bits=100, codeword_bits=500,
        )
        expected = 10 * math.log10(64 * 250 / (2 * 106.0))
        assert ebn0_db(config, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_frame_power_constraint(self, monkeypatch):
        cfg = SlottedAlohaConfig(slots=8, codec=ML8)
        for y, _, power in self.frames(monkeypatch, cfg, 1, -0.5, range(5)):
            # Frame energy equals codeword energy <= n_frame * P.
            assert float(np.sum(np.abs(y) ** 2)) <= cfg.frame_len * power * (1 + 1e-9)
