"""The channel as the simulator builds it.

A two-step frame is y = sum_i h_i x_i + z: `TwoStepExperiment._frame` draws
z with `complex_noise` and places each user's signals with
`TransmissionRecord.add_user`, the same call ideal SIC makes with -h_i.
Eb/N0 has one formula, `cli.ebn0_db`.
"""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from umacsim import montecarlo
from umacsim.channel import ChannelModel, complex_noise, energy
from umacsim.cli import ConfigError, ebn0_db, load_preset
from umacsim.codec import CodecModel, CodecSpec
from umacsim.montecarlo import TwoStepExperiment, draw_message
from umacsim.protocols import DecodeOutcome, TransmissionRecord, TwoStepConfig, encode_user
from umacsim.sequences import PreambleSpec

ML8 = CodecSpec(codeword_bits=128, payload_bits=8, model=CodecModel.ML_RANDOM_GAUSSIAN)


def small_cfg(model=ChannelModel.AWGN, pilot_len=0):
    return TwoStepConfig(
        preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
        n_occasions=8, codec=ML8,
        pilot_len=pilot_len, channel_model=model,
    )


def users_of(cfg, count, rng, gains=None, power=1.0):
    gains = [1.0 + 0.0j] * count if gains is None else gains
    return [encode_user(cfg, draw_message(rng, 8), rng, power=power, gain=g) for g in gains]


def silent(n, variance, rng):
    """A noiseless channel in place of `complex_noise`."""
    return np.zeros(n, dtype=complex)


def frame(cfg, users, seed, noise=complex_noise):
    """`TwoStepExperiment._frame` of the users, with `noise` as the channel noise."""
    record = TransmissionRecord(cfg, 1.0, users)
    with mock.patch.object(montecarlo, "complex_noise", noise):
        return TwoStepExperiment(config=cfg)._frame(record, np.random.default_rng(seed))


def user_frame(cfg, user):
    """The user's full transmitted frame (before channel gain)."""
    x = np.zeros(cfg.frame_len, dtype=complex)
    TransmissionRecord(cfg, 1.0, [user]).add_user(x, user, 1.0)
    return x


def skip_receiver(monkeypatch, records, frames=None):
    """Keep what `run_trials` hands the two-step receiver, and skip it."""

    def receive(ys, cfg, mode, genies):
        if frames is not None:
            frames.extend(np.array(y) for y in ys)
        records.extend(genies)
        return [DecodeOutcome(set(), set(), 0) for _ in genies]

    monkeypatch.setattr(montecarlo, "twostep_receive_many", receive)


class TestAwgnTransmit:
    def test_no_inputs_pure_noise_variance(self):
        cfg = small_cfg()
        z = np.concatenate([frame(cfg, [], seed) for seed in range(200)])
        mean_sq = np.mean(np.abs(z) ** 2)
        # |Z|^2 is exponential with mean sigma^2 = 1 and std 1.
        se = 1.0 / math.sqrt(len(z))
        assert abs(mean_sq - 1.0) < 3 * se

    def test_noiseless_cancellation(self):
        cfg = small_cfg()
        (user,) = users_of(cfg, 1, np.random.default_rng(0))
        record = TransmissionRecord(cfg, 1.0, [user])
        y = np.zeros(cfg.frame_len, dtype=complex)
        record.add_user(y, user, 0.3 - 1.7j)
        assert np.any(y != 0)
        record.add_user(y, user, -(0.3 - 1.7j))
        assert np.all(y == 0)

    def test_mean_output_energy_two_users(self):
        cfg = small_cfg()
        # Twice the unit noise power: the SNR of a half-power noise.
        users = users_of(cfg, 2, np.random.default_rng(1), power=2.0)
        signal = user_frame(cfg, users[0]) + user_frame(cfg, users[1])
        vals = np.array([
            energy(frame(cfg, users, seed)) / cfg.frame_len for seed in range(2000)
        ])
        expected = energy(signal) / cfg.frame_len + 1.0
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - expected) < 3 * se

    def test_determinism(self):
        cfg = small_cfg()
        users = users_of(cfg, 3, np.random.default_rng(2))
        assert np.array_equal(frame(cfg, users, 5), frame(cfg, users, 5))

    def test_noiseless_equals_exact_sum(self):
        cfg = small_cfg()
        users = users_of(cfg, 3, np.random.default_rng(3))
        exact = sum(user_frame(cfg, u) for u in users)
        assert np.array_equal(frame(cfg, users, 0, silent), exact)


class TestFadingTransmit:
    def test_unit_gain_reduces_to_awgn(self):
        awgn = small_cfg(pilot_len=16)
        users = users_of(awgn, 2, np.random.default_rng(4))
        fading = small_cfg(ChannelModel.RAYLEIGH, pilot_len=16)
        assert np.array_equal(frame(fading, users, 11), frame(awgn, users, 11))

    def test_gain_second_moment(self, monkeypatch):
        records = []
        skip_receiver(monkeypatch, records)
        experiment = TwoStepExperiment(config=small_cfg(ChannelModel.RAYLEIGH, pilot_len=16))
        rngs = [np.random.default_rng(seed) for seed in range(100)]
        experiment.run_trials(100, 10.0, rngs)
        gains = [u.gain for record in records for u in record.users]
        m = np.mean(np.abs(gains) ** 2)
        se = 1.0 / math.sqrt(len(gains))   # var(|H|^2) = 1 for CN(0,1)
        assert len(gains) == 10_000
        assert abs(m - 1.0) < 3 * se

    def test_opposite_gains_cancel(self):
        cfg = small_cfg(ChannelModel.RAYLEIGH, pilot_len=16)
        twins = [
            encode_user(cfg, 77, np.random.default_rng(0), gain=g, preamble_index=3)
            for g in (1.0 + 0.0j, -1.0 + 0.0j)
        ]
        assert np.all(frame(cfg, twins, 0, silent) == 0)

    def test_gains_frame_constant_impulse_train(self):
        # Every sample the user occupies carries the same gain factor.
        cfg = small_cfg(ChannelModel.RAYLEIGH, pilot_len=16)
        (user,) = users_of(cfg, 1, np.random.default_rng(9), gains=[0.8 - 0.6j])
        x = user_frame(cfg, user)
        y = frame(cfg, [user], 0, silent)
        occupied = x != 0
        assert occupied.sum() == cfg.preamble.length + cfg.occasion_len
        assert np.array_equal(y[occupied], user.gain * x[occupied])
        assert np.all(y[~occupied] == 0)


class TestTwoStepFrame:
    @pytest.mark.parametrize("model", list(ChannelModel))
    def test_frame_is_noise_plus_gain_times_user_frames(self, monkeypatch, model):
        # Keep the noise `run_trials` draws and the frames it builds.
        noises, frames, genies = [], [], []

        def noise(n, variance, rng):
            z = complex_noise(n, variance, rng)
            noises.append(z.copy())
            return z

        monkeypatch.setattr(montecarlo, "complex_noise", noise)
        skip_receiver(monkeypatch, genies, frames)
        cfg = small_cfg(model, pilot_len=16)
        rngs = [np.random.default_rng(seed) for seed in range(6)]
        TwoStepExperiment(config=cfg).run_trials(5, 10.0, rngs)
        assert len(frames) == len(noises) == len(genies) == 6
        for y, z, record in zip(frames, noises, genies):
            expected = z
            for u in record.users:
                expected = expected + u.gain * user_frame(cfg, u)
            assert np.array_equal(y, expected)
            fading = any(u.gain != 1 for u in record.users)
            assert fading == (model is ChannelModel.RAYLEIGH)


class TestNoiseStatistics:
    def test_component_variance(self):
        z = complex_noise(200_000, 0.8, np.random.default_rng(4))
        for part in (z.real, z.imag):
            var = part.var()
            se = math.sqrt(2.0 / len(z)) * 0.4   # var of sample variance ~ 2 sigma^4 / n
            assert abs(var - 0.4) < 3 * se

    @pytest.mark.parametrize("n", [0, 1, 7, 4096, 19478])
    @pytest.mark.parametrize("variance", [1.0, 0.8])
    def test_draw_matches_two_scaled_normals(self, n, variance):
        """The same samples, bit for bit, and the same generator state after
        the draw, as the sum of two `normal` arrays the noise was once."""
        scale = math.sqrt(variance / 2.0)
        for seed in range(40):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            z = complex_noise(n, variance, rng)
            expected = old.normal(scale=scale, size=n) + 1j * old.normal(scale=scale, size=n)
            assert z.dtype == expected.dtype and z.shape == (n,)
            assert z.view(np.float64).tobytes() == expected.view(np.float64).tobytes()
            assert rng.bit_generator.state == old.bit_generator.state


class TestEbn0:
    """`cli.ebn0_db`: Eb/N0 = n P / (2 sigma^2 log2 M) with sigma^2 = 1."""

    def test_direct_arithmetic(self):
        config = load_preset("twostep_awgn_baseline")    # n = 16278, k = 100
        assert ebn0_db(config, 0.0) == pytest.approx(
            10 * math.log10(16278 / 200), abs=1e-12
        )

    def test_doubling_power_adds_3db(self):
        for name in ("twostep_awgn_baseline", "slotted_aloha_mini"):
            config = load_preset(name)
            lo = ebn0_db(config, 4.0)
            hi = ebn0_db(config, 4.0 + 10 * math.log10(2))
            assert hi - lo == pytest.approx(10 * math.log10(2), abs=1e-12)

    def test_independent_arithmetic_oracle(self):
        # nP/(2 sigma^2 log2M) by hand: 1778 + 59 * 300 = 19478 uses, 100 bits,
        # P = 10^0.5.  (The slotted-Aloha log2 L term: tests/test_codec.py.)
        config = load_preset("sbidma_tuned")
        expected = 10 * math.log10((19478 * 10**0.5) / (2 * 100))
        assert ebn0_db(config, 5.0) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_payload(self):
        with pytest.raises(ConfigError, match="payload_bits"):
            dataclasses.replace(load_preset("twostep_awgn_baseline"), payload_bits=0)
