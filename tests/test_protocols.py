import math
from itertools import combinations, product

import numpy as np
import pytest

from umacsim import detection, protocols
from umacsim.channel import ChannelModel, complex_noise, energy
from umacsim.codec import (
    CodecError,
    CodecModel,
    CodecSpec,
    SlottedAlohaConfig,
    decode_threshold,
    encode,
)
from umacsim.montecarlo import SlottedAlohaExperiment, TwoStepExperiment, draw_message
from umacsim.protocols import (
    EnergyPolicy,
    ProtocolError,
    ReceiverMode,
    TransmissionRecord,
    TwoStepConfig,
    _effective_sinr,
    _SicFrame,
    encode_user,
    pattern_from_index,
    slotted_aloha_receive,
    twostep_receive,
    twostep_receive_many,
)
from umacsim.sequences import PreambleSpec

ORACLE = CodecSpec(codeword_bits=500, payload_bits=100)
ML8 = CodecSpec(codeword_bits=128, payload_bits=8, model=CodecModel.ML_RANDOM_GAUSSIAN)


def awgn_cfg(**over):
    base = dict(
        preamble=PreambleSpec(size=64, base_length=139, repetitions=2),
        n_occasions=64, codec=ORACLE,
        pilot_len=0, channel_model=ChannelModel.AWGN,
    )
    base.update(over)
    return TwoStepConfig(**base)


def fading_cfg(**over):
    base = dict(
        preamble=PreambleSpec(size=64, base_length=139, repetitions=2),
        n_occasions=64, codec=ORACLE,
        pilot_len=50, channel_model=ChannelModel.RAYLEIGH,
    )
    base.update(over)
    return TwoStepConfig(**base)


def transmit(cfg, users, noise_power, rng):
    y = complex_noise(cfg.frame_len, noise_power, rng)
    record = TransmissionRecord(cfg, 1.0, users)
    for u in users:
        record.add_user(y, u, u.gain)
    return y


def encode_frame(cfg, message, rng, power=1.0):
    """One user's full transmitted frame and its genie record."""
    user = encode_user(cfg, message, rng, power=power)
    frame = np.zeros(cfg.frame_len, dtype=complex)
    TransmissionRecord(cfg, power, [user]).add_user(frame, user, 1.0)
    return frame, user


class TestPatterns:
    def test_first_colex_subset(self):
        assert pattern_from_index(0, 64, 2) == (0, 1)

    def test_full_enumeration_count(self):
        patterns = {pattern_from_index(i, 64, 2) for i in range(2016)}
        assert len(patterns) == 2016
        assert patterns == set(combinations(range(64), 2))

    def test_unranking_is_colex_order(self):
        for n, r in ((10, 3), (64, 2), (12, 4), (7, 7), (6, 1)):
            patterns = [pattern_from_index(i, n, r) for i in range(math.comb(n, r))]
            assert patterns == sorted(combinations(range(n), r), key=lambda c: c[::-1])

    def test_out_of_range(self):
        with pytest.raises(ProtocolError):
            pattern_from_index(2016, 64, 2)
        with pytest.raises(ProtocolError):
            pattern_from_index(-1, 64, 2)


class TestConfigs:
    def test_awgn_frame_length(self):
        assert awgn_cfg().frame_len == 16278

    def test_fading_frame_length(self):
        assert fading_cfg().frame_len == 19478

    def test_tuned_frame_length(self):
        from umacsim.sequences import DictionaryKind

        cfg = TwoStepConfig(
            preamble=PreambleSpec(size=8192, base_length=1778, repetitions=1,
                                  kind=DictionaryKind.GAUSSIAN, power_scale=1 / 12),
            n_occasions=59, codec=ORACLE, pilot_len=50,
            channel_model=ChannelModel.RAYLEIGH, rho=2,
        )
        assert cfg.frame_len == 19478

    def test_preambles_cover_the_occasions(self):
        with pytest.raises(ProtocolError, match="n_preambles >= n_occasions"):
            awgn_cfg(preamble=PreambleSpec(size=32, base_length=139, repetitions=2))
        cfg = awgn_cfg(preamble=PreambleSpec(size=100, base_length=139, repetitions=2))
        assert cfg.n_pilots == 2
        assert cfg.map_preamble(70) == ((6,), 1)

    def test_occasion_arithmetic_checked(self):
        # An occasion is the pilot followed by the codeword; it is derived,
        # not set, so it cannot disagree with them.
        assert awgn_cfg().occasion_len == 250
        assert fading_cfg().occasion_len == 300
        with pytest.raises(TypeError):
            awgn_cfg(occasion_len=251)
        with pytest.raises(ProtocolError, match="pilot_len"):
            fading_cfg(pilot_len=-7)

    def test_occasion_is_a_writable_view(self):
        cfg = fading_cfg()
        frame = np.zeros(cfg.frame_len, dtype=complex)
        view = cfg.occasion(frame, 3)
        assert len(view) == cfg.occasion_len
        assert view.base is frame and view.flags.writeable
        view[:] = 1.0
        start = cfg.preamble.length + 3 * cfg.occasion_len
        assert np.array_equal(np.flatnonzero(frame), np.arange(start, start + cfg.occasion_len))

    @pytest.mark.parametrize("cfg", [awgn_cfg(), fading_cfg(), awgn_cfg(codec=ML8, pilot_len=7)])
    def test_occasions_tile_the_frame_after_the_preambles(self, cfg):
        """Occasion 0 starts where the preamble region ends, each occasion
        starts where the one before ends, and the last ends at frame_len."""
        index = np.arange(cfg.frame_len)
        tiles = np.concatenate([cfg.occasion(index, o) for o in range(cfg.n_occasions)])
        assert np.array_equal(tiles, index[cfg.preamble.length :])

    def test_rho_bounds(self):
        with pytest.raises(ProtocolError):
            TwoStepConfig(
                preamble=PreambleSpec(size=64, base_length=139, repetitions=2),
                n_occasions=64, codec=ORACLE, rho=65,
            )

    def test_ml_codec_needs_single_copy(self):
        kw = dict(preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
                  n_occasions=8, codec=ML8)
        with pytest.raises(ProtocolError, match="ML codec"):
            TwoStepConfig(rho=2, **kw)
        assert TwoStepConfig(rho=1, **kw).rho == 1

    def test_ml_codec_on_rayleigh_needs_pilots(self):
        # Without a pilot the ML decoder has no gain estimate and assumed 1.
        kw = dict(preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
                  n_occasions=8, codec=ML8, channel_model=ChannelModel.RAYLEIGH)
        with pytest.raises(ProtocolError, match="pilot_len > 0"):
            TwoStepConfig(pilot_len=0, **kw)
        assert TwoStepConfig(pilot_len=8, **kw).pilot_len == 8
        oracle = dict(kw, codec=ORACLE)
        assert TwoStepConfig(pilot_len=0, **oracle).pilot_len == 0


class TestEncode:
    def test_frame_sparsity(self):
        """A user's signals fill the preamble region and the start of its
        occasion: the pilot and, with the ML codec only, the codeword."""
        for codec, pilot_len in product((ORACLE, ML8), (0, 50)):
            cfg = awgn_cfg(codec=codec, pilot_len=pilot_len)
            frame, user = encode_frame(cfg, 123, np.random.default_rng(0))
            assert len(frame) == 139 * 2 + 64 * (pilot_len + codec.complex_uses)
            sent = pilot_len + (codec.complex_uses if codec is ML8 else 0)
            assert len(user.copy_signal) == sent
            occupied = np.zeros(len(frame), dtype=bool)
            occupied[: cfg.preamble.length] = True
            cfg.occasion(occupied, user.occasions[0])[:sent] = True
            assert np.all(frame[~occupied] == 0)
            assert np.all(frame[occupied] != 0)

    def test_preamble_maps_to_occasion_and_pilot(self):
        cfg = fading_cfg(
            preamble=PreambleSpec(size=1024, base_length=139, repetitions=2),
        )
        user = encode_user(cfg, 1, np.random.default_rng(0), preamble_index=200)
        assert user.occasions == (200 % 64,)
        assert cfg.map_preamble(user.preamble_index)[1] == 200 // 64

    def test_sbidma_rho1_reduces_to_twostep(self):
        ts = awgn_cfg(codec=ML8,
                      preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
                      n_occasions=8, energy_policy=EnergyPolicy.PER_COPY_FULL)
        sb = TwoStepConfig(
            preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
            n_occasions=8, codec=ML8, rho=1,
            energy_policy=EnergyPolicy.SPLIT_ACROSS_COPIES,
        )
        f1, u1 = encode_frame(ts, 5, np.random.default_rng(9))
        f2, u2 = encode_frame(sb, 5, np.random.default_rng(9))
        assert np.array_equal(f1, f2)
        assert (u1.preamble_index, u1.occasions) == (u2.preamble_index, u2.occasions)
        assert ts.map_preamble(u1.preamble_index) == sb.map_preamble(u2.preamble_index)

    def test_sbidma_rho2_two_identical_copies(self):
        cfg = TwoStepConfig(
            preamble=PreambleSpec(size=1024, base_length=139, repetitions=2),
            n_occasions=64, codec=ORACLE, pilot_len=50,
            channel_model=ChannelModel.RAYLEIGH, rho=2,
        )
        frame, user = encode_frame(cfg, 77, np.random.default_rng(1))
        assert len(user.occasions) == 2
        blocks = [cfg.occasion(frame, o) for o in user.occasions]
        assert np.array_equal(blocks[0], blocks[1])

    def test_split_energy_policy_halves_copy_energy(self):
        pre = PreambleSpec(size=1024, base_length=139, repetitions=2)
        kw = dict(n_occasions=64, codec=ORACLE, pilot_len=50,
                  channel_model=ChannelModel.RAYLEIGH)
        split = TwoStepConfig(preamble=pre, rho=2,
                              energy_policy=EnergyPolicy.SPLIT_ACROSS_COPIES, **kw)
        full = TwoStepConfig(preamble=pre, rho=2,
                             energy_policy=EnergyPolicy.PER_COPY_FULL, **kw)
        u_split = encode_user(split, 3, np.random.default_rng(2), preamble_index=10)
        u_full = encode_user(full, 3, np.random.default_rng(2), preamble_index=10)
        assert u_split.copy_energy == pytest.approx(u_full.copy_energy / 2, rel=1e-12)

    def test_ml_copy_is_pilot_then_codeword(self):
        """The ML codec's copy is its pilot, then its codeword, and the
        energies kept at encoding are exactly those of its samples."""
        small = dict(preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
                     n_occasions=8, codec=ML8)
        for cfg in (fading_cfg(pilot_len=16, **small), awgn_cfg(**small)):
            user = encode_user(cfg, 5, np.random.default_rng(3), power=2.5)
            codeword = user.copy_signal[cfg.pilot_len :]
            assert len(user.copy_signal) == cfg.occasion_len
            assert np.array_equal(codeword, encode(ML8, 5) * math.sqrt(2.5))
            assert user.copy_energy == energy(user.copy_signal)
            assert user.codeword_energy == energy(codeword)

    @pytest.mark.parametrize("rho", [1, 2])
    def test_oracle_copy_is_the_pilot_with_nominal_energies(self, rho):
        """An oracle copy holds its pilot and no codeword sample.  Its
        codeword energy is within a few ulp of that of the codeword the
        codec encodes, over 1,000 messages at each of several scales, and
        its copy energy is the pilot's plus that.  Half the users have a
        pilot, half none."""
        rng = np.random.default_rng(4)
        configs = (fading_cfg(rho=rho), awgn_cfg(rho=rho))
        for power in (10**-1.5, 0.8, 10.0, 10**2.4, 7.7e5):
            copy_scale = math.sqrt(power) / math.sqrt(rho)
            for i in range(1000):
                cfg = configs[i % 2]
                msg = draw_message(rng, 100)
                user = encode_user(cfg, msg, rng, power=power)
                assert len(user.copy_signal) == cfg.pilot_len
                exact = energy(encode(ORACLE, msg) * copy_scale)
                assert abs(user.codeword_energy - exact) <= 8 * np.spacing(exact)
                assert user.copy_energy == energy(user.copy_signal) + user.codeword_energy

    def test_oracle_message_is_range_checked(self):
        with pytest.raises(CodecError, match="payload range"):
            encode_user(awgn_cfg(), 1 << 100, np.random.default_rng(0))

    def test_power_constraint_all_protocols(self):
        """A user's frame energy stays within its length times the power.  An
        oracle frame holds no codeword, so each copy's stored codeword energy
        is added to what the frame holds."""
        configs = [awgn_cfg(), fading_cfg(), awgn_cfg(codec=ML8, pilot_len=50)]
        configs.append(TwoStepConfig(
            preamble=PreambleSpec(size=1024, base_length=139, repetitions=2),
            n_occasions=64, codec=ORACLE, pilot_len=50,
            channel_model=ChannelModel.RAYLEIGH, rho=2,
        ))
        power = 0.8
        for cfg in configs:
            for seed in range(5):
                frame, user = encode_frame(cfg, seed + 1, np.random.default_rng(seed), power=power)
                sent = energy(frame)
                if cfg.codec.model is CodecModel.ORACLE_THRESHOLD:
                    copies = len(user.occasions)
                    preamble = energy(frame[: cfg.preamble.length])
                    assert sent == pytest.approx(preamble + copies * energy(user.copy_signal))
                    sent += copies * user.codeword_energy
                assert sent <= len(frame) * power * (1 + 1e-9)


class TestTwoStepReceive:
    def test_single_user_high_snr(self):
        cfg = awgn_cfg()
        power = 10 ** 2.0    # 20 dB
        ok = 0
        trials = 1000
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            user = encode_user(cfg, draw_message(rng, 100), rng, power=power)
            record = TransmissionRecord(cfg, power, [user])
            y = transmit(cfg, [user], 1.0, rng)
            out = twostep_receive(y, cfg, ReceiverMode.TIN, record)
            ok += user.message in out.decoded_messages
        assert ok / trials >= 0.99

    def test_awgn_equal_power_preamble_collision_both_fail(self):
        cfg = awgn_cfg()
        power = 10 ** 2.0
        rng = np.random.default_rng(0)
        u1 = encode_user(cfg, 111, rng, power=power, preamble_index=5)
        u2 = encode_user(cfg, 222, rng, power=power, preamble_index=5)
        record = TransmissionRecord(cfg, power, [u1, u2])
        y = transmit(cfg, [u1, u2], 1.0, rng)
        out = twostep_receive(y, cfg, ReceiverMode.TIN, record)
        assert 111 not in out.decoded_messages
        assert 222 not in out.decoded_messages

    def test_fading_collision_at_most_stronger_decodes(self):
        cfg = fading_cfg()
        power = 10 ** 2.0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            u1 = encode_user(cfg, 111, rng, power=power, gain=1.4 + 0j, preamble_index=5)
            u2 = encode_user(cfg, 222, rng, power=power, gain=0.2 + 0j, preamble_index=5)
            record = TransmissionRecord(cfg, power, [u1, u2])
            y = transmit(cfg, [u1, u2], 1.0, rng)
            out = twostep_receive(y, cfg, ReceiverMode.TIN, record)
            assert 222 not in out.decoded_messages

    def test_tin_sic_superset_of_tin(self):
        cfg = fading_cfg()
        power = 10 ** 1.2
        for seed in range(40):
            rng = np.random.default_rng(seed)
            users = []
            for _ in range(6):
                gain = complex(
                    (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                )
                users.append(encode_user(cfg, draw_message(rng, 100), rng,
                                         power=power, gain=gain))
            record = TransmissionRecord(cfg, power, users)
            y = transmit(cfg, users, 1.0, rng)
            tin = twostep_receive(y, cfg, ReceiverMode.TIN, record)
            sic = twostep_receive(y, cfg, ReceiverMode.TIN_SIC, record)
            assert sic.decoded_messages >= tin.decoded_messages
            assert sic.sic_rounds <= len(users) + 1

    def test_unsourced_symmetry(self):
        cfg = fading_cfg()
        power = 10.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            users = []
            for _ in range(5):
                gain = complex(
                    (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                )
                users.append(encode_user(cfg, draw_message(rng, 100), rng,
                                         power=power, gain=gain))
            y = transmit(cfg, users, 1.0, rng)
            fwd = twostep_receive(
                y, cfg, ReceiverMode.TIN_SIC, TransmissionRecord(cfg, power, users)
            )
            rev = twostep_receive(
                y, cfg, ReceiverMode.TIN_SIC,
                TransmissionRecord(cfg, power, list(reversed(users))),
            )
            assert fwd.decoded_messages == rev.decoded_messages

    def test_sic_cancel_leaves_the_other_users(self):
        cfg = fading_cfg(
            preamble=PreambleSpec(size=1024, base_length=139, repetitions=2),
        )
        rng = np.random.default_rng(8)
        users = [
            encode_user(cfg, draw_message(rng, 100), rng, power=4.0, gain=g)
            for g in (0.9 + 0.4j, -0.3 + 1.1j, 0.5 - 0.7j)
        ]
        frame = _SicFrame(transmit(cfg, users, 0.0, rng), TransmissionRecord(cfg, 4.0, users))
        frame.cancel(users[:2])
        rest = transmit(cfg, users[2:], 0.0, rng)
        assert np.allclose(frame.y, rest, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("third, pins", [
        (False, [({4242}, 2, [1, 0]), ({4242}, 2, [1, 0])]),
        (True, [({999, 4242}, 3, [1, 1, 0]), ({4242}, 2, [1, 0])]),
    ])
    def test_tin_sic_same_preamble_same_message(self, third, pins):
        """Outcome pins for two users with one preamble, one message and
        unequal gains, listed strong first and then weak first.  The decode
        is aimed at the strong user, but the user cancelled is the first of
        the record with the decoded message: in the reverse order the weak
        one.  With a third user on another preamble in the same occasion,
        only the forward order cancels the strong user's interference and
        decodes the third in a later round."""
        cfg = fading_cfg(preamble=PreambleSpec(size=1024, base_length=139, repetitions=2))
        power = 10 ** 2.0
        rng = np.random.default_rng(5)
        strong = encode_user(cfg, 4242, rng, power=power, gain=2.0 + 0j, preamble_index=5)
        weak = encode_user(cfg, 4242, rng, power=power, gain=0.3 + 0j, preamble_index=5)
        others = [encode_user(cfg, 999, rng, power=power, gain=0.8 + 0j, preamble_index=69)]
        others = others if third else []
        y = transmit(cfg, [strong, weak] + others, 1.0, rng)
        for order, (decoded, rounds, round_decodes) in zip(([strong, weak], [weak, strong]), pins):
            record = TransmissionRecord(cfg, power, order + others)
            out = twostep_receive(y, cfg, ReceiverMode.TIN_SIC, record)
            assert (out.decoded_messages, out.sic_rounds) == (decoded, rounds)
            assert out.round_decodes == round_decodes


class TestTwoStepReceiveMany:
    def test_batch_matches_one_frame_at_a_time(self):
        # Different user counts give the frames different OMP iteration caps
        # and SIC round counts.
        cfg = fading_cfg()
        power = 10 ** 1.2
        rng = np.random.default_rng(11)
        frames, records = [], []
        for ka in (1, 3, 5, 8, 2, 6, 4):
            users = []
            for _ in range(ka):
                gain = complex(
                    (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                )
                users.append(encode_user(cfg, draw_message(rng, 100), rng,
                                         power=power, gain=gain))
            records.append(TransmissionRecord(cfg, power, users))
            frames.append(transmit(cfg, users, 1.0, rng))
        before = [y.copy() for y in frames]
        for mode in ReceiverMode:
            many = twostep_receive_many(frames, cfg, mode, records)
            alone = [twostep_receive(y, cfg, mode, r) for y, r in zip(frames, records)]
            assert many == alone
            assert all(np.array_equal(y, b) for y, b in zip(frames, before))
        assert any(out.sic_rounds > 1 for out in many)
        assert sum(len(out.decoded_messages) for out in many) > 0

    def test_frame_and_record_counts_must_match(self):
        cfg = fading_cfg()
        with pytest.raises(ValueError):
            twostep_receive_many([np.zeros(cfg.frame_len, complex)], cfg,
                                 ReceiverMode.TIN, [])


class TestSbidmaReceive:
    def test_rho1_bitwise_identical_outcomes(self):
        ts = TwoStepConfig(
            preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
            n_occasions=8, codec=ML8,
            energy_policy=EnergyPolicy.PER_COPY_FULL,
        )
        sb = TwoStepConfig(
            preamble=PreambleSpec(size=8, base_length=31, repetitions=2),
            n_occasions=8, codec=ML8, rho=1,
            energy_policy=EnergyPolicy.SPLIT_ACROSS_COPIES,
        )
        for seed in range(50):
            a = TwoStepExperiment(config=ts).run_trial(3, 5.0, np.random.default_rng(seed))
            b = TwoStepExperiment(config=sb).run_trial(3, 5.0, np.random.default_rng(seed))
            assert a == b

    def test_mrc_single_user_equals_full_power_single_copy(self):
        # SplitAcrossCopies, no interference: sum of the two per-copy SINRs
        # equals the one-copy full-power SINR.
        pre = PreambleSpec(size=1024, base_length=139, repetitions=2)
        sb = TwoStepConfig(preamble=pre, rho=2, n_occasions=64, codec=ORACLE, pilot_len=0)
        ts = TwoStepConfig(preamble=pre, n_occasions=64, codec=ORACLE, pilot_len=0)
        power = 2.7
        rng = np.random.default_rng(4)
        u2 = encode_user(sb, 9, rng, power=power, preamble_index=17)
        u1 = encode_user(ts, 9, rng, power=power, preamble_index=17)
        y = np.zeros(sb.frame_len, dtype=complex)
        s2 = _effective_sinr(sb, u2, [u2], y)
        s1 = _effective_sinr(ts, u1, [u1], y[: ts.frame_len])
        assert s2 == pytest.approx(s1, rel=1e-12)

    def test_sic_dominance(self):
        cfg = TwoStepConfig(
            preamble=PreambleSpec(size=1024, base_length=139, repetitions=2),
            n_occasions=64, codec=ORACLE, pilot_len=50,
            channel_model=ChannelModel.RAYLEIGH, rho=2,
            energy_policy=EnergyPolicy.PER_COPY_FULL,
        )
        power = 10 ** 1.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            users = []
            for _ in range(8):
                gain = complex(
                    (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
                )
                users.append(encode_user(cfg, draw_message(rng, 100), rng,
                                         power=power, gain=gain))
            record = TransmissionRecord(cfg, power, users)
            y = transmit(cfg, users, 1.0, rng)
            tin = twostep_receive(y, cfg, ReceiverMode.TIN, record)
            sic = twostep_receive(y, cfg, ReceiverMode.TIN_SIC, record)
            assert sic.decoded_messages >= tin.decoded_messages


class TestSlottedAlohaReceive:
    SA = SlottedAlohaConfig(slots=64, codec=CodecSpec(codeword_bits=128, payload_bits=8))

    def test_single_user_high_snr(self):
        exp = SlottedAlohaExperiment(config=self.SA)
        failed = 0
        for seed in range(1000):
            f, _ = exp.run_trial(1, 30.0, np.random.default_rng(seed))
            failed += f
        assert 1 - failed / 1000 >= 0.99

    def test_forced_collision_both_fail(self):
        from umacsim.codec import encode

        power = 10 ** 3.0
        y = np.zeros(self.SA.frame_len, dtype=complex)
        slot = 7
        for msg in (10, 20):
            y[slot * 64 : (slot + 1) * 64] += encode(self.SA.codec, msg, power=power)
        out = slotted_aloha_receive(
            y, self.SA, ReceiverMode.TIN, [(10, slot), (20, slot)], power
        )
        assert out.decoded_messages == set()

    def test_sic_leaves_the_callers_frame(self):
        from umacsim.codec import encode

        cfg = SlottedAlohaConfig(slots=4, codec=ML8)
        power = 10 ** 2.0
        placements = [(10, 1), (20, 3)]
        y = complex_noise(cfg.frame_len, 1.0, np.random.default_rng(5))
        for msg, slot in placements:
            y[slot * 64 : (slot + 1) * 64] += encode(cfg.codec, msg, power=power)
        before = y.copy()
        out = slotted_aloha_receive(y, cfg, ReceiverMode.TIN_SIC, placements, power)
        # Both users decode in round 1 and are cancelled before round 2.
        assert out.decoded_messages == {10, 20}
        assert out.round_decodes == [2, 0]
        assert np.array_equal(y, before)

    def test_collision_floor(self):
        from umacsim.bounds import aloha_collision_probability
        from umacsim.montecarlo import estimate_pupe

        exp = SlottedAlohaExperiment(config=self.SA)
        est = estimate_pupe(exp, 10, 40.0, 10_000, seed=3)
        floor = aloha_collision_probability(10, 64)
        assert abs(est.pupe - floor) / floor < 0.10


class TestSicPasses:
    def test_later_rounds_make_no_beta0_pass(self, monkeypatch):
        """A TIN-SIC receive at `GRAM_BYTES` 0 fills one Gram store of its
        own for all of its rounds.  Only its first round makes a beta0
        pass; a later round takes beta0 from the cancelled preambles' Gram
        rows, and fetches a missing one (the last pick of a frame that
        stopped right after it) in a pass, once: no row is fetched twice.
        The outcomes are those with the dictionary's own store."""
        cfg = fading_cfg(preamble=PreambleSpec(size=1024, base_length=139, repetitions=2))
        power = 10 ** 1.5
        rng = np.random.default_rng(25)
        frames, records = [], []
        for ka in (6, 12, 3, 9):
            users = []
            for _ in range(ka):
                gain = complex((rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2))
                users.append(encode_user(cfg, draw_message(rng, 100), rng, power=power, gain=gain))
            records.append(TransmissionRecord(cfg, power, users))
            frames.append(transmit(cfg, users, 1.0, rng))
        expected = twostep_receive_many(frames, cfg, ReceiverMode.TIN_SIC, records)

        stores, calls, missing = [], [], []
        make_store = protocols.gram_store

        def recorded_store(dictionary):
            stores.append(make_store(dictionary))
            return stores[-1]

        whole = detection._pass

        def counted(rows, a, out):
            kind = "gram" if np.may_share_memory(out, stores[-1][0]) else "beta0"
            calls[-1].append((kind, rows.shape[0]))
            return whole(rows, a, out)

        detect = protocols.omp_detect_many

        def recorded(*args, histories, **kwargs):
            slot = stores[-1][1]
            missing.extend(
                j for h in histories if h.beta0 is not None for j in h.atoms if slot[j] < 0
            )
            calls.append([])
            return detect(*args, histories=histories, **kwargs)

        monkeypatch.setattr(detection, "GRAM_BYTES", 0)
        monkeypatch.setattr(protocols, "gram_store", recorded_store)
        monkeypatch.setattr(detection, "_pass", counted)
        monkeypatch.setattr(protocols, "omp_detect_many", recorded)
        outcomes = twostep_receive_many(frames, cfg, ReceiverMode.TIN_SIC, records)
        assert outcomes == expected
        assert len(stores) == 1 and len(calls) >= 3
        assert calls[0][0] == ("beta0", len(frames))
        assert all(kind == "gram" for call in calls for kind, _ in call[1:])
        assert all(kind == "gram" for call in calls[1:] for kind, _ in call)
        assert any(call == [] for call in calls[1:])
        slot = stores[0][1]
        # A frame that does not run in its round (its energy meets its
        # threshold) needs no beta0, so its missing rows stay missing.
        assert (slot[missing] >= 0).any()
        fetched = sum(rows for call in calls for kind, rows in call if kind == "gram")
        assert fetched == (slot >= 0).sum()
