import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umacsim import montecarlo
from umacsim.channel import ChannelModel
from umacsim.codec import CodecModel, CodecSpec, SlottedAlohaConfig
from umacsim.montecarlo import (
    TRIAL_BATCH,
    MonteCarloError,
    SlottedAlohaExperiment,
    TwoStepExperiment,
    _trial_rng,
    draw_message,
    estimate_pupe,
    min_snr_for_pupe,
    run_sweep,
    wilson_interval,
)
from umacsim.protocols import ReceiverMode, TwoStepConfig
from umacsim.sequences import DictionaryKind, PreambleSpec

ORACLE = CodecSpec(codeword_bits=500, payload_bits=100)
ML8 = CodecSpec(codeword_bits=128, payload_bits=8, model=CodecModel.ML_RANDOM_GAUSSIAN)


def baseline_experiment(**over):
    cfg = TwoStepConfig(
        preamble=PreambleSpec(size=64, base_length=139, repetitions=2),
        n_occasions=64, codec=ORACLE,
        pilot_len=0, channel_model=ChannelModel.AWGN,
    )
    return TwoStepExperiment(config=cfg, **over)


class TestWilson:
    def test_interval_orders(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            total = int(rng.integers(1, 5000))
            failures = int(rng.integers(0, total + 1))
            lo, hi = wilson_interval(failures, total)
            p = failures / total
            assert 0.0 <= lo <= p + 1e-12
            assert p - 1e-12 <= hi <= 1.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3000).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))))
    @example((0, 3))
    @example((10, 10))
    def test_interval_contains_estimate(self, case):
        failures, total = case
        lo, hi = wilson_interval(failures, total)
        assert 0.0 <= lo <= failures / total <= hi <= 1.0

    def test_coverage_at_p005(self):
        p = 0.05
        n = 500
        rng = np.random.default_rng(42)
        covered = 0
        meta = 1000
        for _ in range(meta):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(k, n)
            covered += lo <= p <= hi
        assert 0.93 <= covered / meta <= 0.97

    def test_invalid_inputs(self):
        with pytest.raises(MonteCarloError):
            wilson_interval(1, 0)
        with pytest.raises(MonteCarloError):
            wilson_interval(5, 4)


class TestDrawMessage:
    def test_range_and_determinism(self):
        for bits in (1, 8, 64, 100):
            a = draw_message(np.random.default_rng(1), bits)
            b = draw_message(np.random.default_rng(1), bits)
            assert a == b
            assert 0 <= a < (1 << bits)

    def test_spread(self):
        rng = np.random.default_rng(2)
        vals = {draw_message(rng, 100) for _ in range(100)}
        assert len(vals) == 100


class TestEstimatePupe:
    def test_noiseless_single_user_perfect(self):
        # 40 dB over a noise power of 1e-12: 160 dB over unit noise.
        est = estimate_pupe(baseline_experiment(), 1, 160.0, 20, seed=1)
        assert est.pupe == 0.0

    def test_huge_noise_total_loss(self):
        exp = baseline_experiment()
        est = estimate_pupe(exp, 3, -100.0, 20, seed=1)
        assert est.pupe == 1.0

    def test_determinism(self):
        exp = baseline_experiment()
        a = estimate_pupe(exp, 4, 0.0, 50, seed=9)
        b = estimate_pupe(exp, 4, 0.0, 50, seed=9)
        assert a == b

    def test_parallel_matches_serial(self, monkeypatch):
        exp = baseline_experiment()
        serial = estimate_pupe(exp, 3, 0.0, 40, seed=5)
        monkeypatch.setenv("UMAC_BENCH_THREADS", "2")
        parallel = estimate_pupe(exp, 3, 0.0, 40, seed=5)
        assert serial == parallel

    def test_batching_does_not_change_counts(self, monkeypatch):
        # Serial runs and two workers both batch the 37 trials as 16+16+5
        # (the workers take two batches and one), and run_trial as 37
        # batches of one.
        cfg = TwoStepConfig(
            preamble=PreambleSpec(size=96, base_length=48, kind=DictionaryKind.GAUSSIAN),
            n_occasions=12,
            codec=CodecSpec(codeword_bits=200, payload_bits=100), pilot_len=20,
            channel_model=ChannelModel.RAYLEIGH, rho=2,
        )
        exp = TwoStepExperiment(config=cfg, receiver=ReceiverMode.TIN_SIC)
        ka, snr_db, trials, seed = 8, 10.0, 37, 3
        assert trials > 2 * TRIAL_BATCH
        serial = estimate_pupe(exp, ka, snr_db, trials, seed)
        monkeypatch.setenv("UMAC_BENCH_THREADS", "2")
        parallel = estimate_pupe(exp, ka, snr_db, trials, seed)
        one_by_one = [
            exp.run_trial(ka, snr_db, _trial_rng(seed, ka, 0, t)) for t in range(trials)
        ]
        assert serial == parallel
        assert (serial.failures, serial.clashes) == tuple(map(sum, zip(*one_by_one)))
        assert 0 < serial.failures < serial.total

    def test_validation(self):
        exp = baseline_experiment()
        with pytest.raises(MonteCarloError):
            estimate_pupe(exp, 0, 0.0, 10, seed=1)
        with pytest.raises(MonteCarloError):
            estimate_pupe(exp, 1, 0.0, 0, seed=1)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
    def test_malformed_worker_count_rejected_before_any_trial(self, monkeypatch, raw):
        class NoTrials:
            def run_trials(self, ka, snr_db, rngs):
                raise AssertionError("trial run")

        monkeypatch.setenv("UMAC_BENCH_THREADS", raw)
        with pytest.raises(MonteCarloError, match=f"UMAC_BENCH_THREADS.*{raw!r}"):
            estimate_pupe(NoTrials(), 1, 0.0, 40, seed=1)

    def test_pool_sized_to_its_batches(self, monkeypatch):
        """A probe gets at most one worker per batch, and a one-batch probe
        builds no pool; the fake pool maps in this process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakePool)
        # More CPUs than workers asked for, so the CPU cap is not what binds.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.delenv("UMAC_BENCH_THREADS", raising=False)
        exp = SlottedAlohaExperiment(SlottedAlohaConfig(4, CodecSpec(16, 4)))
        serial = estimate_pupe(exp, 3, 5.0, 20, seed=2)
        monkeypatch.setenv("UMAC_BENCH_THREADS", "4")
        assert estimate_pupe(exp, 3, 5.0, 20, seed=2) == serial
        assert sizes == [2]
        monkeypatch.setenv("UMAC_BENCH_THREADS", "2")
        estimate_pupe(exp, 3, 5.0, TRIAL_BATCH, seed=2)
        assert sizes == [2]

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        """However many workers UMAC_BENCH_THREADS asks for, a probe gets at
        most one per CPU this process may run on.  No real pool starts: the
        fake one records its size and maps in this process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("UMAC_BENCH_THREADS", "64")
        exp = SlottedAlohaExperiment(SlottedAlohaConfig(4, CodecSpec(16, 4)))
        pooled = estimate_pupe(exp, 3, 5.0, 5 * TRIAL_BATCH, seed=2)
        assert sizes == [2]
        monkeypatch.delenv("UMAC_BENCH_THREADS")
        assert estimate_pupe(exp, 3, 5.0, 5 * TRIAL_BATCH, seed=2) == pooled


class TestRandomStream:
    def test_numpy_stream_pinned(self):
        """Every golden count, CSV pin and probe fingerprint rests on these
        streams: SeedSequence(entropy, spawn_key) into PCG64, and
        Generator.integers and standard_normal as the simulator calls them."""
        rng = _trial_rng(2024, 30, 0, 0)
        draws = (
            [int(rng.integers(0, 1 << 32)) for _ in range(3)],      # draw_message
            [rng.standard_normal() for _ in range(2)],              # a fading gain
            int(rng.integers(0, 1024)),                             # a preamble
            rng.standard_normal(3).tolist(),                        # complex_noise
        )
        assert draws == (
            [223260281, 1418164929, 4069837731],
            [-0.16614713180686097, -0.5206243278108025],
            520,
            [-0.8000687399526372, -1.3907777216165278, 0.28733665932218266],
        ), (
            f"numpy {np.__version__} draws another random stream than the one every "
            "golden was recorded under (numpy 2.4), so every golden count, CSV pin and "
            "probe fingerprint will differ too. The simulator is not at fault: the "
            "goldens must be re-recorded under this numpy, or numpy pinned."
        )


class TestMinSnrSearch:
    def test_known_step_single_user(self):
        # Single user, oracle codec, clean detection: PUPE steps from 1 to ~0
        # exactly at the codec threshold.
        from umacsim.codec import decode_threshold

        exp = baseline_experiment()
        step_db = 10 * math.log10(decode_threshold(ORACLE))
        point = min_snr_for_pupe(
            exp, 1, 0.05, -10.0, 10.0, seed=3, tol_db=0.1,
            trials_schedule=(100, 100, 300),
        )
        assert point.min_snr_db is not None
        assert abs(point.min_snr_db - step_db) <= 0.2

    def test_target_one_returns_lo(self):
        exp = baseline_experiment()
        point = min_snr_for_pupe(exp, 2, 1.0, -5.0, 5.0, seed=1, trials_schedule=(10,))
        assert point.min_snr_db == -5.0

    def test_not_found_marker(self):
        exp = baseline_experiment()
        # Ka=8 sits on a ~0.1 preamble-collision floor: unreachable target 0.04.
        point = min_snr_for_pupe(
            exp, 8, 0.04, -5.0, 20.0, seed=2, trials_schedule=(50, 100, 200)
        )
        assert point.min_snr_db is None
        assert "not found" in point.notes

    def test_tolerance_nesting(self):
        exp = baseline_experiment()
        coarse = min_snr_for_pupe(
            exp, 1, 0.05, -10.0, 10.0, seed=4, tol_db=0.5, trials_schedule=(200,)
        )
        fine = min_snr_for_pupe(
            exp, 1, 0.05, -10.0, 10.0, seed=4, tol_db=0.1, trials_schedule=(200,)
        )
        assert abs(coarse.min_snr_db - fine.min_snr_db) <= 0.5

    def test_invalid_bracket(self):
        with pytest.raises(MonteCarloError):
            min_snr_for_pupe(baseline_experiment(), 1, 0.05, 5.0, 5.0, seed=1)

    @pytest.mark.parametrize("tol_db", [0.0, -1.0])
    def test_non_positive_tolerance_rejected_before_any_probe(self, tol_db):
        class NoTrials:
            def run_trials(self, ka, snr_db, rngs):
                raise AssertionError("probe run")

        with pytest.raises(MonteCarloError, match="tol_db"):
            min_snr_for_pupe(NoTrials(), 1, 0.05, -5.0, 50.0, seed=1, tol_db=tol_db)

    def test_tolerance_below_float_spacing_ends(self):
        # With tol_db under the spacing of floats near the step, the midpoint
        # of adjacent bounds rounds to one of them; the search used to loop.
        class Step:
            probes = 0

            def run_trials(self, ka, snr_db, rngs):
                Step.probes += 1
                if Step.probes > 200:
                    raise AssertionError("bisection did not end")
                return [(ka if snr_db < 3.0 else 0, 0) for _ in rngs]

        point = min_snr_for_pupe(Step(), 1, 0.05, -5.0, 50.0, seed=1, tol_db=1e-300,
                                 trials_schedule=(1,))
        assert point.min_snr_db == 3.0
        assert point.pupe == 0.0

    @pytest.mark.parametrize(
        "snr_lo, snr_hi",
        [(-math.inf, 10.0), (math.nan, 10.0), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_non_finite_bracket_rejected(self, snr_lo, snr_hi):
        # A -inf midpoint stays -inf, so that bisection never ended.
        with pytest.raises(MonteCarloError, match="finite"):
            min_snr_for_pupe(baseline_experiment(), 1, 0.05, snr_lo, snr_hi, seed=1)

    def test_overflowing_snr_rejected_before_any_probe(self):
        # 10^400 used to raise OverflowError in the snr_hi probe.
        class NoTrials:
            def run_trials(self, ka, snr_db, rngs):
                raise AssertionError("probe run")

        with pytest.raises(MonteCarloError, match="4000 dB overflows"):
            min_snr_for_pupe(NoTrials(), 1, 0.05, -5.0, 4000.0, seed=1)


class TestRunSweep:
    def test_empty_list(self):
        assert run_sweep(baseline_experiment(), [], 0.05, -5, 5, seed=1) == []

    def test_single_point_equals_direct_call(self):
        exp = baseline_experiment()
        sweep = run_sweep(exp, [1], 0.05, -10.0, 10.0, seed=7, trials_schedule=(50, 100))
        direct = min_snr_for_pupe(exp, 1, 0.05, -10.0, 10.0, seed=7,
                                  trials_schedule=(50, 100))
        assert sweep == [direct]

    def test_rerun_identical(self):
        exp = baseline_experiment()
        a = run_sweep(exp, [1, 2], 0.05, -10.0, 10.0, seed=8, trials_schedule=(30, 60))
        b = run_sweep(exp, [1, 2], 0.05, -10.0, 10.0, seed=8, trials_schedule=(30, 60))
        assert a == b

    def test_order_independence(self):
        exp = baseline_experiment()
        fwd = run_sweep(exp, [1, 2], 0.05, -10.0, 10.0, seed=8, trials_schedule=(30, 60))
        rev = run_sweep(exp, [2, 1], 0.05, -10.0, 10.0, seed=8, trials_schedule=(30, 60))
        assert sorted(map(repr, fwd)) == sorted(map(repr, rev))


class TestClashAccounting:
    def test_clash_counts_as_decoded_when_output(self):
        # Tiny payload space forces clashes; a clashed message present in the
        # output set counts for every user that drew it.
        cfg = SlottedAlohaConfig(slots=16, codec=CodecSpec(codeword_bits=64, payload_bits=2))
        exp = SlottedAlohaExperiment(config=cfg)
        est = estimate_pupe(exp, 6, 30.0, 200, seed=11)
        assert est.clashes > 0
        assert 0.0 <= est.pupe <= 1.0
