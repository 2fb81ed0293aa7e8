"""PUPE estimation with Wilson confidence intervals and the minimum-SNR
bisection search that produces load-versus-SNR operating curves.

Determinism: every trial owns an rng seeded by
``SeedSequence(entropy=root_seed, spawn_key=(ka, probe, trial))`` where
`probe` counts SNR evaluations inside a search, so results are independent
of execution order, of the worker count (``UMAC_BENCH_THREADS``) and of
how trials are grouped into batches (``TRIAL_BATCH``).
All aggregation sums integer counters.  An experiment's SNR is the transmit
power per sample over unit-power noise.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, complex_noise
from .codec import SlottedAlohaConfig, encode
from .protocols import (
    ReceiverMode,
    TransmissionRecord,
    TwoStepConfig,
    encode_user,
    slotted_aloha_receive,
    twostep_receive,  # noqa: F401  perfbench/spans.py wraps it under this name
    twostep_receive_many,
)

# Trials received together by `run_trials`.  A two-step batch reads the
# preamble dictionary once per OMP iteration instead of once per trial, and
# holds this many frames and their users' signals at once.  Per-trial seeds
# make the counts independent of how trials are batched and of which
# process runs a batch.
TRIAL_BATCH = 16


class MonteCarloError(ValueError):
    pass


@dataclass(frozen=True)
class PupeEstimate:
    pupe: float
    ci_low: float
    ci_high: float
    trials: int
    failures: int              # messages missing from the decoded set
    total: int                 # trials * ka
    clashes: int               # users that drew an already-drawn message

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.pupe <= self.ci_high <= 1.0:
            raise MonteCarloError(
                f"interval ordering violated: {self.ci_low}, {self.pupe}, {self.ci_high}"
            )

    @property
    def std_error(self) -> float:
        p = self.pupe
        return math.sqrt(max(p * (1.0 - p), 1.0 / self.total) / self.total)


@dataclass(frozen=True)
class PupeCurvePoint:
    ka: int
    min_snr_db: float | None       # None <=> not found below snr_hi
    pupe: float
    ci_low: float
    ci_high: float
    trials: int
    notes: str = ""


def wilson_interval(failures: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, clamped so that
    0 <= lo <= failures / total <= hi <= 1 despite rounding in center +- half."""
    if total < 1:
        raise MonteCarloError("total must be >= 1")
    if not 0 <= failures <= total:
        raise MonteCarloError(f"failures {failures} outside [0, {total}]")
    p = failures / total
    z = 1.959963984540054       # the normal quantile of a 95% two-sided interval
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def _snr_power(snr_db: float) -> float:
    """Transmit power per sample over unit-power noise at `snr_db` dB."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise MonteCarloError(f"an SNR of {snr_db:g} dB overflows a float") from None


def draw_message(rng: np.random.Generator, bits: int) -> int:
    """Uniform integer in [0, 2^bits), valid beyond 64-bit payloads."""
    value = 0
    for _ in range((bits + 31) // 32):
        value = (value << 32) | int(rng.integers(0, 1 << 32))
    return value & ((1 << bits) - 1)


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class TwoStepExperiment:
    """Two-step message-A trial (covers SB-IDMA through the config's rho)."""

    config: TwoStepConfig
    receiver: ReceiverMode = ReceiverMode.TIN

    def run_trial(self, ka: int, snr_db: float, rng: np.random.Generator) -> tuple[int, int]:
        """(failed, clashes) of one trial: `run_trials` on a single rng."""
        return self.run_trials(ka, snr_db, [rng])[0]

    def run_trials(
        self, ka: int, snr_db: float, rngs: list[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """(failed, clashes) per rng.  Each trial draws its users and then its
        noise from its own rng; the frames are received together
        (`twostep_receive_many`), which gives each the outcome it would get
        alone."""
        cfg = self.config
        power = _snr_power(snr_db)
        fading = cfg.channel_model is ChannelModel.RAYLEIGH
        records = []
        for rng in rngs:
            users = []
            for _ in range(ka):
                msg = draw_message(rng, cfg.codec.payload_bits)
                if fading:
                    gain = complex(
                        (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
                    )
                else:
                    gain = 1.0 + 0.0j
                users.append(encode_user(cfg, msg, rng, power=power, gain=gain))
            records.append(TransmissionRecord(config=cfg, power=power, users=users))
        # A generator: the receiver copies each frame as it takes it, so the
        # frames built here are freed one by one instead of all staying alive.
        frames = (self._frame(record, rng) for record, rng in zip(records, rngs))
        outcomes = twostep_receive_many(frames, cfg, self.receiver, records)
        return [
            _score([u.message for u in record.users], outcome.decoded_messages)
            for record, outcome in zip(records, outcomes)
        ]

    def _frame(self, record: TransmissionRecord, rng: np.random.Generator) -> np.ndarray:
        """Noise from `rng` plus every user's faded transmission."""
        y = complex_noise(self.config.frame_len, 1.0, rng)
        for u in record.users:
            record.add_user(y, u, u.gain)
        return y


@dataclass(frozen=True)
class SlottedAlohaExperiment:
    config: SlottedAlohaConfig
    receiver: ReceiverMode = ReceiverMode.TIN

    def run_trial(self, ka: int, snr_db: float, rng: np.random.Generator) -> tuple[int, int]:
        cfg = self.config
        power = _snr_power(snr_db)
        placements = []
        for _ in range(ka):
            msg = draw_message(rng, cfg.codec.payload_bits)
            placements.append((msg, int(rng.integers(0, cfg.slots))))
        y = complex_noise(cfg.frame_len, 1.0, rng)
        for msg, slot in placements:
            cfg.slot(y, slot)[...] += encode(cfg.codec, msg, power=power)
        outcome = slotted_aloha_receive(y, cfg, self.receiver, placements, power)
        return _score([m for m, _ in placements], outcome.decoded_messages)

    def run_trials(
        self, ka: int, snr_db: float, rngs: list[np.random.Generator]
    ) -> list[tuple[int, int]]:
        """(failed, clashes) per rng, one `run_trial` each."""
        return [self.run_trial(ka, snr_db, rng) for rng in rngs]


def _score(messages: list[int], decoded: set[int]) -> tuple[int, int]:
    """(failed, clashes): messages missing from the decoded set, and users
    that drew an already-drawn message."""
    failed = sum(m not in decoded for m in messages)
    return failed, len(messages) - len(set(messages))


# ---------------------------------------------------------------------------
# estimation


def _trial_rng(seed: int, ka: int, probe: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(ka, probe, trial))
    )


def _run_batch(experiment, ka, snr_db, seed, probe, trials: range) -> tuple[int, int]:
    """(failed, clashes) summed over one batch of trials."""
    rngs = [_trial_rng(seed, ka, probe, t) for t in trials]
    return tuple(map(sum, zip(*experiment.run_trials(ka, snr_db, rngs))))


def _worker_count() -> int:
    """UMAC_BENCH_THREADS, which must be a positive integer; unset means 1."""
    raw = os.environ.get("UMAC_BENCH_THREADS", "1")
    if not (raw.isdecimal() and int(raw) >= 1):
        raise MonteCarloError(f"UMAC_BENCH_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def estimate_pupe(
    experiment,
    ka: int,
    snr_db: float,
    trials: int,
    seed: int,
    probe: int = 0,
) -> PupeEstimate:
    """Monte-Carlo PUPE: per trial, ka users draw i.i.d. uniform messages and
    the contribution is the count of messages absent from the decoded set.
    A clashed message counts as decoded for every user that drew it.  The
    trials run in `TRIAL_BATCH` batches, here or over at most a worker per batch."""
    if trials < 1:
        raise MonteCarloError(f"trials must be >= 1, got {trials}")
    if ka < 1:
        raise MonteCarloError(f"ka must be >= 1, got {ka}")
    batches = [range(s, min(s + TRIAL_BATCH, trials)) for s in range(0, trials, TRIAL_BATCH)]
    # A fork pool starts all its workers at once, so it gets one per batch at most.
    workers = min(_worker_count(), len(batches))
    run_batch = functools.partial(_run_batch, experiment, ka, snr_db, seed, probe)
    if workers == 1:
        counts = list(map(run_batch, batches))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_batch, batches, chunksize=-(-len(batches) // workers)))
    failed, clashes = map(sum, zip(*counts))
    total = trials * ka
    lo, hi = wilson_interval(failed, total)
    return PupeEstimate(
        pupe=failed / total,
        ci_low=lo,
        ci_high=hi,
        trials=trials,
        failures=failed,
        total=total,
        clashes=clashes,
    )


# ---------------------------------------------------------------------------
# minimum-SNR search


def min_snr_for_pupe(
    experiment,
    ka: int,
    target_eps: float,
    snr_lo: float,
    snr_hi: float,
    seed: int,
    tol_db: float = 0.1,
    trials_schedule: tuple[int, ...] = (200, 500, 1000),
) -> PupeCurvePoint:
    """Bisection on SNR (dB) for the smallest SNR with PUPE <= target_eps.

    Assumes PUPE non-increasing in SNR; a detected violation (PUPE at snr_hi
    above PUPE at snr_lo by > 5 combined sigma) is flagged in `notes`, not
    hidden.  Early probes use coarse trial counts per `trials_schedule`; the
    feasibility decision at snr_hi uses the finest count.  Returns a point
    with min_snr_db None when even snr_hi misses the target.  Bisection
    stops at `tol_db`, or earlier once no float lies between its bounds.
    """
    if not (math.isfinite(snr_lo) and math.isfinite(snr_hi)):
        raise MonteCarloError(f"snr_lo and snr_hi must be finite, got {snr_lo}, {snr_hi}")
    _snr_power(snr_hi)          # no probe's power overflows after this
    if snr_lo >= snr_hi:
        raise MonteCarloError(f"need snr_lo < snr_hi, got {snr_lo} >= {snr_hi}")
    if not trials_schedule:
        raise MonteCarloError("trials_schedule must be non-empty")
    if not tol_db > 0.0:
        raise MonteCarloError(f"tol_db must be positive, got {tol_db}")
    probes = itertools.count()
    notes: list[str] = []

    def evaluate(snr_db: float, trials: int) -> PupeEstimate:
        return estimate_pupe(experiment, ka, snr_db, trials, seed, probe=next(probes))

    def point(snr_db: float | None, est: PupeEstimate) -> PupeCurvePoint:
        return PupeCurvePoint(
            ka, snr_db, est.pupe, est.ci_low, est.ci_high, est.trials, "; ".join(notes)
        )

    est_lo = evaluate(snr_lo, trials_schedule[0])
    if est_lo.pupe <= target_eps:
        notes.append("target already met at snr_lo")
        return point(snr_lo, est_lo)
    est_hi = evaluate(snr_hi, trials_schedule[-1])
    combined_se = math.hypot(est_lo.std_error, est_hi.std_error)
    if est_hi.pupe > est_lo.pupe + 5.0 * combined_se:
        notes.append("warning: PUPE non-monotone in SNR (hi > lo by > 5 sigma)")
    if est_hi.pupe > target_eps:
        notes.append(f"not found <= {snr_hi:g} dB")
        return point(None, est_hi)

    lo, hi = snr_lo, snr_hi
    best = est_hi
    depth = 0
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        trials = trials_schedule[min(depth, len(trials_schedule) - 1)]
        est = evaluate(mid, trials)
        if est.pupe <= target_eps:
            hi, best = mid, est
        else:
            lo = mid
        depth += 1
    return point(hi, best)


def run_sweep(
    experiment,
    ka_list,
    target_eps: float,
    snr_lo: float,
    snr_hi: float,
    seed: int,
    tol_db: float = 0.1,
    trials_schedule: tuple[int, ...] = (200, 500, 1000),
    point_hook=None,
) -> list[PupeCurvePoint]:
    """One min-SNR search per ka.  Per-trial seeds already embed ka, so the
    output is independent of the order in which points are evaluated."""
    points = []
    for ka in ka_list:
        point = min_snr_for_pupe(
            experiment, ka, target_eps, snr_lo, snr_hi, seed,
            tol_db=tol_db, trials_schedule=trials_schedule,
        )
        points.append(point)
        if point_hook is not None:
            point_hook(point)
    return points
