"""End-to-end encoders and receivers: slotted Aloha and two-step random
access (message A).  SB-IDMA is two-step access with packet repetition: a
`TwoStepConfig` with rho > 1.

Receiver conventions
--------------------
The receivers are genie-aided where a surrogate codec needs it:

- Preamble detection runs OMP on the actual preamble-region samples.
- For every detected preamble with at least one (not yet cancelled)
  transmitter, a single decode attempt is made for the strongest such user.
  Users sharing a preamble are not separable within a round: the weaker
  ones wait for cancellation.
- With the oracle codec, success is decided by an effective SINR computed
  from ground truth: the user's data energy over noise plus the data energy
  of all uncancelled co-occasion users, plus (on fading channels) a
  channel-estimation mismatch term |h_hat - h|^2 E_data, where h_hat is the
  actual pilot-based LS estimate taken from the received samples.  The
  mismatch term is what makes shared pilots (same preamble, or small
  preamble sets) hurt and enlarged preamble sets help.  This receiver
  reads the preamble region, the pilots and each user's energies, never a
  codeword sample, so no codeword is built for an oracle user: its
  occasions hold its pilot, and their codeword samples hold only noise.
- TIN performs a single round; TIN-SIC subtracts the ground-truth
  contribution (ideal SIC) of every decoded user and repeats detection
  until a round decodes nobody new.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .channel import ChannelModel, energy
from .codec import CodecModel, CodecSpec, SlottedAlohaConfig, check_message, decode, encode
from .detection import (
    DetectionResult,
    SicHistory,
    energy_detect,
    gram_store,
    ls_channel_estimate,
    omp_detect,  # noqa: F401  perfbench/spans.py wraps it under this name
    omp_detect_many,
    subtract,  # noqa: F401  perfbench/spans.py wraps it under this name
)
from .sequences import (
    Dictionary,
    PreambleSpec,
    build_pilot_dictionary,
    build_preamble_dictionary,
)


class ProtocolError(ValueError):
    pass


class ReceiverMode(str, Enum):
    TIN = "tin"
    TIN_SIC = "tin_sic"


class EnergyPolicy(str, Enum):
    SPLIT_ACROSS_COPIES = "split_across_copies"
    PER_COPY_FULL = "per_copy_full"


@dataclass(frozen=True)
class TwoStepConfig:
    """Two-step random access; rho > 1 is SB-IDMA, which sends each packet
    rho times, with `energy_policy` setting the power of each copy."""

    preamble: PreambleSpec
    n_occasions: int
    codec: CodecSpec
    pilot_len: int = 0
    channel_model: ChannelModel = ChannelModel.AWGN
    rho: int = 1                         # copies of the packet per frame
    energy_policy: EnergyPolicy = EnergyPolicy.SPLIT_ACROSS_COPIES

    def __post_init__(self):
        if self.n_occasions < 1:
            raise ProtocolError(f"n_occasions must be >= 1, got {self.n_occasions}")
        if self.pilot_len < 0:
            raise ProtocolError(f"pilot_len must be >= 0, got {self.pilot_len}")
        if not 1 <= self.rho <= self.n_occasions:
            raise ProtocolError(f"rho must be in [1, {self.n_occasions}], got {self.rho}")
        # The ML codec decodes a single occasion's samples, so it cannot
        # combine copies; only the oracle codec models the rho-copy MRC.  On
        # a fading channel it decodes with the gain its pilot estimates.
        ml = self.codec.model is CodecModel.ML_RANDOM_GAUSSIAN
        if ml and self.rho > 1:
            raise ProtocolError(
                f"the ML codec decodes one copy only and needs rho = 1, got {self.rho}"
            )
        if ml and self.channel_model is ChannelModel.RAYLEIGH and self.pilot_len == 0:
            raise ProtocolError("the ML codec on a rayleigh channel needs pilot_len > 0")
        if self.rho == 1 and self.preamble.size < self.n_occasions:
            raise ProtocolError(
                "rho = 1 needs n_preambles >= n_occasions "
                f"({self.preamble.size} < {self.n_occasions})"
            )

    @property
    def occasion_len(self) -> int:
        """An occasion holds the pilot and then the codeword."""
        return self.pilot_len + self.codec.complex_uses

    @property
    def frame_len(self) -> int:
        return self.preamble.length + self.n_occasions * self.occasion_len

    def occasion(self, frame: np.ndarray, index: int) -> np.ndarray:
        """The view of `frame` that occasion `index` occupies: pilot, then codeword."""
        start = self.preamble.length + index * self.occasion_len
        return frame[start : start + self.occasion_len]

    def add_user(self, frame: np.ndarray, user: UserTx, scale: complex) -> None:
        """Add `scale` times the user's preamble and copy signals to `frame`, in
        place; ideal SIC passes minus the user's gain.  An oracle user's copy
        is its pilot, so only the pilot samples of its occasions change."""
        # The preamble is rebuilt from the cached dictionary at each use
        # rather than kept per user; complex64 columns are upcast first.
        column = build_dictionaries(self)[0].column(user.preamble_index)
        preamble = column.astype(complex) * user.preamble_amplitude
        frame[: len(preamble)] += scale * preamble
        for occ in user.occasions:
            self.occasion(frame, occ)[: len(user.copy_signal)] += scale * user.copy_signal

    @property
    def n_pilots(self) -> int:
        if self.rho > 1:
            return self.preamble.size
        return -(-self.preamble.size // self.n_occasions)

    def map_preamble(self, preamble_index: int) -> tuple[tuple[int, ...], int]:
        """Preamble index -> (occasions, pilot index).

        rho = 1: occasion = index % n_occasions, pilot = index // n_occasions.
        rho > 1: the rho-subset of colex rank index % C(n_occasions, rho),
        and pilot = index, so distinct preambles never share a pilot.
        """
        if self.rho > 1:
            index = preamble_index % math.comb(self.n_occasions, self.rho)
            return pattern_from_index(index, self.n_occasions, self.rho), preamble_index
        return (preamble_index % self.n_occasions,), preamble_index // self.n_occasions


def pattern_from_index(index: int, n: int, rho: int) -> tuple[int, ...]:
    """Colexicographic unranking of rho-subsets of {0..n-1}; index 0 -> {0..rho-1}."""
    total = math.comb(n, rho)
    if not 0 <= index < total:
        raise ProtocolError(f"pattern index {index} outside [0, {total})")
    out = []
    rem = index
    for r in range(rho, 0, -1):
        c = r - 1
        while math.comb(c + 1, r) <= rem:
            c += 1
        out.append(c)
        rem -= math.comb(c, r)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# dictionaries


@lru_cache(maxsize=16)
def build_dictionaries(cfg: TwoStepConfig) -> tuple[Dictionary, Dictionary | None]:
    """Unit-sample-power preamble and pilot dictionaries for a config.

    Each is built in the array that keeps it, with chunk buffers of about
    24 MiB besides, so building them takes little more memory than keeping
    them.
    """
    pre = build_preamble_dictionary(cfg.preamble)
    pilots = None
    if cfg.pilot_len > 0:
        pilots = build_pilot_dictionary(cfg.n_pilots, cfg.pilot_len)
    return pre, pilots


# ---------------------------------------------------------------------------
# ground truth


@dataclass(eq=False)
class UserTx:
    """Genie-side record of one user's transmission, compared by identity.

    `copy_signal` is what the user places at the start of each of its
    occasions: its pilot (empty when pilot_len is 0), then, with the ML
    codec only, its codeword.  The oracle codec's receiver reads no codeword
    sample, so an oracle copy is the pilot alone, and its energies are
    nominal: the codeword's is complex_uses unit-modulus symbols times the
    copy's amplitude squared, within a few ulp of the energy of the
    codeword `encode` would give.  The ML codec's energies are those of
    its samples.
    """

    message: int
    preamble_index: int
    occasions: tuple[int, ...]
    gain: complex                   # 1 for AWGN; CN(0,1) frame-constant otherwise
    preamble_amplitude: float       # sqrt(power): scales the preamble column
    copy_signal: np.ndarray         # pilot, then the ML codec's codeword
    codeword_energy: float          # per copy
    copy_energy: float              # pilot + codeword, per copy: read per SINR term


@dataclass
class DecodeOutcome:
    decoded_messages: set[int]
    detected_preambles: set[int]
    sic_rounds: int
    round_decodes: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# encoding


def encode_user(
    cfg: TwoStepConfig,
    message: int,
    preamble_index: int,
    power: float = 1.0,
    gain: complex = 1.0,
) -> UserTx:
    """Build the signals of a user who sends `message` on `preamble_index`:
    with the oracle codec, its pilot and energies but no codeword (`UserTx`)."""
    _, pilot_dict = build_dictionaries(cfg)
    occasions, pilot_index = cfg.map_preamble(preamble_index)
    sqrt_p = math.sqrt(power)
    copy_scale = sqrt_p
    if cfg.rho > 1 and cfg.energy_policy is EnergyPolicy.SPLIT_ACROSS_COPIES:
        copy_scale = sqrt_p / math.sqrt(cfg.rho)
    if cfg.pilot_len > 0:
        pilot = pilot_dict.column(pilot_index) * copy_scale
    else:
        pilot = np.empty(0, dtype=complex)
    if cfg.codec.model is CodecModel.ORACLE_THRESHOLD:
        check_message(cfg.codec, message)
        copy_signal = pilot
        codeword_energy = cfg.codec.complex_uses * copy_scale**2
        copy_energy = energy(pilot) + codeword_energy
    else:
        codeword = encode(cfg.codec, message, power=1.0) * copy_scale
        copy_signal = np.concatenate([pilot, codeword])
        codeword_energy = energy(codeword)
        copy_energy = energy(copy_signal)
    return UserTx(
        message=message,
        preamble_index=preamble_index,
        occasions=occasions,
        gain=gain,
        preamble_amplitude=sqrt_p,
        copy_signal=copy_signal,
        codeword_energy=codeword_energy,
        copy_energy=copy_energy,
    )


# ---------------------------------------------------------------------------
# receiving


def _pilot_estimate(cfg: TwoStepConfig, user: UserTx, y: np.ndarray, occ: int) -> complex:
    """LS estimate of the user's gain from its pilot in occasion `occ` of `y`."""
    pilot = user.copy_signal[: cfg.pilot_len]
    return ls_channel_estimate(cfg.occasion(y, occ)[: cfg.pilot_len], pilot)


def _effective_sinr(
    cfg: TwoStepConfig,
    user: UserTx,
    active: list[UserTx],
    y: np.ndarray,
) -> float:
    """Genie SINR with maximal-ratio combining across the user's copies.

    Per copy: |h|^2 E_cw / (n_occ + sum_v |h_v|^2 E_v + |h_hat - h|^2 E_cw)
    over unit-power noise, where v runs over uncancelled co-occasion users
    and the last term models the loss from imperfect pilot-based channel
    estimation (fading only).  `active` holds the uncancelled users sorted by
    (message, preamble_index): that order fixes the summation order, so the
    result does not depend on the order of the users list.
    """
    fading = cfg.channel_model is ChannelModel.RAYLEIGH
    sig = abs(user.gain) ** 2 * user.codeword_energy
    total = 0.0
    for occ in user.occasions:
        interference = 0.0
        for v in active:
            if v is user:
                continue
            if occ in v.occasions:
                interference += abs(v.gain) ** 2 * v.copy_energy
        penalty = 0.0
        if fading and cfg.pilot_len > 0:
            h_hat = _pilot_estimate(cfg, user, y, occ)
            penalty = abs(h_hat - user.gain) ** 2 * user.codeword_energy
        total += sig / (cfg.occasion_len + interference + penalty)
    return total


def twostep_receive(
    y: np.ndarray,
    cfg: TwoStepConfig,
    mode: ReceiverMode,
    users: list[UserTx],
) -> DecodeOutcome:
    """OMP preamble detection, per-preamble decode attempts, optional ideal SIC.

    TIN stops after one round; TIN-SIC cancels the ground-truth contribution
    of every decoded user and repeats until no round decodes anybody new.
    This is `twostep_receive_many` on one frame.
    """
    return twostep_receive_many([y], cfg, mode, [users])[0]


def twostep_receive_many(
    ys: Iterable[np.ndarray],
    cfg: TwoStepConfig,
    mode: ReceiverMode,
    users_per_frame: list[list[UserTx]],
) -> list[DecodeOutcome]:
    """`twostep_receive` on every frame of `ys`, each with the users who sent it.

    The frames' SIC rounds advance together: each round makes one
    `omp_detect_many` call over the frames still decoding, so a pass over
    the preamble dictionary serves the whole batch.  Every call of a receive
    uses one Gram store (`gram_store`), and each frame keeps a `SicHistory`
    of the preambles it cancelled, so only the first round makes a beta0
    pass: a later round takes its beta0 from the cancelled preambles' Gram
    rows, mostly fetched already.  Each frame's outcome is the one
    `twostep_receive` gives it alone.  Each frame is copied as it is taken
    from `ys`, so the caller's frames are not modified, and a generator
    lets them be freed one by one.
    """
    # OMP's support and its relative stopping rule do not depend on a common
    # column scale, so the unit-power dictionary serves every power.
    pre_dict, _ = build_dictionaries(cfg)
    store = gram_store(pre_dict)
    pre_len = cfg.preamble.length
    frames = [_SicFrame(y, users, cfg) for y, users in zip(ys, users_per_frame, strict=True)]
    running = frames
    while running:
        detecting: list[_SicFrame] = []
        thresholds: list[float] = []
        for f in running:
            f.rounds += 1
            e_pre = energy(f.y[:pre_len])
            if e_pre > 0:
                detecting.append(f)
                thresholds.append(min(1.0, 1.1 * pre_len / e_pre))
        if not detecting:
            break
        max_iters = [min(2 * max(1, len(f.users)), cfg.preamble.size) for f in detecting]
        dets = omp_detect_many(
            np.column_stack([f.y[:pre_len] for f in detecting]),
            pre_dict,
            max_iters=max_iters,
            residual_threshold=thresholds,
            store=store,
            histories=[f.history for f in detecting],
        )
        running = []
        for f, det in zip(detecting, dets):
            newly = f.decode_round(det)
            if mode is ReceiverMode.TIN_SIC and newly:
                f.cancel(newly)
                running.append(f)
    return [f.outcome() for f in frames]


class _SicFrame:
    """One frame's receiver state inside `twostep_receive_many`."""

    def __init__(self, y: np.ndarray, users: list[UserTx], cfg: TwoStepConfig):
        self.y = np.array(y, dtype=complex)     # own copy, cancelled in place
        self.users = users
        self.cfg = cfg
        self.pending: dict[int, list[UserTx]] = {}  # preamble -> users not yet cancelled
        for u in users:
            self.pending.setdefault(u.preamble_index, []).append(u)
        self.decoded: set[int] = set()
        self.detected: set[int] = set()
        self.round_decodes: list[int] = []
        self.rounds = 0
        self.history = SicHistory()             # for OMP, over the preamble region

    def decode_round(self, det: DetectionResult) -> list[UserTx]:
        """One decode attempt per detected preamble; returns the users decoded."""
        cfg = self.cfg
        self.detected.update(det.indices)
        # Cancellation waits for the end of the round, so the uncancelled
        # set, in the order `_effective_sinr` sums it, is built once.
        active = sorted(
            (v for users in self.pending.values() for v in users),
            key=lambda u: (u.message, u.preamble_index),
        )
        newly: list[UserTx] = []
        for p in det.indices:
            cand = [u for u in self.pending.get(p, []) if u.message not in self.decoded]
            if not cand:
                continue
            # One attempt per detected preamble, aimed at the strongest user.
            # Same-preamble users transmit the same pilot, so exactly tied
            # gains (AWGN equal power) are indistinguishable: no decode.
            strengths = sorted((abs(t.gain) ** 2 for t in cand), reverse=True)
            if len(cand) > 1 and strengths[0] == strengths[1]:
                continue
            u = max(cand, key=lambda t: abs(t.gain) ** 2)
            if cfg.codec.model is CodecModel.ORACLE_THRESHOLD:
                sinr = _effective_sinr(cfg, u, active, self.y)
                ok, msg = decode(cfg.codec, genie_sinr=sinr, true_message=u.message)
            else:
                ok, msg = _ml_attempt(cfg, u, self.y)
            if ok and msg is not None and msg not in self.decoded:
                self.decoded.add(msg)
                # Cancel u if the decode gave its message, else (an ML decode
                # can) the candidate whose message it gave.
                match = next((v for v in [u, *cand] if v.message == msg), None)
                if match is not None:
                    newly.append(match)
        self.round_decodes.append(len(newly))
        return newly

    def cancel(self, newly: list[UserTx]) -> None:
        """Ideal SIC: subtract the users' exact contributions from the frame.
        A user's preamble leaves the preamble region times gain * amplitude."""
        for u in newly:
            self.pending[u.preamble_index].remove(u)
            self.cfg.add_user(self.y, u, -u.gain)
            self.history.cancel(u.preamble_index, u.gain * u.preamble_amplitude)

    def outcome(self) -> DecodeOutcome:
        return DecodeOutcome(
            decoded_messages=self.decoded,
            detected_preambles=self.detected,
            sic_rounds=self.rounds,
            round_decodes=self.round_decodes,
        )


def _ml_attempt(cfg: TwoStepConfig, user: UserTx, y: np.ndarray) -> tuple[bool, int | None]:
    """Actual ML decode on the user's occasion samples (ML configs have rho = 1)."""
    occ = user.occasions[0]
    gain = 1.0
    if cfg.channel_model is ChannelModel.RAYLEIGH:
        gain = _pilot_estimate(cfg, user, y, occ)
    seg = cfg.occasion(y, occ)[cfg.pilot_len :]
    return decode(cfg.codec, observed=seg, gain=gain * user.preamble_amplitude)


# ---------------------------------------------------------------------------
# slotted Aloha


def slotted_aloha_receive(
    y: np.ndarray,
    cfg: SlottedAlohaConfig,
    mode: ReceiverMode,
    genie: list[tuple[int, int]],      # (message, slot) ground truth
    power: float,
) -> DecodeOutcome:
    """Per-slot energy detection followed by single-user decode attempts,
    over unit-power noise, with every user sending at per-sample `power`.

    With the oracle codec, slots holding a single (uncancelled) user decode
    iff the genie SINR clears the codec threshold; collided slots fail under
    TIN, since equal-strategy users superposed in one slot are not
    separable.  The SIC variant cancels decoded codewords from its own copy
    of `y`, in place, and retries until a round decodes nobody new.
    """
    pending: dict[int, list[int]] = {}      # slot -> messages not yet cancelled
    for msg, slot in genie:
        pending.setdefault(slot, []).append(msg)
    oracle = cfg.codec.model is CodecModel.ORACLE_THRESHOLD
    # The oracle codec can only ever output occupants' messages, so empty
    # slots are skipped; the ML codec scans every slot (a false energy
    # alarm then yields a spurious decode, which PUPE ignores).
    slots = sorted(pending) if oracle else range(cfg.slots)
    y = y.copy()
    decoded: set[int] = set()
    round_decodes: list[int] = []
    while True:
        newly: list[tuple[int, int]] = []
        for slot in slots:
            seg = cfg.slot(y, slot)
            if not energy_detect(seg, 1.0):
                continue
            msgs = pending.get(slot, [])
            if oracle:
                if len(msgs) != 1 or msgs[0] in decoded:
                    continue
                ok, out = decode(cfg.codec, genie_sinr=power, true_message=msgs[0])
            else:
                ok, out = decode(cfg.codec, observed=seg, gain=math.sqrt(power))
            if ok and out is not None and out not in decoded:
                decoded.add(out)
                if out in msgs:
                    newly.append((out, slot))
        round_decodes.append(len(newly))
        if mode is ReceiverMode.TIN or not newly:
            break
        for msg, slot in newly:
            pending[slot] = [m for m in pending[slot] if m != msg]
            cfg.slot(y, slot)[...] -= encode(cfg.codec, msg, power=power)
    return DecodeOutcome(
        decoded_messages=decoded,
        detected_preambles=set(),
        sic_rounds=len(round_decodes),
        round_decodes=round_decodes,
    )
