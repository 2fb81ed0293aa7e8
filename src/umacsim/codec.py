"""Pluggable inner-code models and the slotted-Aloha frame geometry.

Two codec models replace the standard LDPC / polar codecs:

- ``ORACLE_THRESHOLD``: a genie-aided success model.  The codeword is a
  message-seeded pseudo-random unit-power QPSK sequence; decoding succeeds
  iff the genie-computed SINR clears the single-user finite-blocklength
  operating point at codeword error rate ``TARGET_EPS`` plus a configurable
  dB offset (default 1.6 dB, mimicking the measured loss of the short LDPC
  code; 0.9 dB is the conventional knob for polar-like behavior).  Results
  obtained with this model are surrogate curves, not standard-exact ones.
- ``ML_RANDOM_GAUSSIAN``: an exact maximum-likelihood codec over a small
  seed-fixed Gaussian codebook (payloads up to 12 bits), used for
  end-to-end validation at reduced scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bounds import min_snr_single_user
from .sequences import _gaussian_columns


class CodecModel(str, Enum):
    ORACLE_THRESHOLD = "oracle_threshold"
    ML_RANDOM_GAUSSIAN = "ml_random_gaussian"


class CodecError(ValueError):
    pass


# Per-codeword error rate that pins the oracle threshold.  The codec
# operating point is a property of the surrogate code, independent of a
# sweep's target PUPE.
TARGET_EPS = 0.05


@dataclass(frozen=True)
class CodecSpec:
    codeword_bits: int        # n_c: binary codeword length; QPSK -> n_c/2 complex uses
    payload_bits: int         # k
    model: CodecModel = CodecModel.ORACLE_THRESHOLD
    offset_db: float = 1.6    # surrogate loss over the normal approximation

    def __post_init__(self):
        if self.codeword_bits < 2 or self.codeword_bits % 2:
            raise CodecError(f"codeword_bits must be even and >= 2, got {self.codeword_bits}")
        if self.payload_bits < 1:
            raise CodecError(f"payload_bits must be >= 1, got {self.payload_bits}")
        if self.model is CodecModel.ML_RANDOM_GAUSSIAN and self.payload_bits > 12:
            raise CodecError("ML_RANDOM_GAUSSIAN supports payloads up to 12 bits")
        if self.model is CodecModel.ORACLE_THRESHOLD:
            try:
                decode_threshold(self)
            except ArithmeticError as exc:
                raise CodecError(f"no oracle decode threshold: {exc}") from None

    @property
    def complex_uses(self) -> int:
        return self.codeword_bits // 2

    @property
    def n_messages(self) -> int:
        return 1 << self.payload_bits


@dataclass(frozen=True)
class SlottedAlohaConfig:
    slots: int
    codec: CodecSpec

    def __post_init__(self):
        if self.slots < 1:
            raise CodecError(f"slots must be >= 1, got {self.slots}")

    @property
    def slot_len(self) -> int:
        return self.codec.complex_uses

    @property
    def frame_len(self) -> int:
        return self.slots * self.slot_len

    def slot(self, frame: np.ndarray, index: int) -> np.ndarray:
        """The view of `frame` that slot `index` occupies."""
        return frame[index * self.slot_len : (index + 1) * self.slot_len]


def check_message(spec: CodecSpec, message: int) -> None:
    """Raise CodecError unless `message` fits the payload."""
    if not 0 <= message < spec.n_messages:
        raise CodecError(
            f"message {message} outside the {spec.payload_bits}-bit payload range"
        )


@lru_cache(maxsize=64)
def decode_threshold(spec: CodecSpec) -> float:
    """SINR (linear) above which the oracle codec succeeds."""
    base = min_snr_single_user(spec.complex_uses, spec.payload_bits, TARGET_EPS)
    return base * 10.0 ** (spec.offset_db / 10.0)


@lru_cache(maxsize=16)
def _ml_codebook_unit(spec: CodecSpec) -> np.ndarray:
    """Unit-power Gaussian codebook, shape (complex_uses, 2^k), in C order:
    the layout sets the order in which `decode` sums each distance."""
    n, rng = spec.complex_uses, np.random.default_rng(np.random.SeedSequence(0))
    cols = np.ascontiguousarray(_gaussian_columns(spec.n_messages, n, n, rng, complex))
    cols.setflags(write=False)
    return cols


_QPSK = np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)


@lru_cache(maxsize=4096)        # every 12-bit message: 16 MB of 500-bit codewords
def _oracle_codeword_unit(spec: CodecSpec, message: int) -> np.ndarray:
    """Unit-power QPSK codeword of `message`, read-only: `encode` scales a copy."""
    # entropy as a list of ints supports arbitrary-size messages (k up to 100).
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[0, message]))
    word = _QPSK[rng.integers(0, 4, size=spec.complex_uses)]
    word.setflags(write=False)
    return word


def encode(spec: CodecSpec, message: int, power: float = 1.0) -> np.ndarray:
    """Map a message to its complex codeword with per-sample power `power`.

    Encoding is deterministic in the message; distinct messages
    give distinct codewords with overwhelming probability for the oracle
    model and exactly for the Gaussian codebook.
    """
    check_message(spec, message)
    if spec.model is CodecModel.ML_RANDOM_GAUSSIAN:
        return _ml_codebook_unit(spec)[:, message] * math.sqrt(power)
    # A message of more than 12 bits (the cache's 4096 entries) rarely recurs: no caching.
    word = _oracle_codeword_unit if spec.payload_bits <= 12 else _oracle_codeword_unit.__wrapped__
    return word(spec, message) * math.sqrt(power)


def decode(
    spec: CodecSpec,
    observed: np.ndarray | None = None,
    genie_sinr: float | None = None,
    true_message: int | None = None,
    gain: complex = 1.0,
) -> tuple[bool, int | None]:
    """Attempt decoding; failure is a valid outcome, never an exception.

    ORACLE_THRESHOLD: succeeds iff genie_sinr >= threshold, returning the
    true message (genie-aided success model).  ML_RANDOM_GAUSSIAN: exact
    nearest-codeword search over the whole codebook on `observed`,
    optionally scaled by an (estimated) channel gain.
    """
    if spec.model is CodecModel.ORACLE_THRESHOLD:
        if genie_sinr is None or true_message is None:
            raise CodecError("oracle decoding needs genie_sinr and true_message")
        if genie_sinr >= decode_threshold(spec):
            return True, true_message
        return False, None
    if observed is None:
        raise CodecError("ML decoding needs the observed signal")
    book = _ml_codebook_unit(spec) * gain
    dist = np.linalg.norm(observed[:, None] - book, axis=0)
    return True, int(np.argmin(dist))
