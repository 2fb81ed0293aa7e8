"""Preamble and pilot dictionaries: Zadoff-Chu families for standard-sized
sets, normalized complex Gaussian columns for enlarged sets.

Columns have per-sample power `power_scale` (preambles) or 1 (pilots); a
user's transmit power scales its column at encoding time.  Preamble columns
are stored as complex64, the rounding of the complex128 values the private
column builders compute; pilot columns stay complex128.  Both are stored
with contiguous columns (Fortran order).  Gaussian columns are drawn from
fixed seeds, so a `PreambleSpec` alone fixes its dictionary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class DictionaryKind(str, Enum):
    ZADOFF_CHU = "zadoff_chu"
    GAUSSIAN = "gaussian"


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class Dictionary:
    """Immutable set of equal-length columns.

    `columns` has shape (length, size); column j is `columns[:, j]`.  Its
    dtype may be complex64: upcast a column (`astype(complex)`) before
    arithmetic that must stay in double precision.
    """

    columns: np.ndarray

    def __post_init__(self):
        self.columns.setflags(write=False)

    def column(self, index: int) -> np.ndarray:
        return self.columns[:, index]

    @cached_property
    def max_column_norm(self) -> float:
        """The largest column 2-norm, summed in double precision one block of
        columns at a time, and computed once per dictionary."""
        best = 0.0
        for c0 in range(0, self.columns.shape[1], _NORM_BLOCK):
            block = self.columns[:, c0 : c0 + _NORM_BLOCK].astype(complex)
            best = max(best, float(np.linalg.norm(block, axis=0).max()))
        return best


@dataclass(frozen=True)
class PreambleSpec:
    """A preamble set: `size` columns of length base_length * repetitions.

    Raises SequenceError unless the dictionary can be built and carries
    signal.
    """

    size: int
    base_length: int
    repetitions: int = 1
    kind: DictionaryKind = DictionaryKind.ZADOFF_CHU
    power_scale: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise SequenceError(f"size must be >= 1, got {self.size}")
        if self.base_length < 1:
            raise SequenceError(f"base length must be >= 1, got {self.base_length}")
        if self.repetitions < 1:
            raise SequenceError(f"repetitions must be >= 1, got {self.repetitions}")
        if not (self.power_scale > 0.0 and math.isfinite(self.power_scale)):
            raise SequenceError(f"power scale must be positive and finite, got {self.power_scale}")
        if self.kind is DictionaryKind.ZADOFF_CHU:
            if not _is_prime(self.base_length):
                raise SequenceError(
                    f"Zadoff-Chu base length must be prime, got {self.base_length}; "
                    "use the Gaussian kind for other lengths"
                )
            max_size = (self.base_length - 1) * self.base_length   # roots x cyclic shifts
            if self.size > max_size:
                raise SequenceError(
                    f"{self.size} sequences exceed the {max_size} root/shift combinations "
                    f"of length {self.base_length}; use the Gaussian kind for enlarged sets"
                )

    @property
    def length(self) -> int:
        return self.base_length * self.repetitions


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Unit-modulus Zadoff-Chu sequence x[m] = exp(-j pi root m (m+1) / length).

    The length must be prime (139 or 839 in the standard short/long formats);
    the perfect-autocorrelation identities used in tests require primality.
    """
    if not _is_prime(length):
        raise SequenceError(f"length must be prime, got {length}")
    if not 1 <= root <= length - 1:
        raise SequenceError(f"root must be in [1, {length - 1}], got {root}")
    if math.gcd(root, length) != 1:
        raise SequenceError(f"root {root} not coprime with length {length}")
    m = np.arange(length)
    return np.exp(-1j * np.pi * root * m * (m + 1) / length)


# Gaussian columns are drawn in row blocks of about this many values and
# normalised in blocks of this many columns, so building a large dictionary
# holds one complex128 copy of it at most.
_DRAW_BLOCK = 1 << 19
_NORM_BLOCK = 128


def _gaussian_columns(
    size: int, length: int, target_energy: float, rng: np.random.Generator, dtype
) -> np.ndarray:
    """i.i.d. CN columns scaled to `target_energy`, rounded to `dtype`.

    Before rounding, bit-identical to drawing a (length, size) real block,
    then an imaginary block, and scaling by sqrt(target_energy) /
    np.linalg.norm(axis=0).  The draw is written into complex128 blocks of
    columns; each is normalised, rounded into the Fortran-order output and
    freed in turn.
    """
    edges = [*range(0, size, _NORM_BLOCK), size]
    # np.linalg.norm(axis=0) reduces a single column by a different (pairwise)
    # summation, so a one-column tail is folded into the previous block.
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    spans = list(zip(edges, edges[1:]))
    blocks = [np.empty((length, c1 - c0), dtype=complex) for c0, c1 in spans]
    rows = max(1, _DRAW_BLOCK // size)
    for part in ("real", "imag"):
        for r0 in range(0, length, rows):
            draw = rng.standard_normal((min(rows, length - r0), size))
            for block, (c0, c1) in zip(blocks, spans):
                getattr(block, part)[r0 : r0 + rows] = draw[:, c0:c1]
    cols = np.empty((length, size), dtype=dtype, order="F")
    scale = math.sqrt(target_energy)
    for i, (c0, c1) in enumerate(spans):
        block, blocks[i] = blocks[i], None
        block *= scale / np.linalg.norm(block, axis=0)
        # Copied in tiles of rows, which keeps the transposing copy in cache.
        for r0 in range(0, length, 64):
            cols[r0 : r0 + 64, c0:c1] = block[r0 : r0 + 64]
    return cols


def _zadoff_chu_columns(
    size: int, base_length: int, repetitions: int, power_scale: float, dtype
) -> np.ndarray:
    """The first `size` (shift, root) Zadoff-Chu columns, rounded to `dtype`."""
    length = base_length * repetitions
    cols = np.empty((length, size), dtype=dtype, order="F")
    scale = math.sqrt(power_scale)
    for idx in range(size):
        shift = idx // (base_length - 1)
        root = 1 + idx % (base_length - 1)
        base = np.roll(zadoff_chu(root, base_length), shift)
        cols[:, idx] = np.tile(base, repetitions) * scale
    return cols


def build_preamble_dictionary(spec: PreambleSpec) -> Dictionary:
    """Preamble dictionary with complex64 columns of length `spec.length`.

    Zadoff-Chu columns enumerate (cyclic shift, root) pairs shift-major
    (index -> shift = index // (N-1), root = 1 + index % (N-1)), giving a
    deterministic index-to-sequence map; each base sequence is repeated
    `repetitions` times.  Gaussian columns are i.i.d. CN, normalized, drawn
    from the fixed seed 0.  Column energy is length * power_scale before the
    values are rounded to complex64.
    """
    if spec.kind is DictionaryKind.ZADOFF_CHU:
        cols = _zadoff_chu_columns(
            spec.size, spec.base_length, spec.repetitions, spec.power_scale, np.complex64
        )
    else:
        rng = np.random.default_rng(np.random.SeedSequence(0))
        energy = spec.length * spec.power_scale
        cols = _gaussian_columns(spec.size, spec.length, energy, rng, np.complex64)
    return Dictionary(columns=cols)


def build_pilot_dictionary(size: int, length: int) -> Dictionary:
    """Gaussian pilot dictionary with complex128 columns, per-column energy
    = length, drawn from the fixed seed 1."""
    if size < 1:
        raise SequenceError(f"size must be >= 1, got {size}")
    if length < 1:
        raise SequenceError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(np.random.SeedSequence(1))
    return Dictionary(columns=_gaussian_columns(size, length, length, rng, complex))
