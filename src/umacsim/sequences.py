"""Preamble and pilot dictionaries: Zadoff-Chu families for standard-sized
sets, normalized complex Gaussian columns for enlarged sets.

Columns have per-sample power `power_scale` (preambles) or 1 (pilots); a
user's transmit power scales its column at encoding time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

ENERGY_RTOL = 1e-9


class DictionaryKind(str, Enum):
    ZADOFF_CHU = "zadoff_chu"
    GAUSSIAN = "gaussian"


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class Dictionary:
    """Immutable set of equal-length columns with identical energy.

    `columns` has shape (length, size); column j is `columns[:, j]`.
    """

    columns: np.ndarray

    def __post_init__(self):
        self.columns.setflags(write=False)

    def column(self, index: int) -> np.ndarray:
        return self.columns[:, index]


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
# makes no full-size temporaries.
_DRAW_BLOCK = 1 << 19
_NORM_BLOCK = 512


def _gaussian_columns(
    size: int, length: int, target_energy: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. CN columns scaled to `target_energy`, built in place.

    Bit-identical to drawing a (length, size) real block, then an imaginary
    block, and scaling by sqrt(target_energy) / np.linalg.norm(axis=0).
    """
    cols = np.empty((length, size), dtype=complex)
    rows = max(1, _DRAW_BLOCK // size)
    for part in (cols.real, cols.imag):
        for r0 in range(0, length, rows):
            part[r0 : r0 + rows] = rng.standard_normal((min(rows, length - r0), size))
    edges = [*range(0, size, _NORM_BLOCK), size]
    # np.linalg.norm(axis=0) reduces a single column by a different (pairwise)
    # summation, so a one-column tail is folded into the previous block.
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    scale = math.sqrt(target_energy)
    for c0, c1 in zip(edges, edges[1:]):
        block = cols[:, c0:c1]
        block *= scale / np.linalg.norm(block, axis=0)
    return cols


def build_preamble_dictionary(
    size: int,
    base_length: int,
    repetitions: int = 1,
    power_scale: float = 1.0,
    kind: DictionaryKind = DictionaryKind.ZADOFF_CHU,
    rng: np.random.Generator | None = None,
) -> Dictionary:
    """Preamble dictionary with columns of length base_length * repetitions.

    Zadoff-Chu columns enumerate (cyclic shift, root) pairs shift-major
    (index -> shift = index // (N-1), root = 1 + index % (N-1)), giving a
    deterministic index-to-sequence map; each base sequence is repeated
    `repetitions` times.  Gaussian columns are i.i.d. CN, normalized.
    Column energy is base_length * repetitions * power_scale.
    """
    if size < 1:
        raise SequenceError(f"size must be >= 1, got {size}")
    if repetitions < 1:
        raise SequenceError(f"repetitions must be >= 1, got {repetitions}")
    length = base_length * repetitions
    target = length * power_scale
    if kind is DictionaryKind.ZADOFF_CHU:
        max_size = (base_length - 1) * base_length   # roots x cyclic shifts
        if size > max_size:
            raise SequenceError(
                f"{size} sequences exceed the {max_size} root/shift combinations "
                f"of length {base_length}; use the Gaussian kind for enlarged sets"
            )
        cols = np.empty((length, size), dtype=complex)
        scale = math.sqrt(target / length)
        for idx in range(size):
            shift = idx // (base_length - 1)
            root = 1 + idx % (base_length - 1)
            base = np.roll(zadoff_chu(root, base_length), shift)
            cols[:, idx] = np.tile(base, repetitions) * scale
    else:
        if rng is None:
            raise SequenceError("Gaussian dictionaries need an rng")
        cols = _gaussian_columns(size, length, target, rng)
    return Dictionary(columns=cols)


def build_pilot_dictionary(
    size: int,
    length: int,
    rng: np.random.Generator,
) -> Dictionary:
    """Gaussian pilot dictionary, per-column energy = length."""
    if size < 1:
        raise SequenceError(f"size must be >= 1, got {size}")
    if length < 1:
        raise SequenceError(f"length must be >= 1, got {length}")
    return Dictionary(columns=_gaussian_columns(size, length, length, rng))
