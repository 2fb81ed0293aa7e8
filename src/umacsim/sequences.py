"""Preamble and pilot dictionaries: Zadoff-Chu families for standard-sized
sets, normalized complex Gaussian columns for enlarged sets.

Columns have per-sample power `power_scale` (preambles) or 1 (pilots); a
user's transmit power scales its column at encoding time.  Preamble columns
are stored as complex64, the rounding of the complex128 values the private
column builders compute; pilot columns stay complex128.  Both are stored
with contiguous columns (Fortran order).  Gaussian columns are drawn from
fixed seeds, so a `PreambleSpec` alone fixes its dictionary, and are built
in the array that keeps them: the build holds no complex128 copy of a
complex64 dictionary, only chunk buffers of about _DRAW_BLOCK values.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
    arithmetic that must stay in double precision.  `max_column_norm` is
    derived from the columns and kept with them, and so may be the Gram
    store `detection.gram_store` builds.
    """

    columns: np.ndarray

    def __post_init__(self):
        self.columns.setflags(write=False)

    def column(self, index: int) -> np.ndarray:
        return self.columns[:, index]

    @cached_property
    def max_column_norm(self) -> float:
        """The largest column 2-norm, summed in double precision one block of
        columns at a time, and computed once per dictionary: NaN or inf if
        an entry is (np.maximum keeps a NaN, Python's max drops it)."""
        best = 0.0
        for c0 in range(0, self.columns.shape[1], _NORM_BLOCK):
            block = self.columns[:, c0 : c0 + _NORM_BLOCK].astype(complex)
            with np.errstate(invalid="ignore"):         # |inf|^2 meets inf * 0
                best = np.maximum(best, np.linalg.norm(block, axis=0).max())
        return float(best)


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


# Gaussian columns are drawn in chunks of rows of about _DRAW_BLOCK values;
# a chunk is copied to and from the column-major output in tiles of _TILE
# columns, which keeps each transposing copy in cache.  The dictionary's
# columns are upcast _NORM_BLOCK at a time to find the largest norm.
_DRAW_BLOCK = 1 << 19
_TILE = 1024
_NORM_BLOCK = 128


def _gaussian_columns(
    size: int, length: int, target_energy: float, rng: np.random.Generator, dtype
) -> np.ndarray:
    """i.i.d. CN columns scaled to `target_energy`, rounded to `dtype`.

    The values of drawing a (length, size) real block, then an imaginary
    block, scaling by sqrt(target_energy) / np.linalg.norm(axis=0) and
    rounding, with `rng` left in the same state.  No complex128 copy of the
    columns is made: the real rows are parked as float64 in the output's
    own bytes, and the imaginary rows are drawn twice from the same
    generator state, once to sum the column norms and once to write the
    scaled rows over the parked ones.  Over two or more chunks, each chunk
    of rows is drawn in a worker thread while the one before it is copied;
    a single chunk has nothing to overlap, so it is drawn in the calling
    thread.  Besides the output, the build holds four chunk buffers of
    about _DRAW_BLOCK values.
    """
    cols = np.empty((length, size), dtype=dtype, order="F")
    # Row r of a column is parked in the bytes that its output value takes.
    parked = cols.real if cols.dtype == np.complex128 else cols.view(np.float64)
    # np.linalg.norm(axis=0) sums the squares of a C-order block of two or
    # more columns row by row, but of a single column pairwise, so a
    # one-column dictionary is drawn as one chunk.
    rows = length if size == 1 else max(1, _DRAW_BLOCK // size)
    chunks = [(r0, min(r0 + rows, length)) for r0 in range(0, length, rows)]
    tiles = [slice(c0, c0 + _TILE) for c0 in range(0, size, _TILE)]
    draws = [np.empty((min(rows, length), size)) for _ in range(2)]
    x, prod = (np.empty(draws[0].shape, dtype=complex) for _ in range(2))

    def drawn_rows():
        """(r0, r1, the next draw of rows r0:r1) for each chunk, drawn one
        chunk ahead in a worker thread (_prefetched) unless there is only
        one.  Draws alternate between two buffers, so the caller is done
        with a chunk before the draw two after it."""
        items = (
            (r0, r1, rng.standard_normal(out=draws[i % 2][: r1 - r0]))
            for i, (r0, r1) in enumerate(chunks)
        )
        return _prefetched(items) if len(chunks) > 1 else items

    for r0, r1, real in drawn_rows():
        for t in tiles:
            parked[r0:r1, t] = real[:, t]

    imag_state = rng.bit_generator.state
    sq = np.zeros(size)
    for r0, r1, imag in drawn_rows():
        xc = x[: r1 - r0]
        for t in tiles:
            xc.real[:, t] = parked[r0:r1, t]
        xc.imag = imag
        # The squares as np.linalg.norm takes them, by numpy's complex
        # multiply: re*re + im*im rounds differently where that multiply fuses.
        terms = np.multiply(np.conjugate(xc, out=prod[: r1 - r0]), xc, out=prod[: r1 - r0])
        if size == 1:
            sq = np.add.reduce(terms.real, axis=0)
        else:
            for row in terms.real:
                sq += row
    gain = math.sqrt(target_energy) / np.sqrt(sq)

    # A complex value times a real gain rounds as its two parts times the
    # gain do (but for the sign of an exact zero), so each part is scaled on
    # its own, then rounded into place.
    rng.bit_generator.state = imag_state
    scaled = x.view(np.float64).reshape(-1)
    for r0, r1, imag in drawn_rows():
        real = np.multiply(
            parked[r0:r1], gain, out=scaled[: (r1 - r0) * size].reshape((-1, size), order="F")
        )
        # Rows r0:r1 of the output overwrite only the parked rows r0:r1.
        cols.real[r0:r1] = real
        imag *= gain
        for t in tiles:
            cols.imag[r0:r1, t] = imag[:, t]
    return cols


def _prefetched(items):
    """Yield from the iterator `items`, which yields no None, computing each
    next item in a worker thread while the caller uses the current one.
    numpy's random fills and array copies release the GIL, so a draw
    overlaps the copies of the chunk before it."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(next, items, None)
        while (item := pending.result()) is not None:
            pending = pool.submit(next, items, None)
            yield item


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
