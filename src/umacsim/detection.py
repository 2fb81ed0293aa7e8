"""Sparse preamble detection (OMP), energy detection, LS channel estimation,
and the windowed subtraction primitive used by interference cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ztrsv

from .channel import energy
from .sequences import Dictionary

# A selected column whose squared distance from the span of the columns
# already selected is at most this fraction of its energy is taken as
# linearly dependent on them: OMP stops instead of selecting it.
LS_PIVOT_TOL = 1e-12


class DetectionError(ValueError):
    pass


@dataclass
class DetectionResult:
    indices: list[int]                 # in selection order, no repeats
    coefficients: np.ndarray           # LS amplitude per selected index
    residual_energy: float


def _dictionary(dictionary) -> Dictionary:
    if isinstance(dictionary, Dictionary):
        return dictionary
    # A view, so the read-only flag Dictionary sets leaves the caller's array alone.
    return Dictionary(columns=np.asarray(dictionary).view())


def omp_detect(
    y: np.ndarray,
    dictionary,
    max_iters: int,
    residual_threshold: float = 0.0,
) -> DetectionResult:
    """Orthogonal matching pursuit on `y` against the dictionary columns.

    Greedy loop: pick the unselected column with the largest |<a_j, r>|,
    re-solve least squares on the selected set, update the residual.  Stops
    at `max_iters` selections, when the residual energy drops to
    `residual_threshold * energy(y)`, or when the picked column is linearly
    dependent on the selected ones (see `LS_PIVOT_TOL`; it is not selected).

    The least squares is OMP-Cholesky: the Cholesky factor of the selected
    columns' Gram matrix grows by one row per selection, so each iteration
    costs one pass over the dictionary plus O(length * k) for the k selected
    columns.  `coefficients` are in the units of the dictionary passed in;
    the selected indices do not change when every column is scaled exactly
    by the same positive constant.  This is `omp_detect_many` on one signal.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise DetectionError("signal must be 1-D")
    return omp_detect_many(y[:, None], dictionary, max_iters, residual_threshold)[0]


def omp_detect_many(
    ys: np.ndarray,
    dictionary,
    max_iters,
    residual_threshold=0.0,
) -> list[DetectionResult]:
    """`omp_detect` on every column of `ys` (shape (length, B)), in lockstep.

    `max_iters` and `residual_threshold` are scalars or one value per column.
    Each column keeps its own selections, Cholesky factor and stopping rule;
    only the correlation step is shared.  Every iteration correlates all
    still-running residuals at once, conj(R) @ A with R the (running, length)
    residuals, so the dictionary is read once per iteration for the batch
    instead of once per signal (Batch-OMP in the sense of Rubinstein,
    Zibulevsky & Elad 2008, without their precomputed Gram matrix, which
    does not fit in memory for large dictionaries).

    The correlation runs in the dictionary's own precision: complex64 for
    the preamble dictionaries, whose contiguous columns make the product
    fast.  Only the pick reads it, and the pick is exact: every column
    whose correlation lies within a rigorous rounding bound of the largest
    (`_rounding_bound`) is re-scored in complex128, and the largest
    re-scored value wins, ties to the lowest index as `np.argmax` breaks
    them.  So the selections are those of a complex128 correlation of the
    same column values, whatever the dictionary's dtype or the batch (mixed
    precision in the sense of Higham & Mary, Acta Numerica 2022).  Least
    squares and residuals are complex128 throughout.
    """
    d = _dictionary(dictionary)
    a = d.columns
    if a.ndim != 2:
        raise DetectionError("dictionary must be a 2-D column matrix")
    ys = np.asarray(ys)
    if ys.ndim != 2:
        raise DetectionError("signals must be a 2-D array with one signal per column")
    if ys.shape[0] != a.shape[0]:
        raise DetectionError(f"signal length {ys.shape[0]} != column length {a.shape[0]}")
    count = ys.shape[1]
    iters = np.broadcast_to(max_iters, (count,))
    thresholds = np.broadcast_to(residual_threshold, (count,))
    states = [
        _CholeskyOmp(ys[:, b], a, int(iters[b]), float(thresholds[b])) for b in range(count)
    ]
    running = [s for s in states if s.running]
    work = np.result_type(a.dtype, np.complex64)     # complex64 or complex128
    bound_factor, bound_floor = _rounding_bound(a.shape[0], work, d.max_column_norm)
    while running:
        conj_residuals = np.empty((len(running), a.shape[0]), dtype=work)
        for row, state in zip(conj_residuals, running):
            np.conjugate(state.residual, out=row)
        # |conj(r)^T a_j| == |a_j^H r| without a conjugated dictionary copy.
        corr = np.abs(conj_residuals @ a)
        for state, c in zip(running, corr):
            state.step(c, bound_factor * state.res_norm + bound_floor)
        running = [s for s in running if s.running]
    return [s.result() for s in states]


def _rounding_bound(n: int, dtype, max_norm: float) -> tuple[float, float]:
    """(factor, floor) with |c_j - s_j| <= factor * ||r|| + floor for every j,
    where c_j is a correlation |a_j^H r| computed as `omp_detect_many` does
    in `dtype`, and s_j its complex128 re-score in `_CholeskyOmp._pick`.

    In `dtype` with unit roundoff u and gamma_k = k u / (1 - k u): rounding
    r to `dtype` adds at most u |a_j| |r|, the n-term complex dot product in
    any summation order gamma_(n+2) |a_j| |r|, and `abs` 2u of its result,
    together at most gamma_(n+5) |a_j| |r|.  The complex128 re-score adds
    gamma_(n+4) in double precision.  One more unit in each covers computing
    |a_j| and |r| in double precision, and `floor` covers underflow to
    `dtype`'s subnormals.  |a_j| is bounded by the largest column norm.
    """
    def gamma(k: int, u: float) -> float:
        return k * u / (1.0 - k * u)

    finfo = np.finfo(dtype)
    u = float(finfo.eps) / 2.0
    factor = (gamma(n + 6, u) + gamma(n + 6, 2.0**-53)) * max_norm
    floor = n * (max_norm + 4.0) * float(finfo.smallest_subnormal)
    return factor, floor


class _CholeskyOmp:
    """One signal's OMP-Cholesky state inside `omp_detect_many`."""

    def __init__(self, y: np.ndarray, a: np.ndarray, max_iters: int, residual_threshold: float):
        self.a = a
        self.y = np.array(y, dtype=complex)        # contiguous copy of the column
        e_y = energy(self.y)
        self.stop_energy = residual_threshold * e_y
        self.max_iters = max(0, min(max_iters, a.shape[1]))
        self.selected: list[int] = []
        # L L^H = Gram matrix of the selected columns, and L z = A_s^H y.
        self.chol = np.zeros((self.max_iters, self.max_iters), dtype=complex, order="F")
        self.z = np.empty(self.max_iters, dtype=complex)
        self.coef = np.zeros(0, dtype=complex)
        self.residual = self.y
        self.res_energy = e_y
        self.res_norm = np.sqrt(e_y)
        self.running = self.max_iters > 0 and e_y > self.stop_energy

    def _pick(self, corr: np.ndarray, bound: float) -> int:
        """The unselected column with the largest complex128 correlation,
        from this signal's correlations in the dictionary's precision
        (overwritten), each within `bound` of its complex128 value."""
        corr[self.selected] = -np.inf
        top = float(corr.max())
        # Any column below this cannot have the largest complex128 value.
        # np.float64 keeps the comparison in double precision.
        band = np.flatnonzero(corr >= np.float64(top - 2.0 * bound))
        if len(band) == 1:
            return int(band[0])
        # Re-scored the same way whatever the dictionary's dtype.
        scores = [abs(np.vdot(self.a[:, j].astype(complex), self.residual)) for j in band]
        return int(band[int(np.argmax(scores))])

    def step(self, corr: np.ndarray, bound: float) -> None:
        """One selection from this signal's correlations |a_j^H r|."""
        k = len(self.selected)
        j = self._pick(corr, bound)
        # The selected columns and a_j as rows, gathered afresh each step:
        # holding them for every signal of a batch would cost more memory
        # than the gather costs time.
        rows = self.a.T[self.selected + [j]].astype(complex, copy=False)
        col = rows[k]
        col_energy = energy(col)
        # New Cholesky row [w^H, d]: L w = A_s^H a_j, d^2 = |a_j|^2 - |w|^2.
        # Triangular solves call BLAS trsv directly: the checked scipy
        # wrappers cost more than the solves at these sizes.
        w = (rows[:k] @ col.conj()).conj()
        if k:
            w = ztrsv(self.chol[:k, :k], w, lower=1)
        pivot = col_energy - energy(w)
        if pivot <= LS_PIVOT_TOL * col_energy:
            self.running = False
            return
        d = np.sqrt(pivot)
        self.chol[k, :k] = w.conj()
        self.chol[k, k] = d
        self.z[k] = (np.vdot(col, self.y) - np.vdot(w, self.z[:k])) / d
        self.selected.append(j)
        # L^H c = z
        self.coef = ztrsv(self.chol[: k + 1, : k + 1], self.z[: k + 1], lower=1, trans=2)
        self.residual = self.y - rows.T @ self.coef
        e_r = energy(self.residual)
        self.res_norm = np.sqrt(e_r)
        # LS projection cannot increase the residual; clamp float jitter.
        self.res_energy = min(self.res_energy, e_r)
        self.running = k + 1 < self.max_iters and self.res_energy > self.stop_energy

    def result(self) -> DetectionResult:
        return DetectionResult(
            indices=self.selected,
            coefficients=self.coef,
            residual_energy=self.res_energy,
        )


def energy_detect(y_segment: np.ndarray, noise_power: float) -> bool:
    """True iff the per-sample energy exceeds the noise power."""
    if len(y_segment) == 0:
        raise DetectionError("cannot energy-detect an empty segment")
    return energy(y_segment) / len(y_segment) > noise_power


def ls_channel_estimate(y_segment: np.ndarray, pilot: np.ndarray) -> complex:
    """Scalar least-squares gain estimate h_hat = <p, y> / ||p||^2."""
    if len(y_segment) != len(pilot):
        raise DetectionError(
            f"segment length {len(y_segment)} != pilot length {len(pilot)}"
        )
    e_p = energy(pilot)
    if e_p == 0.0:
        raise DetectionError("pilot has zero energy")
    return complex(np.vdot(pilot, y_segment) / e_p)


def subtract(y: np.ndarray, contribution: np.ndarray, offset: int = 0) -> np.ndarray:
    """Return y with `contribution` subtracted on [offset, offset + len)."""
    if offset < 0 or offset + len(contribution) > len(y):
        raise DetectionError(
            f"contribution of length {len(contribution)} at offset {offset} "
            f"does not fit in signal of length {len(y)}"
        )
    out = y.copy()
    out[offset : offset + len(contribution)] -= contribution
    return out
