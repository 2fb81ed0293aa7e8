"""Sparse preamble detection (OMP), energy detection, LS channel estimation,
and the windowed subtraction primitive used by interference cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    residual_history: list[float] = field(default_factory=list)


def _columns(dictionary) -> np.ndarray:
    if isinstance(dictionary, Dictionary):
        return dictionary.columns
    return np.asarray(dictionary)


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
    the selected indices do not change when every column is scaled by the
    same positive constant.
    """
    a = _columns(dictionary)
    if a.ndim != 2:
        raise DetectionError("dictionary must be a 2-D column matrix")
    if len(y) != a.shape[0]:
        raise DetectionError(f"signal length {len(y)} != column length {a.shape[0]}")
    y = np.asarray(y, dtype=complex)
    e_y = energy(y)
    stop_energy = residual_threshold * e_y
    max_iters = max(0, min(max_iters, a.shape[1]))

    selected: list[int] = []
    rows = np.empty((max_iters, a.shape[0]), dtype=complex)   # selected columns
    chol = np.zeros((max_iters, max_iters), dtype=complex, order="F")   # L L^H = Gram
    z = np.empty(max_iters, dtype=complex)                    # L z = A_s^H y
    coef = np.zeros(0, dtype=complex)
    residual = y
    res_energy = e_y
    history = [res_energy]
    for k in range(max_iters):
        if res_energy <= stop_energy:
            break
        # |a_j^T conj(r)| == |a_j^H r| without a conjugated dictionary copy.
        corr = np.abs(a.T @ residual.conj())
        corr[selected] = -1.0
        j = int(np.argmax(corr))
        col = a[:, j]
        col_energy = energy(col)
        # New Cholesky row [w^H, d]: L w = A_s^H a_j, d^2 = |a_j|^2 - |w|^2.
        # Triangular solves call BLAS trsv directly: the checked scipy
        # wrappers cost more than the solves at these sizes.
        w = (rows[:k] @ col.conj()).conj()
        if k:
            w = ztrsv(chol[:k, :k], w, lower=1)
        pivot = col_energy - energy(w)
        if pivot <= LS_PIVOT_TOL * col_energy:
            break
        d = np.sqrt(pivot)
        chol[k, :k] = w.conj()
        chol[k, k] = d
        rows[k] = col
        z[k] = (np.vdot(col, y) - np.vdot(w, z[:k])) / d
        selected.append(j)
        coef = ztrsv(chol[: k + 1, : k + 1], z[: k + 1], lower=1, trans=2)   # L^H c = z
        residual = y - rows[: k + 1].T @ coef
        # LS projection cannot increase the residual; clamp float jitter.
        res_energy = min(res_energy, energy(residual))
        history.append(res_energy)
    return DetectionResult(
        indices=selected,
        coefficients=coef,
        residual_energy=res_energy,
        residual_history=history,
    )


def energy_detect(y_segment: np.ndarray, threshold_factor: float, noise_power: float) -> bool:
    """True iff the per-sample energy exceeds threshold_factor * noise_power."""
    if len(y_segment) == 0:
        raise DetectionError("cannot energy-detect an empty segment")
    return energy(y_segment) / len(y_segment) > threshold_factor * noise_power


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
