"""Closed-form references: Aloha collision probability, AWGN capacity and
dispersion, the finite-blocklength normal approximation and its inversion,
plus import of external reference curves (ka, snr_db) from CSV.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

LOG2E = math.log2(math.e)


class CurveError(ValueError):
    """Malformed reference-curve file."""


@dataclass(frozen=True)
class BoundQuery:
    n: int            # complex channel uses
    k: float          # payload bits (log2 M)
    epsilon: float    # target error probability
    snr: float        # P / sigma^2, linear

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.snr <= 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class ReferenceCurve:
    points: tuple[tuple[float, float], ...]   # (ka, snr_db), ka strictly increasing

    def snr_db_at(self, ka: float) -> float | None:
        """Linear interpolation in ka; None outside the curve's range."""
        ks = [p[0] for p in self.points]
        if not ks or ka < ks[0] or ka > ks[-1]:
            return None
        for (k0, s0), (k1, s1) in zip(self.points, self.points[1:]):
            if k0 <= ka <= k1:
                if k1 == k0:
                    return s0
                t = (ka - k0) / (k1 - k0)
                return s0 + t * (s1 - s0)
        return self.points[-1][1]


def aloha_collision_probability(ka: int, slots: int) -> float:
    """P[someone else selects my slot] = 1 - (1 - 1/L)^(Ka - 1)."""
    if ka < 1 or slots < 1:
        raise ValueError("need ka >= 1 and slots >= 1")
    return 1.0 - (1.0 - 1.0 / slots) ** (ka - 1)


def awgn_capacity(snr: float) -> float:
    """C = log2(1 + snr), bits per complex channel use."""
    if snr <= 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    return math.log2(1.0 + snr)


def awgn_dispersion(snr: float) -> float:
    """V = snr (snr + 2) / (snr + 1)^2 * log2(e)^2, squared bits per use."""
    if snr <= 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    return snr * (snr + 2.0) / (snr + 1.0) ** 2 * LOG2E * LOG2E


def q_inv(epsilon: float) -> float:
    """Upper quantile of the standard normal: Q(q_inv(eps)) = eps."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    return -NormalDist().inv_cdf(epsilon)


def normal_approx_log_m(query: BoundQuery) -> float:
    """log2 M = n C - sqrt(n V) Q^-1(eps); the O(log n) term is dropped."""
    c = awgn_capacity(query.snr)
    v = awgn_dispersion(query.snr)
    return query.n * c - math.sqrt(query.n * v) * q_inv(query.epsilon)


def min_snr_single_user(n: int, k: float, epsilon: float) -> float:
    """The unique snr with normal_approx_log_m(n, k, eps, snr) = k.

    Uniqueness follows from strict monotonicity of the approximation in snr.
    Bisection on a bracket [lo, hi] with gap(lo) <= 0 < gap(hi), until its
    width is at most 1e-12 * hi or it stops shrinking; returns its midpoint.
    """
    def gap(snr):
        return normal_approx_log_m(BoundQuery(n=n, k=k, epsilon=epsilon, snr=snr)) - k

    lo, hi = 1e-9, 1.0
    for _ in range(80):
        if gap(hi) > 0:
            break
        hi *= 4.0
    else:
        raise ArithmeticError(f"bracket expansion failed for n={n}, k={k}, eps={epsilon}")
    if gap(lo) > 0:
        return lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def load_reference_curve(path) -> ReferenceCurve:
    """Parse a `ka,snr_db` CSV (UTF-8, LF) into a ReferenceCurve."""
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CurveError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["ka", "snr_db"]:
            raise CurveError(f"{path}:1: expected header 'ka,snr_db', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise CurveError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                ka, snr_db = float(row[0]), float(row[1])
            except ValueError:
                raise CurveError(f"{path}:{lineno}: non-numeric row {row!r}") from None
            if points and ka <= points[-1][0]:
                raise CurveError(
                    f"{path}:{lineno}: ka must be strictly increasing "
                    f"({ka} after {points[-1][0]})"
                )
            points.append((ka, snr_db))
    if not points:
        raise CurveError(f"{path}: no data rows")
    return ReferenceCurve(points=tuple(points))
