"""Channel models of the K-user MAC: AWGN, and quasi-static Rayleigh fading
with one CN(0, 1) gain per user and frame.  The experiments in `montecarlo`
build the received frame y = sum_i h_i x_i + z from these pieces.

All powers are linear and per complex sample; dB conversions happen only at
interface boundaries.  A "signal" is a 1-D complex numpy array; its length is
the number of complex channel uses.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np


class ChannelModel(str, Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"


def energy(x: np.ndarray) -> float:
    """Total signal energy sum |x_i|^2."""
    return float(np.real(np.vdot(x, x)))


def complex_noise(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, `variance` per complex sample."""
    out = np.empty(n, dtype=complex)
    out.real = rng.standard_normal(n)     # real parts drawn first, then imaginary
    out.imag = rng.standard_normal(n)
    out *= math.sqrt(variance / 2.0)
    return out
