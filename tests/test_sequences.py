import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import umacsim
from umacsim.channel import energy
from umacsim.sequences import (
    Dictionary,
    DictionaryKind,
    PreambleSpec,
    SequenceError,
    _gaussian_columns,
    _zadoff_chu_columns,
    build_pilot_dictionary,
    build_preamble_dictionary,
    zadoff_chu,
)


def periodic_xcorr(a, b):
    """Brute-force periodic cross-correlation magnitudes at all lags."""
    n = len(a)
    return np.array([abs(np.vdot(np.roll(b, lag), a)) for lag in range(n)])


class TestZadoffChu:
    def test_unit_modulus_exact(self):
        for root in (1, 5, 138):
            x = zadoff_chu(root, 139)
            assert np.all(np.abs(np.abs(x) - 1.0) < 1e-12)

    @pytest.mark.parametrize("length", [7, 139])
    def test_autocorrelation_sidelobes(self, length):
        for root in range(1, length):
            x = zadoff_chu(root, length)
            mags = periodic_xcorr(x, x)
            assert mags[0] == pytest.approx(length, rel=1e-12)
            assert np.all(mags[1:] < 1e-9)

    def test_cross_root_correlation(self):
        a = zadoff_chu(1, 139)
        b = zadoff_chu(2, 139)
        mags = periodic_xcorr(a, b)
        assert np.all(np.abs(mags - math.sqrt(139)) < 1e-6)

    def test_composite_length_rejected(self):
        with pytest.raises(SequenceError):
            zadoff_chu(1, 140)

    def test_bad_root_rejected(self):
        with pytest.raises(SequenceError):
            zadoff_chu(0, 139)
        with pytest.raises(SequenceError):
            zadoff_chu(139, 139)


class TestPreambleDictionary:
    def test_standard_family_shape_and_energy(self):
        # Energies of the complex128 values, which are stored rounded to complex64.
        exact = _zadoff_chu_columns(64, 139, 2, 1.0, complex)
        d = build_preamble_dictionary(PreambleSpec(size=64, base_length=139, repetitions=2))
        assert d.columns.shape == (278, 64)
        assert np.array_equal(d.columns, exact.astype(np.complex64))
        for j in range(64):
            e = float(np.sum(np.abs(exact[:, j]) ** 2))
            assert e == pytest.approx(278.0, rel=1e-9)

    def test_power_scale(self):
        exact = _zadoff_chu_columns(8, 139, 2, 1 / 12, complex)
        spec = PreambleSpec(size=8, base_length=139, repetitions=2, power_scale=1 / 12)
        d = build_preamble_dictionary(spec)
        assert np.array_equal(d.columns, exact.astype(np.complex64))
        for j in range(8):
            e = float(np.sum(np.abs(exact[:, j]) ** 2))
            assert e == pytest.approx(278 / 12, rel=1e-9)

    def test_repetition_structure(self):
        d = build_preamble_dictionary(PreambleSpec(size=4, base_length=31, repetitions=2))
        for j in range(4):
            col = d.column(j)
            assert np.allclose(col[:31], col[31:], rtol=0, atol=1e-12)

    def test_single_gaussian_column_energy(self):
        # Gaussian preambles are drawn from the fixed seed 0.
        exact = _gaussian_columns(1, 50, 50.0, np.random.default_rng(0), complex)
        d = build_preamble_dictionary(
            PreambleSpec(size=1, base_length=50, kind=DictionaryKind.GAUSSIAN)
        )
        assert np.array_equal(d.columns, exact.astype(np.complex64))
        e = float(np.sum(np.abs(exact[:, 0]) ** 2))
        assert e == pytest.approx(50.0, rel=1e-12)

    def test_large_gaussian_coherence(self):
        d = build_preamble_dictionary(
            PreambleSpec(size=8192, base_length=1778, kind=DictionaryKind.GAUSSIAN)
        )
        rng = np.random.default_rng(2)
        for _ in range(200):
            i, j = rng.choice(8192, size=2, replace=False)
            coh = abs(np.vdot(d.column(i), d.column(j))) / energy(d.column(i))
            assert coh < 0.2

    def test_zc_overflow_suggests_gaussian(self):
        with pytest.raises(SequenceError, match="Gaussian"):
            PreambleSpec(size=10**6, base_length=139)

    def test_gaussian_determinism(self):
        spec = PreambleSpec(size=16, base_length=40, kind=DictionaryKind.GAUSSIAN)
        d1 = build_preamble_dictionary(spec)
        d2 = build_preamble_dictionary(spec)
        assert np.array_equal(d1.columns, d2.columns)

    def test_columns_immutable(self):
        d = build_preamble_dictionary(PreambleSpec(size=4, base_length=31))
        with pytest.raises(ValueError):
            d.columns[0, 0] = 0.0


def naive_gaussian_columns(size, length, target_energy, rng, dtype):
    """The whole draw at once: one real block, one imaginary block, then
    each column scaled by sqrt(target_energy) / its 2-norm."""
    x = rng.standard_normal((length, size)) + 1j * rng.standard_normal((length, size))
    x *= math.sqrt(target_energy) / np.linalg.norm(x, axis=0)
    return x.astype(dtype)


class TestGaussianColumns:
    # One column (which np.linalg.norm sums pairwise), widths around 128,
    # several row chunks, and chunks of one row spanning many column tiles.
    @pytest.mark.parametrize("size, length", [
        (1, 50), (1, 139), (2, 50), (127, 40), (128, 40), (129, 40), (257, 33),
        (600, 1000), (2**19 + 3, 3),
    ])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_matches_naive_draw(self, size, length, dtype):
        # Seed 0 is one at which summing a single column row by row, not
        # pairwise, changes the complex128 bytes at both lengths.
        energy_ = 0.75 * length
        rng = np.random.default_rng(0)
        ref_rng = np.random.default_rng(0)
        cols = _gaussian_columns(size, length, energy_, rng, dtype)
        ref = naive_gaussian_columns(size, length, energy_, ref_rng, dtype)
        assert cols.dtype == dtype and cols.shape == (length, size)
        assert cols.flags.f_contiguous
        assert cols.tobytes(order="F") == ref.tobytes(order="F")
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_concurrent_builds_under_fast_switching(self):
        """Four builds at once, more threads than cores, each prefetching its
        four chunks of draws in a worker thread of its own, while the
        interpreter switches threads as often as it can."""
        size, length, seeds = 512, 3100, range(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [
                    pool.submit(_gaussian_columns, size, length, length,
                                np.random.default_rng(seed), np.complex64)
                    for seed in seeds
                ]
                built = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for seed, cols in zip(seeds, built):
            ref = naive_gaussian_columns(
                size, length, length, np.random.default_rng(seed), np.complex64
            )
            assert cols.tobytes(order="F") == ref.tobytes(order="F")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_build_memory_is_the_stored_bytes(self):
        """Building `sbidma_tuned`'s dictionaries (8192 Gaussian preambles of
        length 1778) raises the peak RSS by little more than the bytes they
        keep: no complex128 copy of the preambles is staged."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(umacsim.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import resource\n"
            "from umacsim.cli import build_experiment, load_preset\n"
            "from umacsim.protocols import build_dictionaries\n"
            "config = build_experiment(load_preset('sbidma_tuned')).config\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "pre, pilots = build_dictionaries(config)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024, pre.columns.nbytes + pilots.columns.nbytes)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        growth, stored = map(int, proc.stdout.split())
        assert growth <= 1.4 * stored, f"peak grew {growth / stored:.2f}x the stored bytes"


class TestPilotDictionary:
    def test_energy_exact(self):
        d = build_pilot_dictionary(16, 50)
        for j in range(16):
            e = float(np.sum(np.abs(d.column(j)) ** 2))
            assert e == pytest.approx(50.0, rel=1e-9)

    def test_size_one(self):
        d = build_pilot_dictionary(1, 50)
        assert d.columns.shape == (50, 1)

    def test_pairwise_coherence_sampled(self):
        # 300 disjoint column pairs of one self-seeded dictionary.
        trials = 300
        d = build_pilot_dictionary(2 * trials, 50)
        low = 0
        for i in range(0, 2 * trials, 2):
            coh = abs(np.vdot(d.column(i), d.column(i + 1))) / energy(d.column(i))
            if coh < 0.5:
                low += 1
        assert low / trials >= 0.99

    def test_invalid_args(self):
        with pytest.raises(SequenceError):
            build_pilot_dictionary(0, 50)
        with pytest.raises(SequenceError):
            build_pilot_dictionary(2, 0)


class TestPreambleSpec:
    # The Zadoff-Chu rules are checked above and, through configs, in
    # tests/test_cli.py.
    @pytest.mark.parametrize("kwargs, match", [
        (dict(size=0, base_length=31), "size"),
        (dict(size=4, base_length=0, kind=DictionaryKind.GAUSSIAN), "base length"),
        (dict(size=4, base_length=31, repetitions=0), "repetitions"),
        (dict(size=4, base_length=31, power_scale=math.inf), "power scale"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(SequenceError, match=match):
            PreambleSpec(**kwargs)
