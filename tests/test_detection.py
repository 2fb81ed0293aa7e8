import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umacsim import detection, protocols
from umacsim.channel import complex_noise, energy
from umacsim.cli import build_experiment, load_preset
from umacsim.detection import (
    FETCH_AHEAD,
    GRAM_BYTES,
    SPLIT_BYTES,
    DetectionError,
    SicHistory,
    energy_detect,
    gram_store,
    ls_channel_estimate,
    omp_detect,
    omp_detect_many,
    subtract,
)
from umacsim.montecarlo import estimate_pupe
from umacsim.sequences import Dictionary, PreambleSpec, build_preamble_dictionary


def gaussian_dict(rows, cols, seed):
    rng = np.random.default_rng(seed)   # a seed or a Generator
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return a / np.linalg.norm(a, axis=0)


class TestOmp:
    def test_single_column_recovery(self):
        d = build_preamble_dictionary(PreambleSpec(size=16, base_length=31, repetitions=2))
        y = d.column(5).astype(complex)
        res = omp_detect(y, d, max_iters=3)
        assert res.indices[0] == 5
        assert res.residual_energy < 1e-9

    def test_two_orthogonal_columns(self):
        a = np.zeros((8, 4), dtype=complex)
        a[0, 0] = a[1, 1] = a[2, 2] = a[3, 3] = 1.0
        y = a[:, 1] + 2.0 * a[:, 3]
        res = omp_detect(y, a, max_iters=2)
        assert set(res.indices) == {1, 3}
        assert res.residual_energy < 1e-18

    def test_residual_nonincreasing_and_no_repeats(self):
        a = gaussian_dict(60, 200, 0)
        rng = np.random.default_rng(1)
        y = a[:, rng.choice(200, 4, replace=False)] @ (
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ) + 0.1 * complex_noise(60, 1.0, rng)
        res = omp_detect(y, a, max_iters=10)
        assert len(res.indices) == len(set(res.indices))
        assert res.residual_energy <= energy(y)

    def test_orthonormal_exact_recovery(self):
        a = np.linalg.qr(gaussian_dict(64, 64, 2))[0]
        rng = np.random.default_rng(3)
        support = sorted(rng.choice(64, 6, replace=False))
        coefs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = a[:, support] @ coefs
        res = omp_detect(y, a, max_iters=6)
        assert sorted(res.indices) == support

    def test_dimension_mismatch(self):
        with pytest.raises(DetectionError):
            omp_detect(np.zeros(5, complex), gaussian_dict(6, 4, 0), max_iters=1)

    def test_residual_threshold_stops_early(self):
        a = gaussian_dict(50, 100, 4)
        y = a[:, 7].astype(complex)
        res = omp_detect(y, a, max_iters=10, residual_threshold=1e-6)
        assert res.indices == [7]


def reference_omp(y, a, max_iters, residual_threshold=0.0):
    """Textbook OMP re-solving np.linalg.lstsq each iteration: the oracle
    the Cholesky kernel must agree with, selection by selection."""
    e_y = float(np.real(np.vdot(y, y)))
    selected = []
    coef = np.zeros(0, dtype=complex)
    residual = y
    res_energy = e_y
    for _ in range(min(max_iters, a.shape[1])):
        if res_energy <= residual_threshold * e_y:
            break
        corr = np.abs(a.conj().T @ residual)
        corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        sub = a[:, selected]
        coef = np.linalg.lstsq(sub, y, rcond=1e-12)[0]
        residual = y - sub @ coef
        res_energy = min(res_energy, float(np.real(np.vdot(residual, residual))))
    return selected, coef


@st.composite
def sparse_problems(draw):
    """(dictionary, y, max_iters): a few active columns plus noise.

    Noise keeps correlations away from exact ties (Zadoff-Chu columns have
    equal cross-correlation magnitudes), and max_iters stays below half the
    rank, so no selected set is near-degenerate.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = draw(st.integers(16, 80))
        a = gaussian_dict(rows, draw(st.integers(rows, 3 * rows)), rng)
        rank = rows
    else:
        base = draw(st.sampled_from([13, 31, 37]))
        size = draw(st.integers(base, 3 * base))
        a = build_preamble_dictionary(
            PreambleSpec(size=size, base_length=base, repetitions=draw(st.integers(1, 2)))
        ).columns
        rank = base
    k = draw(st.integers(1, 4))
    support = rng.choice(a.shape[1], k, replace=False)
    coefs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    noise_std = draw(st.floats(0.01, 0.5))
    y = a[:, support] @ coefs + noise_std * complex_noise(a.shape[0], 1.0, rng)
    max_iters = draw(st.integers(1, rank // 2))
    return a, y, max_iters


thresholds = st.one_of(st.just(0.0), st.floats(0.01, 0.9))
omp_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestOmpEquivalence:
    @omp_settings
    @given(sparse_problems(), thresholds)
    def test_matches_lstsq_reference(self, problem, threshold):
        a, y, max_iters = problem
        res = omp_detect(y, a, max_iters=max_iters, residual_threshold=threshold)
        ref_indices, ref_coef = reference_omp(y, a, max_iters, threshold)
        assert res.indices == ref_indices
        np.testing.assert_allclose(res.coefficients, ref_coef, rtol=1e-8, atol=1e-10)

    @omp_settings
    @given(sparse_problems(), thresholds, st.floats(1e-3, 1e3))
    def test_common_column_scale_keeps_support(self, problem, threshold, scale):
        a, y, max_iters = problem
        if a.dtype == np.complex64:
            # A power of two scales complex64 columns exactly.
            scale = 2.0 ** round(math.log2(scale))
        base = omp_detect(y, a, max_iters=max_iters, residual_threshold=threshold)
        scaled = omp_detect(y, a * scale, max_iters=max_iters, residual_threshold=threshold)
        assert scaled.indices == base.indices
        np.testing.assert_allclose(
            scaled.coefficients * scale, base.coefficients, rtol=1e-8, atol=1e-10
        )

    @omp_settings
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0.1, 10.0),
    )
    def test_duplicated_columns_stop_cleanly(self, seed, n_dup, dup_scale):
        rng = np.random.default_rng(seed)
        a = gaussian_dict(20, 30, rng)
        dup = rng.choice(30, n_dup, replace=False)
        a = np.concatenate([a, a[:, dup] * dup_scale], axis=1)
        y = a[:, dup[0]]
        res = omp_detect(y, a, max_iters=a.shape[1])
        assert len(res.indices) == len(set(res.indices))
        assert np.linalg.matrix_rank(a[:, res.indices]) == len(res.indices)

    @pytest.mark.parametrize("r", [1e-6, 1e-9, 1e-11])
    def test_near_dependent_pair_matches_lstsq(self, r):
        """Column 1 is a0 + sqrt(r) a1, normalised: its squared distance from
        column 0 is about r, above LS_PIVOT_TOL, so OMP must select both and
        solve a least squares whose Gram matrix has condition number ~1/r.

        The normal-equation error grows as eps / r.  The tolerances are about
        ten times the worst errors over these 200 seeds of the Cholesky kernel
        with BLAS triangular solves (7.3 eps / r in the coefficients, 1.4 eps / r
        in the residual): 64 eps / r and 16 eps / r.  The residual energies
        differ by at most twice the residuals' relative distance."""
        eps = np.finfo(float).eps
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = gaussian_dict(24, 8, rng)
            col = a[:, 0] + math.sqrt(r) * a[:, 1]
            a[:, 1] = col / np.linalg.norm(col)
            coefs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            y = a @ coefs + 0.1 * complex_noise(24, 1.0, rng)
            res = omp_detect(y, a, max_iters=8)
            assert res.indices == reference_omp(y, a, 8)[0]
            assert sorted(res.indices) == list(range(8))
            sub = a[:, res.indices]
            coef = np.linalg.lstsq(sub, y, rcond=None)[0]
            residual = y - sub @ coef
            assert np.linalg.norm(res.coefficients - coef) <= 64 * eps / r * np.linalg.norm(coef)
            residual_tol = 16 * eps / r
            assert np.linalg.norm(y - sub @ res.coefficients - residual) <= (
                residual_tol * np.linalg.norm(residual)
            )
            assert res.residual_energy == pytest.approx(energy(residual), rel=2 * residual_tol)

    def test_parallel_columns_select_one(self):
        c = gaussian_dict(12, 1, 0)[:, 0]
        a = np.column_stack([c, c, 2.0 * c])
        res = omp_detect(c, a, max_iters=3)
        assert len(res.indices) == 1
        assert res.residual_energy < 1e-20


@st.composite
def stacked_problems(draw):
    """(dictionary, signals as columns, max_iters, thresholds, rank).

    The dictionary has `rank` < rows independent Gaussian columns plus
    scaled duplicates of some of them, so a signal with a noise component
    outside their span never reaches a zero residual: without an earlier
    stop, OMP selects `rank` columns and then stops at the pivot test on
    a column already in the span.  Signal 0 always runs to that stop.
    Duplicate scales stay away from 1, where a column and its duplicate
    would tie exactly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(12, 40))
    rank = draw(st.integers(2, rows - 2))
    base = gaussian_dict(rows, rank, rng)
    dup = rng.choice(rank, draw(st.integers(1, rank)), replace=False)
    scale = draw(st.one_of(st.floats(0.1, 0.7), st.floats(1.5, 10.0)))
    a = np.concatenate([base, base[:, dup] * scale], axis=1)
    count = draw(st.integers(2, 6))
    ys = np.empty((rows, count), dtype=complex)
    for b in range(count):
        k = int(rng.integers(1, rank + 1))
        support = rng.choice(rank, k, replace=False)
        coefs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        noise_std = draw(st.floats(0.01, 0.5))
        ys[:, b] = base[:, support] @ coefs + noise_std * complex_noise(rows, 1.0, rng)
    max_iters = [a.shape[1]] + [draw(st.integers(1, a.shape[1])) for _ in range(count - 1)]
    stops = [0.0] + [draw(thresholds) for _ in range(count - 1)]
    return a, ys, max_iters, stops, rank


class TestOmpMany:
    @omp_settings
    @given(stacked_problems())
    def test_each_column_matches_omp_detect(self, problem):
        a, ys, max_iters, thresholds, rank = problem
        many = omp_detect_many(ys, a, max_iters=max_iters, residual_threshold=thresholds)
        assert len(many) == ys.shape[1]
        # Signal 0 selected the whole span and stopped at the pivot test.
        assert len(many[0].indices) == rank
        for b, res in enumerate(many):
            alone = omp_detect(ys[:, b], a, max_iters[b], thresholds[b])
            assert res.indices == alone.indices
            np.testing.assert_allclose(res.coefficients, alone.coefficients, rtol=0, atol=1e-10)
            assert abs(res.residual_energy - alone.residual_energy) <= 1e-10

    def test_scalar_arguments_apply_to_every_column(self):
        a = gaussian_dict(30, 60, 5)
        rng = np.random.default_rng(6)
        ys = a[:, :3] + 0.05 * np.stack([complex_noise(30, 1.0, rng) for _ in range(3)], axis=1)
        many = omp_detect_many(ys, a, max_iters=4, residual_threshold=0.01)
        for b, res in enumerate(many):
            assert res.indices == omp_detect(ys[:, b], a, 4, 0.01).indices

    def test_shape_errors(self):
        a = gaussian_dict(6, 4, 0)
        with pytest.raises(DetectionError):
            omp_detect_many(np.zeros((5, 2), complex), a, max_iters=1)
        with pytest.raises(DetectionError):
            omp_detect_many(np.zeros(6, complex), a, max_iters=1)
        with pytest.raises(DetectionError):
            omp_detect(np.zeros((6, 1), complex), a, max_iters=1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        """A NaN threshold used to stop OMP before its first pick."""
        a = gaussian_dict(20, 40, 0)
        with pytest.raises(DetectionError, match="residual_threshold"):
            omp_detect(a[:, 3], a, 5, residual_threshold=threshold)
        with pytest.raises(DetectionError, match="residual_threshold"):
            omp_detect_many(a[:, :2], a, 5, residual_threshold=[0.1, threshold])

    @pytest.mark.parametrize("sample", [complex("nan"), complex("inf"), complex(0, -math.inf)])
    def test_non_finite_signal_rejected(self, sample):
        a = gaussian_dict(20, 40, 0)
        ys = a[:, :3].copy()
        ys[7, 1] = sample
        with pytest.raises(DetectionError, match="finite"):
            omp_detect_many(ys, a, 5)
        with pytest.raises(DetectionError, match="finite"):
            omp_detect(ys[:, 1], a, 5)

    @pytest.mark.parametrize("entry", [complex("nan"), complex("inf"), complex(0, -math.inf)])
    def test_non_finite_dictionary_rejected(self, entry):
        """One non-finite entry, here in the second block of columns the
        norm scan reads, gives a DetectionError, not numpy's error from an
        empty argmax; the largest column norm is not finite, not 0."""
        a = gaussian_dict(20, 300, 0)
        y = a[:, 3].copy()
        a[5, 200] = entry
        assert not math.isfinite(Dictionary(columns=a.view()).max_column_norm)
        with pytest.raises(DetectionError, match="dictionary must be finite"):
            omp_detect(y, a, 5)
        with pytest.raises(DetectionError, match="dictionary must be finite"):
            omp_detect_many(a[:, :2], a.astype(np.complex64, order="F"), 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("collinear, scale", [
        *[pytest.param(False, s, id=f"{s:g}") for s in (1e39, 1e60, 1e100)],
        pytest.param(True, 1e40, id="collinear-1e+40"),
    ])
    def test_correlation_overflow_rejected(self, collinear, scale):
        """A finite signal beyond complex64's range used to make inf - inf =
        NaN in the correlations, an empty pick band and numpy's error from
        an empty argmax.  A signal within it, on the near-collinear columns
        e1 and e1 + 2e-6 e2, has least-squares coefficients beyond it after
        two picks; its correlations were computed before their bound was
        checked, so numpy warned of an overflow before the error.  Both are
        rejected before numpy meets an overflow, so no RuntimeWarning
        precedes the error, and both are detected at 1e30."""
        if collinear:
            a = np.zeros((8, 4), np.complex64)
            a[0, :2], a[1, 1], a[2, 2], a[3, 3] = 1, 2e-6, 1, 1
            c = a.astype(complex)
            y, iters, picks = c[:, 0] - c[:, 1] + 1e-13 * c[:, 2] + 1e-14 * c[:, 3], 4, [1, 0]
        else:
            a = gaussian_dict(40, 100, 0).astype(np.complex64, order="F")
            y, iters, picks = 2 * a[:, 3].astype(complex) + a[:, 7], 5, [3, 7]
        with pytest.raises(DetectionError, match="correlations overflow"):
            omp_detect(scale * y, Dictionary(columns=a), iters)
        assert omp_detect(1e30 * y, Dictionary(columns=a), iters).indices[:2] == picks

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype, scale", [
        (np.complex64, 1e160), (np.complex64, 1e300), (np.complex128, 1e300),
    ])
    def test_signal_energy_overflow_rejected(self, dtype, scale):
        """A finite signal whose float64 energy overflows used to return no
        selection and a NaN residual energy."""
        a = gaussian_dict(40, 100, 0).astype(np.complex64, order="F")
        y = scale * (2 * a[:, 3].astype(complex) + a[:, 7])
        d = Dictionary(columns=a.astype(dtype))
        with pytest.raises(DetectionError, match="energy overflows"):
            omp_detect(y, d, 5)
        with pytest.raises(DetectionError, match="energy overflows"):
            omp_detect_many(np.column_stack([a[:, 3], y]), d, 5)

    def test_idle_call_makes_no_pass(self, monkeypatch):
        """A call in which no signal runs (a zero signal, one whose threshold
        its own energy meets, one with no iterations) reads no dictionary
        column and never touches the Gram store, so it takes no lock."""
        passes = []
        whole = detection._pass

        def counted(rows, a, out):
            passes.append(rows.shape[0])
            return whole(rows, a, out)

        monkeypatch.setattr(detection, "_pass", counted)
        a = gaussian_dict(20, 40, 0)
        d = Dictionary(columns=a)
        ys = np.column_stack([np.zeros(20), a[:, 3], a[:, 5]])
        results = omp_detect_many(ys, d, [5, 5, 0], residual_threshold=[0.0, 1.0, 0.0])
        assert passes == []
        assert "gram" not in vars(d)
        assert [r.indices for r in results] == [[], [], []]
        assert [r.residual_energy for r in results] == [energy(y.copy()) for y in ys.T]
        omp_detect_many(ys, d, 5)
        assert passes[0] == 2

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
    def test_per_signal_values_match_signal_count(self, shape):
        """Three signals take one value or three, not numpy's broadcast."""
        a = gaussian_dict(20, 40, 0)
        ys = a[:, :3]
        with pytest.raises(DetectionError, match="max_iters"):
            omp_detect_many(ys, a, max_iters=np.full(shape, 4))
        with pytest.raises(DetectionError, match="residual_threshold"):
            omp_detect_many(ys, a, 4, residual_threshold=np.full(shape, 0.1))


@st.composite
def near_tie_problems(draw):
    """(complex64 dictionary, signals as columns, max_iters, thresholds).

    Some columns have a near-duplicate: the same column plus a relative
    perturbation of 1e-7 to 1e-5.  A signal built on such a column
    correlates with the pair within the complex64 correlation error, so
    only the complex128 re-score orders the two.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(16, 64))
    base = gaussian_dict(rows, draw(st.integers(4, rows)), rng)
    paired = rng.choice(base.shape[1], draw(st.integers(1, base.shape[1])), replace=False)
    eps = 10.0 ** draw(st.floats(-7.0, -5.0))
    near = base[:, paired] + eps * gaussian_dict(rows, len(paired), rng)
    a = np.concatenate([base, near], axis=1).astype(np.complex64, order="F")
    count = draw(st.integers(1, 4))
    ys = np.empty((rows, count), dtype=complex)
    for b in range(count):
        k = int(rng.integers(1, len(paired) + 1))
        support = rng.choice(paired, k, replace=False)
        coefs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        noise_std = draw(st.floats(0.001, 0.1))
        ys[:, b] = base[:, support] @ coefs + noise_std * complex_noise(rows, 1.0, rng)
    max_iters = [draw(st.integers(1, a.shape[1])) for _ in range(count)]
    stops = [draw(thresholds) for _ in range(count)]
    return a, ys, max_iters, stops


class TestMixedPrecision:
    @omp_settings
    @given(near_tie_problems())
    def test_complex64_dictionary_matches_complex128(self, problem):
        """The complex64 correlation with its complex128 band re-check picks
        what a complex128 correlation of the same column values picks."""
        a, ys, max_iters, stops = problem
        many = omp_detect_many(ys, a, max_iters=max_iters, residual_threshold=stops)
        wide = a.astype(complex)
        for b, res in enumerate(many):
            ref = omp_detect(ys[:, b], wide, max_iters[b], stops[b])
            assert res.indices == ref.indices
            np.testing.assert_allclose(res.coefficients, ref.coefficients, rtol=0, atol=1e-10)


@st.composite
def wide_problems(draw):
    """(complex64 dictionary, signals as columns, max_iters, thresholds).

    The dictionary is 20 to 40 times wider than `FETCH_AHEAD` and each
    signal is built on at least `FETCH_AHEAD` atoms, so one call makes
    several Gram-row passes: a signal waits whenever its pick has no row
    yet and resumes when a pass brings it, and signals stop at staggered
    iteration counts.  Some columns have a near-duplicate (1e-7 to 1e-5
    apart), so the band re-check decides some picks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(2 * FETCH_AHEAD, 64))
    base = gaussian_dict(rows, draw(st.integers(20 * FETCH_AHEAD, 40 * FETCH_AHEAD)), rng)
    paired = rng.choice(base.shape[1], draw(st.integers(1, rows)), replace=False)
    eps = 10.0 ** draw(st.floats(-7.0, -5.0))
    near = base[:, paired] + eps * gaussian_dict(rows, len(paired), rng)
    a = np.concatenate([base, near], axis=1).astype(np.complex64, order="F")
    count = draw(st.integers(2, 6))
    ys = np.empty((rows, count), dtype=complex)
    for b in range(count):
        k = int(rng.integers(FETCH_AHEAD, rows // 2 + 1))
        support = rng.choice(base.shape[1], k, replace=False)
        near_tied = min(k, len(paired) // 2)
        support[:near_tied] = paired[:near_tied]
        coefs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        noise_std = draw(st.floats(0.001, 0.1))
        ys[:, b] = base[:, support] @ coefs + noise_std * complex_noise(rows, 1.0, rng)
    max_iters = [draw(st.integers(1, rows - 2)) for _ in range(count)]
    stops = [draw(thresholds) for _ in range(count)]
    return a, ys, max_iters, stops


def matches_complex128_omp(many, ys, a, max_iters, stops):
    """Each signal's result is what a complex128 OMP on it alone gives."""
    wide = a.astype(complex)
    for b, res in enumerate(many):
        ref = omp_detect(ys[:, b], wide, max_iters[b], stops[b])
        assert res.indices == ref.indices
        np.testing.assert_allclose(res.coefficients, ref.coefficients, rtol=0, atol=1e-10)
        assert abs(res.residual_energy - ref.residual_energy) <= 1e-10


class TestGramRows:
    @omp_settings
    @given(wide_problems())
    def test_each_signal_matches_complex128_omp(self, problem):
        """Correlations updated from Gram rows fetched in shared passes pick
        what a complex128 OMP on one signal at a time picks, with the rows
        in the dictionary's store and, at `GRAM_BYTES` 0, in a per-call one."""
        a, ys, max_iters, stops = problem
        for gram_bytes in (GRAM_BYTES, 0):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(detection, "GRAM_BYTES", gram_bytes)
                many = omp_detect_many(ys, a, max_iters=max_iters, residual_threshold=stops)
            matches_complex128_omp(many, ys, a, max_iters, stops)


def wide_problem():
    """A complex64 Gaussian dictionary of 400 columns, 20 times FETCH_AHEAD,
    and six signals of 8 atoms each plus noise."""
    rng = np.random.default_rng(13)
    a = gaussian_dict(40, 400, rng).astype(np.complex64, order="F")
    ys = np.empty((40, 6), dtype=complex)
    for b in range(ys.shape[1]):
        support = rng.choice(a.shape[1], 8, replace=False)
        coefs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ys[:, b] = a[:, support].astype(complex) @ coefs + 0.05 * complex_noise(40, 1.0, rng)
    return a, ys


class TestGramStore:
    @omp_settings
    @given(wide_problems())
    def test_calls_on_a_partly_filled_store(self, problem):
        """A second call on the same dictionary, with other signals, starts
        from the rows the first call left in the store and still picks what
        a complex128 OMP on one signal at a time picks."""
        a, ys, max_iters, stops = problem
        # Signal 0 makes at least two picks, so the first call fetches rows.
        max_iters[0], stops[0] = max(2, max_iters[0]), 0.0
        d = Dictionary(columns=a)
        half = ys.shape[1] // 2
        first = omp_detect_many(ys[:, :half], d, max_iters[:half], stops[:half])
        slot = gram_store(d)[1].copy()
        known = slot >= 0
        assert known.any()
        second = omp_detect_many(ys[:, half:], d, max_iters[half:], stops[half:])
        assert (gram_store(d)[1][known] == slot[known]).all()
        matches_complex128_omp(first, ys[:, :half], a, max_iters[:half], stops[:half])
        matches_complex128_omp(second, ys[:, half:], a, max_iters[half:], stops[half:])

    def test_warm_dictionary_makes_one_pass(self, monkeypatch):
        """Every row a call fetches, ahead or not, stays in the store, filled
        from the front (rows scattered at their atom index would each commit
        a huge page of a large store), and the same call again makes only
        the beta0 pass, with the same bytes."""
        a, ys = wide_problem()
        d = Dictionary(columns=a)
        passes = []
        whole = detection._pass

        def counted(rows, a, out):
            passes.append(rows.shape[0])
            return whole(rows, a, out)

        monkeypatch.setattr(detection, "_pass", counted)
        cold = detect_bytes(ys, d, 12)
        assert len(passes) > 1
        slot = gram_store(d)[1]
        assert sorted(slot[slot >= 0]) == list(range(sum(passes[1:])))
        passes.clear()
        assert detect_bytes(ys, d, 12) == cold
        assert passes == [ys.shape[1]]

    def test_dictionary_over_the_limit_keeps_rows_per_call(self, monkeypatch):
        """A complex64 dictionary one column wider than the widest whose Gram
        fits in `GRAM_BYTES` builds no store, and gives the bytes it gives
        with one."""
        size = math.isqrt(GRAM_BYTES // 8) + 1
        rng = np.random.default_rng(14)
        a = gaussian_dict(48, size, rng).astype(np.complex64, order="F")
        ys = a[:, rng.choice(size, (5, 3))].astype(complex).sum(axis=2)
        ys += 0.05 * complex_noise(ys.shape, 1.0, rng)
        d = Dictionary(columns=a)
        per_call = detect_bytes(ys, d, 10)
        assert "gram" not in vars(d)
        monkeypatch.setattr(detection, "GRAM_BYTES", size * size * 8)
        assert detect_bytes(ys, d, 10) == per_call
        assert (gram_store(d)[1] >= 0).any()

    def test_store_is_kept_only_under_the_limit(self, monkeypatch):
        """A dictionary whose Gram matrix fits in `GRAM_BYTES` keeps one store
        for its lifetime, in the correlation dtype; above it each call gives
        a fresh store and leaves the dictionary as it was.  The store is
        `detection`'s: a `Dictionary` has no `gram` of its own."""
        a = gaussian_dict(20, 40, 0)
        assert not hasattr(Dictionary, "gram")
        assert not hasattr(Dictionary(columns=a), "gram")
        for dtype in (np.complex64, np.complex128):
            d = Dictionary(columns=a.astype(dtype, order="F"))
            assert gram_store(d) is gram_store(d)
            assert gram_store(d)[0].dtype == dtype
        d = Dictionary(columns=a.astype(np.complex64, order="F"))
        kept = set(vars(d))
        monkeypatch.setattr(detection, "GRAM_BYTES", 40 * 40 * 8 - 1)
        first, second = gram_store(d), gram_store(d)
        assert all(x is not y for x, y in zip(first, second))
        assert set(vars(d)) == kept

    def test_rayleigh_1024_probe_with_and_without_store(self, monkeypatch):
        """A 10-trial twostep_rayleigh_1024 probe gives the same counts and
        the same bytes of every OMP result with per-call rows, on a cold
        store and on the warm store the cold run left."""
        experiment = build_experiment(load_preset("twostep_rayleigh_1024"))
        pre, _ = protocols.build_dictionaries(experiment.config)
        assert pre.columns.shape[1] ** 2 * 8 <= GRAM_BYTES
        detect = protocols.omp_detect_many

        def probe():
            digest = hashlib.sha256()

            def recorded(*args, **kwargs):
                results = detect(*args, **kwargs)
                for r in results:
                    digest.update(np.asarray(r.indices, dtype=np.int64).tobytes())
                    digest.update(r.coefficients.tobytes())
                    digest.update(np.float64(r.residual_energy).tobytes())
                return results

            with monkeypatch.context() as m:
                m.setattr(protocols, "omp_detect_many", recorded)
                est = estimate_pupe(experiment, 30, 10.0, 10, 7)
            return [est.trials, est.total, est.failures, est.clashes], digest.hexdigest()

        with monkeypatch.context() as m:
            m.setattr(detection, "GRAM_BYTES", 0)
            per_call = probe()
        vars(pre).pop("gram", None)           # a cold store
        assert probe() == per_call
        assert (gram_store(pre)[1] >= 0).any()
        assert probe() == per_call
        assert per_call[0] == [10, 300, 36, 0]

    def test_concurrent_calls_on_one_store(self):
        """Two threads detecting on one fresh dictionary at once, switching
        threads every microsecond, each get what a serial call on a
        dictionary of its own gives: the calls take turns at the store."""
        rng = np.random.default_rng(15)
        a = gaussian_dict(64, 600, rng).astype(np.complex64, order="F")
        signals = [
            a[:, rng.choice(600, (8, 12))].astype(complex).sum(axis=2)
            + 0.05 * complex_noise((64, 8), 1.0, rng)
            for _ in range(2)
        ]
        serial = [detect_bytes(ys, Dictionary(columns=a), 20) for ys in signals]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                for _ in range(30):
                    d = Dictionary(columns=a)
                    start = threading.Barrier(2)

                    def detect(ys):
                        start.wait()
                        return detect_bytes(ys, d, 20)

                    assert list(pool.map(detect, signals, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)


@st.composite
def sic_problems(draw):
    """(complex64 dictionary, signals as columns, each signal's atoms with
    their (gain, amplitude), max_iters, thresholds, SIC rounds, a seed for
    what to cancel).

    Each signal is a sum of 3 to 8 atoms, each column times an amplitude
    times a gain in complex128, as a frame holds its users' preambles, plus
    noise.  Some columns have a near-duplicate (1e-7 to 1e-5 apart), so the
    band re-check decides some picks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(16, 64))
    base = gaussian_dict(rows, draw(st.integers(4 * FETCH_AHEAD, 20 * FETCH_AHEAD)), rng)
    paired = rng.choice(base.shape[1], draw(st.integers(1, rows)), replace=False)
    eps = 10.0 ** draw(st.floats(-7.0, -5.0))
    near = base[:, paired] + eps * gaussian_dict(rows, len(paired), rng)
    a = np.concatenate([base, near], axis=1).astype(np.complex64, order="F")
    count = draw(st.integers(1, 4))
    ys = np.empty((rows, count), dtype=complex)
    users = []
    for b in range(count):
        k = int(rng.integers(3, 9))
        support = rng.choice(base.shape[1], k, replace=False)
        support[: min(k, len(paired)) // 2] = paired[: min(k, len(paired)) // 2]
        gains = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
        amps = np.sqrt(rng.uniform(0.5, 20.0, k))
        noise_std = draw(st.floats(0.001, 0.1))
        ys[:, b] = noise_std * complex_noise(rows, 1.0, rng)
        for j, g, amp in zip(support, gains, amps):
            ys[:, b] += complex(g) * (a[:, j].astype(complex) * float(amp))
        users.append({int(j): (complex(g), float(amp)) for j, g, amp in zip(support, gains, amps)})
    max_iters = [draw(st.integers(1, rows - 2)) for _ in range(count)]
    stops = [draw(thresholds) for _ in range(count)]
    return a, ys, users, max_iters, stops, draw(st.integers(3, 5)), int(rng.integers(2**32))


class TestSicHistory:
    @omp_settings
    @given(sic_problems())
    def test_gram_beta0_matches_a_fresh_call(self, problem):
        """Over three to five SIC rounds on one store, each round cancelling
        known multiples of one or two selected atoms from the signals in
        complex128, as `_SicFrame.cancel` does (an atom may be cancelled
        twice, and the last pick of a signal that stopped lacks a row),
        each round's results, with beta0 taken from the first round's and
        the cancelled atoms' Gram rows, are those of a fresh call that
        makes its own beta0 pass, to the byte.  At `GRAM_BYTES` 0 the store
        is the receive's own."""
        a, ys, users, max_iters, stops, rounds, seed = problem
        rng = np.random.default_rng(seed)
        d = Dictionary(columns=a)
        ys = ys.copy()
        histories = [SicHistory() for _ in range(ys.shape[1])]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(detection, "GRAM_BYTES", 0)
            store = detection.gram_store(d)
            assert "gram" not in vars(d)
            for _ in range(rounds):
                derived = omp_detect_many(
                    ys, d, max_iters, stops, store=store, histories=histories
                )
                fresh = omp_detect_many(ys, d, max_iters, stops)
                assert [
                    (r.indices, r.coefficients.tobytes(), r.residual_energy) for r in derived
                ] == [(r.indices, r.coefficients.tobytes(), r.residual_energy) for r in fresh]
                for b, (res, history) in enumerate(zip(derived, histories)):
                    if not res.indices:
                        continue
                    for j in rng.choice(res.indices, min(len(res.indices), 2), replace=False):
                        stray = (complex(*rng.standard_normal(2)), 2.0)   # not in the signal
                        gain, amp = users[b].get(int(j), stray)
                        ys[:, b] += -gain * (a[:, j].astype(complex) * amp)
                        history.cancel(int(j), gain * amp)
        assert any(h.atoms for h in histories)

    def test_default_histories_are_fresh(self):
        """A call without `histories` gives each signal a fresh `SicHistory`:
        the indices, coefficient bytes and residual-energy bytes of a call
        with a list of new ones."""
        a, ys = wide_problem()

        def results(**kwargs):
            return [
                (r.indices, r.coefficients.tobytes(), np.float64(r.residual_energy).tobytes())
                for r in omp_detect_many(ys, Dictionary(columns=a), 12, **kwargs)
            ]

        histories = [SicHistory() for _ in range(ys.shape[1])]
        assert results() == results(histories=histories)
        assert all(h.beta0 is not None and not h.atoms for h in histories)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, rejected", [(4.2e37, False), (4.3e37, True)])
    def test_cancellation_sum_reaches_the_ceiling(self, scale, rejected):
        """`_rounding_bound`'s ceiling is a quarter of complex64's largest
        value, 8.5e37, for unit columns.  A first frame of norm `scale`
        passes it, and so does the frame left after `scale` times its atom
        is cancelled, of norm 1e30.  A round that takes beta0 from the
        first frame's and the cancelled row must bound |y_1| + |c|:
        8.4e37 passes, with a fresh call's bytes; 8.6e37 is rejected
        before numpy meets an overflow."""
        a = gaussian_dict(40, 100, 0).astype(np.complex64, order="F")
        d = Dictionary(columns=a)
        first = a[:, 3].astype(complex) * scale
        y = first + a[:, 7].astype(complex) * 1e30
        history = SicHistory()
        assert omp_detect_many(y[:, None], d, 1, histories=[history])[0].indices == [3]
        y -= first
        history.cancel(3, scale)
        fresh = detect_bytes(y[:, None], d, 5)
        assert fresh[0][0][0] == 7
        if rejected:
            with pytest.raises(DetectionError, match="correlations overflow"):
                omp_detect_many(y[:, None], d, 5, histories=[history])
        else:
            derived = omp_detect_many(y[:, None], d, 5, histories=[history])
            assert [(r.indices, r.coefficients.tobytes(), r.residual_energy)
                    for r in derived] == fresh


def split_problem():
    """A complex64 Gaussian dictionary of exactly `SPLIT_BYTES`, the smallest
    whose passes are split, and four signals of 6 atoms each plus noise."""
    rows = 128
    rng = np.random.default_rng(12)
    a = gaussian_dict(rows, SPLIT_BYTES // (8 * rows), rng).astype(np.complex64, order="F")
    ys = np.empty((rows, 4), dtype=complex)
    for b in range(ys.shape[1]):
        support = rng.choice(a.shape[1], 6, replace=False)
        coefs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ys[:, b] = a[:, support].astype(complex) @ coefs + 0.05 * complex_noise(rows, 1.0, rng)
    return a, ys


def detect_bytes(ys, a, max_iters):
    """omp_detect_many's results as comparable values: the indices, the
    coefficient bytes and the residual energy of each signal."""
    return [
        (r.indices, r.coefficients.tobytes(), r.residual_energy)
        for r in omp_detect_many(ys, a, max_iters)
    ]


class TestSplitPasses:
    def test_split_matches_whole(self, monkeypatch):
        """Splitting the passes changes no selection and no coefficient bit."""
        a, ys = split_problem()
        pools = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(detection, "ThreadPoolExecutor", CountedPool)
        split = detect_bytes(ys, a, 10)
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            assert pools
        monkeypatch.setattr(detection, "SPLIT_BYTES", a.nbytes + 1)
        calls = len(pools)
        assert detect_bytes(ys, a, 10) == split
        assert len(pools) == calls
        wide = a.astype(complex)
        for b, (indices, _, _) in enumerate(split):
            assert indices == omp_detect(ys[:, b], wide, 10).indices

    def test_more_blocks_than_cores(self, monkeypatch):
        """Seven uneven blocks in seven threads on fewer cores, switching
        threads every microsecond, give the whole pass's results."""
        a, ys = split_problem()
        with monkeypatch.context() as whole:
            whole.setattr(detection, "SPLIT_BYTES", a.nbytes + 1)
            expected = detect_bytes(ys, a, 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert detect_bytes(ys, a, 10) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_worker_after_split_pass(self):
        """A worker forked after the parent made split passes (the way
        UMAC_BENCH_THREADS runs its pool) makes them too, and gets the
        parent's results."""
        a, ys = split_problem()
        parent = detect_bytes(ys, a, 10)
        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
            future = pool.submit(detect_bytes, ys, a, 10)
            try:
                child = future.result(timeout=60)
            except concurrent.futures.TimeoutError:
                for process in multiprocessing.active_children():
                    process.kill()
                raise
        assert child == parent


class TestEnergyDetect:
    def test_pure_noise_rarely_triggers_at_factor_3(self):
        rng = np.random.default_rng(0)
        hits = sum(
            energy_detect(complex_noise(250, 1.0, rng), 3.0) for _ in range(2000)
        )
        assert hits / 2000 <= 0.01

    def test_strong_signal_triggers(self):
        rng = np.random.default_rng(1)
        snr = 10.0
        hits = 0
        for _ in range(2000):
            y = math.sqrt(snr) * np.ones(250) + complex_noise(250, 1.0, rng)
            hits += energy_detect(y, 3.0)
        assert hits / 2000 >= 0.999

    def test_zero_length_guard(self):
        with pytest.raises(DetectionError):
            energy_detect(np.zeros(0, complex), 1.0)


class TestLsEstimate:
    def test_exact_on_noiseless(self):
        rng = np.random.default_rng(2)
        p = complex_noise(50, 1.0, rng)
        h = 0.3 - 1.2j
        assert ls_channel_estimate(h * p, p) == pytest.approx(h, abs=1e-12)

    def test_noise_only_variance(self):
        rng = np.random.default_rng(3)
        p = complex_noise(50, 1.0, rng)
        ep = float(np.sum(np.abs(p) ** 2))
        ests = np.array(
            [ls_channel_estimate(complex_noise(50, 1.0, rng), p) for _ in range(10_000)]
        )
        var = np.mean(np.abs(ests) ** 2)
        expected = 1.0 / ep
        se = expected / math.sqrt(len(ests))
        assert abs(var - expected) < 3 * se

    def test_orthogonal_interferer_ignored(self):
        p = np.zeros(10, dtype=complex)
        p[:5] = 1.0
        q = np.zeros(10, dtype=complex)
        q[5:] = 1.0
        h = 1.7 + 0.4j
        est = ls_channel_estimate(h * p + 3.3 * q, p)
        assert est == pytest.approx(h, abs=1e-9)

    def test_zero_pilot_rejected(self):
        with pytest.raises(DetectionError):
            ls_channel_estimate(np.ones(5, complex), np.zeros(5, complex))

    def test_length_mismatch(self):
        with pytest.raises(DetectionError):
            ls_channel_estimate(np.ones(5, complex), np.ones(4, complex))


class TestSubtract:
    def test_self_subtraction(self):
        y = complex_noise(20, 1.0, np.random.default_rng(4))
        assert np.all(subtract(y, y) == 0)

    def test_round_trip(self):
        y = complex_noise(20, 1.0, np.random.default_rng(5))
        c = complex_noise(7, 1.0, np.random.default_rng(6))
        back = subtract(subtract(y, c, 3), -c, 3)
        assert np.allclose(back, y, rtol=0, atol=1e-15)

    def test_out_of_window_untouched(self):
        y = complex_noise(20, 1.0, np.random.default_rng(7))
        c = np.ones(5, dtype=complex)
        out = subtract(y, c, 8)
        assert np.array_equal(out[:8], y[:8])
        assert np.array_equal(out[13:], y[13:])
        assert np.array_equal(out[8:13], y[8:13] - 1.0)

    def test_oversized_contribution(self):
        with pytest.raises(DetectionError):
            subtract(np.zeros(5, complex), np.ones(6, complex))
        with pytest.raises(DetectionError):
            subtract(np.zeros(5, complex), np.ones(3, complex), offset=4)
