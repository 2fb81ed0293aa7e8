import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import umacsim
from umacsim.bounds import (
    CurveError,
    aloha_collision_probability,
    awgn_capacity,
    awgn_dispersion,
    load_reference_curve,
    min_snr_single_user,
    normal_approx_log_m,
    q_inv,
)

LOG2E = math.log2(math.e)


class TestAlohaCollision:
    def test_single_user(self):
        assert aloha_collision_probability(1, 64) == 0.0

    def test_two_users(self):
        assert aloha_collision_probability(2, 64) == pytest.approx(1 / 64, abs=1e-15)

    def test_fifty_users(self):
        assert aloha_collision_probability(50, 64) == pytest.approx(
            1 - (63 / 64) ** 49, rel=1e-12
        )
        assert aloha_collision_probability(50, 64) == pytest.approx(0.5378, abs=5e-4)


class TestCapacityDispersion:
    def test_capacity_values(self):
        assert awgn_capacity(1.0) == 1.0
        assert awgn_capacity(3.0) == 2.0
        assert awgn_capacity(10.0) == pytest.approx(math.log2(11), rel=1e-12)
        assert awgn_capacity(10.0) == pytest.approx(3.4594, abs=1e-4)

    def test_dispersion_limits(self):
        assert awgn_dispersion(1e-12) == pytest.approx(0.0, abs=1e-10)
        assert awgn_dispersion(1e12) == pytest.approx(LOG2E**2, rel=1e-9)
        assert LOG2E**2 == pytest.approx(2.0814, abs=1e-4)

    def test_dispersion_snr_one(self):
        assert awgn_dispersion(1.0) == pytest.approx(0.75 * LOG2E**2, rel=1e-12)
        assert awgn_dispersion(1.0) == pytest.approx(1.5611, abs=1e-4)

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            awgn_capacity(0.0)
        with pytest.raises(ValueError):
            awgn_dispersion(-1.0)


class TestQInv:
    def test_half(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_against_scipy(self):
        tails = (1e-12, 1 - 1e-12)
        for eps in (1e-6, 1e-3, 0.0228, 0.158655, 0.4, 0.5, 0.6, 0.9, 0.999, *tails):
            assert q_inv(eps) == pytest.approx(norm.isf(eps), abs=1e-10)

    def test_known_point(self):
        assert q_inv(0.15865525393145707) == pytest.approx(1.0, abs=1e-10)

    def test_symmetry(self):
        for eps in (0.01, 0.2, 0.37):
            assert q_inv(eps) == pytest.approx(-q_inv(1 - eps), abs=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                q_inv(bad)


class TestNormalApprox:
    def test_eps_half_is_capacity(self):
        assert normal_approx_log_m(500, 0.5, 2.0) == pytest.approx(500 * math.log2(3), rel=1e-12)

    def test_asymptotic_rate(self):
        snr = 1.5
        # The per-use penalty is sqrt(V/n) Q^-1(eps): ~3e-4 at n=1e8.
        assert normal_approx_log_m(10**8, 0.01, snr) / 10**8 == pytest.approx(
            math.log2(1 + snr), abs=1e-3
        )

    def test_monotone_in_snr_and_n(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(50, 5000))
            eps = float(rng.uniform(0.001, 0.5))
            snr = float(rng.uniform(0.05, 20))
            base = normal_approx_log_m(n, eps, snr)
            up_snr = normal_approx_log_m(n, eps, snr * 1.1)
            up_n = normal_approx_log_m(2 * n, eps, snr)
            assert up_snr > base
            assert up_n > base

    def test_query_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            normal_approx_log_m(0, 0.1, 1.0)
        with pytest.raises(ValueError, match="epsilon must be in"):
            normal_approx_log_m(10, 1.5, 1.0)
        with pytest.raises(ValueError, match="snr must be > 0"):
            normal_approx_log_m(10, 0.1, 0.0)
        for n, k, eps in ((0, 1, 0.1), (10, 1, 1.5), (10, 0.5, 0.1)):
            with pytest.raises(ValueError):
                min_snr_single_user(n, k, eps)


class TestMinSnr:
    def test_eps_half_closed_form(self):
        # k = n log2(1 + s*) at eps=0.5 inverts to exactly s*.
        s_star = 0.8
        n = 400
        k = n * math.log2(1 + s_star)
        assert min_snr_single_user(n, k, 0.5) == pytest.approx(s_star, rel=1e-6)

    def test_monotone_in_epsilon(self):
        assert min_snr_single_user(500, 100, 1e-2) > min_snr_single_user(500, 100, 1e-1)

    def test_grid_scan_oracle(self):
        # Independent fine-grid scan in dB for n=500, k=100, eps=1e-2.
        n, k, eps = 500, 100.0, 1e-2
        snr = min_snr_single_user(n, k, eps)
        grid_db = np.arange(-10.0, 10.0, 0.001)
        vals = [normal_approx_log_m(n, eps, 10 ** (g / 10)) for g in grid_db]
        crossing = grid_db[int(np.searchsorted(vals, k))]
        assert 10 * math.log10(snr) == pytest.approx(crossing, abs=0.01)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(50, 4000))
            eps = float(rng.uniform(0.001, 0.4))
            k = float(rng.uniform(1.0, n / 2))
            snr = min_snr_single_user(n, k, eps)
            back = normal_approx_log_m(n, eps, snr)
            assert back == pytest.approx(k, rel=1e-6)

    def test_cli_import_leaves_out_scipy(self):
        """The simulator runs on numpy alone: importing scipy would add to
        every run's start-up and load a second BLAS."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(umacsim.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, umacsim.cli; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestReferenceCurve:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CurveError):
            load_reference_curve(path)

    def test_round_trip_two_rows(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("ka,snr_db\n10,1.5\n20,3.25\n")
        curve = load_reference_curve(path)
        assert curve.points == ((10.0, 1.5), (20.0, 3.25))
        assert curve.snr_db_at(10) == 1.5
        assert curve.snr_db_at(15) == pytest.approx(2.375)
        assert curve.snr_db_at(25) is None

    def test_duplicate_ka(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("ka,snr_db\n10,1.0\n10,2.0\n")
        with pytest.raises(CurveError, match="strictly increasing"):
            load_reference_curve(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("k,snr\n1,2\n")
        with pytest.raises(CurveError, match="header"):
            load_reference_curve(path)

    def test_non_numeric_row_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ka,snr_db\n10,1.0\nten,2.0\n")
        with pytest.raises(CurveError, match=":3"):
            load_reference_curve(path)

    @pytest.mark.parametrize(
        "rows, line", [("nan,1\n0,2\n", 2), ("0,1\n1,nan\n", 3), ("5,inf\n", 2)],
        ids=["nan_ka", "nan_snr", "inf_snr"],
    )
    def test_non_finite_row_has_line_number(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("ka,snr_db\n" + rows)
        with pytest.raises(CurveError, match=f":{line}: non-finite"):
            load_reference_curve(path)
