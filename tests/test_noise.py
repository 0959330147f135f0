"""Tests for disturbance process construction, sampling, and checks."""

import math

import numpy as np
import pytest

import settlekit as sk
from settlekit.defaults import CONFIDENCE_Z
from settlekit.noise import (ar1_step_coefficients, check_noise, l1_ratios,
                             path_to_csv)


class TestCosineProcess:
    def test_declared_mean_square(self):
        p = sk.make_random_phase_cosine([2.0], [1.0])
        assert p.declared_mean_square == pytest.approx(2.0)
        p2 = sk.make_random_phase_cosine([1.0, 1.0], [1.0, 2.0])
        assert p2.declared_mean_square == pytest.approx(1.0)

    @pytest.mark.parametrize("amps,oms", [
        ([], []),
        ([0.0], [1.0]),
        ([-1.0], [1.0]),
        ([1.0], [0.0]),
        ([1.0, 1.0], [1.0]),
    ])
    def test_invalid_parameters(self, amps, oms):
        with pytest.raises(ValueError):
            sk.make_random_phase_cosine(amps, oms)

    def test_whole_period_average_is_exact(self):
        # left-rectangle average of 4 cos^2 over whole periods is exactly 2
        p = sk.make_random_phase_cosine([2.0], [1.0])
        horizon = 20.0 * math.pi
        rep = sk.estimate_mean_square(p, 4, horizon, horizon / 4000, seed=5)
        assert abs(rep.estimate - 2.0) <= 1e-12
        assert rep.passed

    def test_value_at_start_matches_redrawn_phase(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        seed = 99
        path = sk.sample_path(p, 0.0, 5.0, 0.01, seed)
        phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=1)
        assert path.values[0, 0] == -(1.0 * np.cos(phase[0]))

    def test_same_seed_bit_identical(self):
        p = sk.make_random_phase_cosine([1.0, 0.5], [1.0, 3.0])
        a = sk.sample_path(p, 0.0, 2.0, 0.01, 7)
        b = sk.sample_path(p, 0.0, 2.0, 0.01, 7)
        assert np.array_equal(a.values, b.values)
        c = sk.sample_path(p, 0.0, 2.0, 0.01, 8)
        assert not np.array_equal(a.values, c.values)


class TestFilteredProcess:
    def test_declared_mean_square(self):
        assert sk.make_filtered_white_noise(1.0, 1.0, 1).declared_mean_square \
            == pytest.approx(0.5)
        assert sk.make_filtered_white_noise(0.5, 1.0, 1).declared_mean_square \
            == pytest.approx(0.25)
        assert sk.make_filtered_white_noise(1.0, 0.5, 3).declared_mean_square \
            == pytest.approx(3.0)

    @pytest.mark.parametrize("a,tau", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_parameters(self, a, tau):
        with pytest.raises(ValueError):
            sk.make_filtered_white_noise(a, tau, 1)

    def test_degenerate_step_variance_vanishes(self):
        # one-step update from xi_0 = 0 collapses to 0 as h -> 0
        phi, eta_std = ar1_step_coefficients(1.0, 1.0, 1e-15)
        assert phi == pytest.approx(1.0, abs=1e-12)
        assert eta_std <= 1e-7
        xi1 = phi * 0.0 + eta_std * np.random.default_rng(0).standard_normal()
        assert abs(xi1) < 1e-6

    def test_stationary_mean_square(self):
        p = sk.make_filtered_white_noise(0.5, 1.0, 1)
        rep = sk.estimate_mean_square(p, 200, 50.0, 0.01, seed=77)
        se = rep.half_width / 1.959963984540054
        assert abs(rep.estimate - 0.25) <= 3.0 * se
        assert rep.passed

    def test_lag1_autocorrelation(self):
        tau = 2.0
        h = 0.01
        p = sk.make_filtered_white_noise(1.0, tau, 1)
        path = sk.sample_path(p, 0.0, 1000.0, h, seed=13)
        v = path.values[:, 0]
        rho = np.mean(v[:-1] * v[1:]) / np.mean(v * v)
        n = len(v)
        se = math.sqrt((1.0 - rho ** 2) / n)
        assert abs(rho - math.exp(-h / tau)) <= 3.0 * se


class TestZeroProcess:
    def test_values_exactly_zero(self):
        p = sk.zero_process(2)
        path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=123)
        assert np.all(path.values == 0.0)

    def test_moment_report(self):
        rep = sk.estimate_mean_square(sk.zero_process(1), 5, 1.0, 0.1, seed=1)
        assert rep.estimate == 0.0
        assert rep.passed

    def test_wlln_all_zero(self):
        rep = sk.check_wlln(sk.zero_process(1), [1.0, 2.0], 0.5, 10, 0.1, seed=1)
        assert np.all(rep.fractions == 0.0)


class TestSamplePath:
    def test_zero_order_hold_between_grid_points(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=3)
        for k in (0, 3, 7):
            mid = 0.1 * k + 0.04
            assert np.array_equal(path.value_at(mid), path.values[k])
        assert np.array_equal(path.value_at(0.1 * 4), path.values[4])

    def test_grid_covers_horizon(self):
        p = sk.zero_process(1)
        path = sk.sample_path(p, 0.0, 1.0, 0.3, seed=0)
        assert path.t_end >= 1.0

    def test_preconditions(self):
        p = sk.zero_process(1)
        with pytest.raises(ValueError):
            sk.sample_path(p, 1.0, 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            sk.sample_path(p, 0.0, 1.0, 0.0, 0)

    def test_values_read_only(self):
        p = sk.zero_process(1)
        path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            path.values[0, 0] = 1.0

    @pytest.mark.parametrize("process", [
        sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]),
        sk.make_filtered_white_noise(0.5, 1.0, 2),
        sk.zero_process(2),
    ], ids=["cosine", "filtered", "zero"])
    def test_longer_horizon_extends_path_exactly(self, process):
        for seed in range(5):
            short = sk.sample_path(process, 0.3, 50.0, 0.01, seed)
            long = sk.sample_path(process, 0.3, 80.0, 0.01, seed)
            n = short.values.shape[0]
            assert long.values.shape[0] > n
            assert np.array_equal(long.values[:n], short.values)
            assert np.array_equal(long.times()[:n], short.times())


class TestMeanSquareEstimate:
    def test_requires_two_paths(self):
        with pytest.raises(ValueError):
            sk.estimate_mean_square(sk.zero_process(1), 1, 1.0, 0.1, seed=0)

    @pytest.mark.parametrize("process", [
        sk.zero_process(2),
        sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]),
        sk.make_filtered_white_noise(1.0, 1.0, 2),
    ], ids=["zero", "cosine", "filtered"])
    def test_declared_bound_consistency(self, process):
        rep = sk.estimate_mean_square(process, 500, 20.0, 0.01, seed=11)
        assert rep.passed

    def test_k_bound_override_fails_low(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        rep = sk.estimate_mean_square(p, 20, 20.0, 0.01, seed=2, k_bound=0.05)
        assert not rep.passed


class TestWlln:
    def test_cosine_whole_periods_concentrate_exactly(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        times = [2.0 * math.pi * k for k in (1, 2, 4, 8)]
        rep = sk.check_wlln(p, times, 0.01, 50, 2.0 * math.pi / 200, seed=9)
        assert np.all(rep.fractions == 0.0)

    def test_filtered_unit_intensity_fraction(self):
        # analytic variance of the time average is 2K^2/T = 0.005 here, so
        # the delta = 0.1 band is ~1.4 sigma: the violation fraction sits
        # near 0.15 (it cannot be pushed below 0.05 at this horizon)
        p = sk.make_filtered_white_noise(1.0, 1.0, 1)
        rep = sk.check_wlln(p, [100.0], 0.1, 500, 0.05, seed=123)
        assert 0.05 <= rep.fractions[0] <= 0.3

    def test_fractions_nonincreasing_in_time(self):
        p = sk.make_filtered_white_noise(1.0, 1.0, 1)
        rep = sk.check_wlln(p, [25.0, 50.0, 100.0], 0.1, 300, 0.05, seed=17)
        f = rep.fractions
        assert f[1] <= f[0] + 0.05 and f[2] <= f[1] + 0.05

    def test_preconditions(self):
        p = sk.zero_process(1)
        with pytest.raises(ValueError):
            sk.check_wlln(p, [1.0], 0.0, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            sk.check_wlln(p, [0.0], 0.1, 10, 0.1, seed=0)


class TestL1Bound:
    def test_zero_path(self):
        path = sk.sample_path(sk.zero_process(1), 0.0, 5.0, 0.1, seed=0)
        assert sk.check_l1_bound(path, 1.0, 1.0) == 0.0

    def test_constant_path_hits_one_exactly(self):
        # dyadic grid and amplitude keep the rectangle sums exact
        k_bound = 1.0
        h = 0.015625
        values = np.full((129, 1), 2.0 * math.sqrt(k_bound))
        path = sk.NoisePath(t0=0.0, h=h, values=values, seed=0)
        assert sk.check_l1_bound(path, k_bound, 0.5) == 1.0

    def test_cosine_ratio_approaches_limit(self):
        # mean of |cos| is 2/pi, so the ratio tends to sqrt(2)/pi
        p = sk.make_random_phase_cosine([1.0], [1.0])
        path = sk.sample_path(p, 0.0, 500.0, 0.01, seed=11)
        max_ratio = sk.check_l1_bound(path, 0.5, 1.0)
        assert max_ratio <= 1.0
        mags = np.abs(path.values[:, 0])
        final = np.sum(mags[:-1]) * path.h / (2.0 * math.sqrt(0.5) * 500.0)
        assert final == pytest.approx(math.sqrt(2.0) / math.pi, abs=5e-3)

    def test_preconditions(self):
        path = sk.sample_path(sk.zero_process(1), 0.0, 5.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            sk.check_l1_bound(path, 0.0, 1.0)
        with pytest.raises(ValueError):
            sk.check_l1_bound(path, 1.0, 0.0)

    def test_batch_ratios_match_per_path_loop(self):
        p = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        paths = [sk.sample_path(p, 0.5, 10.0, 0.01, seed) for seed in range(4)]
        batch = l1_ratios(np.stack([q.values for q in paths]), 0.01, 0.5, 0.09)
        for row, q in zip(batch, paths):
            mags = np.sqrt(np.sum(q.values ** 2, axis=1))
            cum = np.concatenate([[0.0], np.cumsum(mags[:-1]) * q.h])
            ref = cum[1:] / (2.0 * math.sqrt(0.09) * (q.times()[1:] - q.t0))
            assert np.isnan(row[0]) and np.array_equal(row[1:], ref)


class TestOnePass:
    @pytest.mark.parametrize("times", [[5.0, 12.5], [8.0, 30.0]])
    def test_matches_per_statistic_loops(self, times):
        """check_noise against one freshly sampled path per statistic."""
        p = sk.make_filtered_white_noise(0.5, 1.0, 2)
        n, horizon, h, seed, k = 12, 20.0, 0.01, 3, 0.3
        moment, wlln, max_ratio = check_noise(p, n, horizon, h, seed, times,
                                              0.1, k, t_min=1.5)
        per_path, ratios = [], []
        viol = np.zeros((len(times), n), dtype=bool)
        for i in range(n):
            q = sk.sample_path(p, 0.0, horizon, h, sk.path_seed(seed, i))
            per_path.append(np.mean(np.sum(q.values[:-1] ** 2, axis=1)))
            ratios.append(sk.check_l1_bound(q, k, 1.5))
            q = sk.sample_path(p, 0.0, times[-1], h, sk.path_seed(seed, i))
            sq = np.sum(q.values ** 2, axis=1)
            cum = np.concatenate([[0.0], np.cumsum(sq[:-1]) * h])
            for j, t in enumerate(times):
                c = q.cell_index(t)
                avg = (cum[c] + (t - c * h) * sq[c]) / t
                viol[j, i] = abs(avg - p.exact_mean_square) >= 0.1
        assert moment.estimate == np.mean(per_path)
        assert moment.half_width == (CONFIDENCE_Z * np.std(per_path, ddof=1)
                                     / math.sqrt(n))
        assert np.array_equal(wlln.fractions, viol.mean(axis=1))
        assert max_ratio == max(ratios)

    def test_zero_bound_skips_l1(self):
        _, _, max_ratio = check_noise(sk.zero_process(1), 3, 2.0, 0.1, 0,
                                      [2.0], 0.1, 0.0)
        assert max_ratio == 0.0


def test_csv_round_trip(tmp_path):
    p = sk.make_filtered_white_noise(1.0, 1.0, 2)
    path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=4)
    out = tmp_path / "path.csv"
    path_to_csv(path, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,xi_1,xi_2"
    parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 1:], path.values)
    assert np.array_equal(parsed[:, 0], path.times())
