"""Tests for disturbance process construction, sampling, and checks."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import settlekit as sk
from settlekit import noise
from settlekit.cli import main
from settlekit.defaults import CONFIDENCE_Z
from settlekit.noise import (_cell, _n_cells, _path_statistics,
                             ar1_step_coefficients, check_noise, l1_ratios)
from test_imports import example2_filtered_config, small_config


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
        ([1e308, 1e308], [1.0, 2.0]),
        ([2e154], [1.0]),
    ])
    def test_invalid_parameters(self, amps, oms):
        with pytest.raises(ValueError):
            sk.make_random_phase_cosine(amps, oms)

    def test_whole_period_average_is_exact(self):
        # left-rectangle average of 4 cos^2 over whole periods is exactly 2
        p = sk.make_random_phase_cosine([2.0], [1.0])
        horizon = 20.0 * math.pi
        est, hw = sk.estimate_mean_square(p, 4, horizon, horizon / 4000, seed=5)
        assert abs(est - 2.0) <= 1e-12
        assert est - hw <= p.declared_mean_square

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

    @pytest.mark.parametrize("a,tau,dimension", [
        (1e308, 1e-10, 1), (1e308, 0.5, 2), (math.inf, 1.0, 1)])
    def test_mean_square_that_is_not_finite_is_rejected(self, a, tau, dimension):
        with pytest.raises(ValueError, match="is not finite"):
            sk.make_filtered_white_noise(a, tau, dimension)

    def test_degenerate_step_variance_vanishes(self):
        # one-step update from xi_0 = 0 collapses to 0 as h -> 0
        phi, eta_std = ar1_step_coefficients(1.0, 1.0, 1e-15)
        assert phi == pytest.approx(1.0, abs=1e-12)
        assert eta_std <= 1e-7
        xi1 = phi * 0.0 + eta_std * np.random.default_rng(0).standard_normal()
        assert abs(xi1) < 1e-6

    def test_stationary_mean_square(self):
        p = sk.make_filtered_white_noise(0.5, 1.0, 1)
        est, hw = sk.estimate_mean_square(p, 200, 50.0, 0.01, seed=77)
        se = hw / 1.959963984540054
        assert abs(est - 0.25) <= 3.0 * se
        assert est - hw <= p.declared_mean_square

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

    @pytest.mark.parametrize("dimension", [1, 3])
    @pytest.mark.parametrize("tau_f,h_noise", [(1.0, 0.01), (0.05, 0.02),
                                               (20.0, 0.1), (1e-3, 0.5)])
    def test_recursion_matches_lfilter_bit_for_bit(self, tau_f, h_noise, dimension):
        # the sampler's draws, run through scipy's direct-form filter
        from scipy.signal import lfilter
        p = sk.make_filtered_white_noise(0.7, tau_f, dimension)
        phi, eta_std = ar1_step_coefficients(0.7, tau_f, h_noise)
        for seed in (0, 1, 17, 2024, 2 ** 40 + 3):
            path = sk.sample_path(p, 0.0, 12.3, h_noise, seed)
            n = path.values.shape[0] - 1
            rng = np.random.default_rng(seed)
            xi0 = math.sqrt(0.7 / (2.0 * tau_f)) * rng.standard_normal(dimension)
            eta = eta_std * rng.standard_normal((n, dimension))
            expected = np.empty((n + 1, dimension))
            expected[0] = xi0
            for j in range(dimension):
                expected[1:, j] = lfilter([1.0], [1.0, -phi], eta[:, j],
                                          zi=[phi * xi0[j]])[0]
            assert np.array_equal(path.values.view(np.uint64),
                                  expected.view(np.uint64))


class TestZeroProcess:
    def test_values_exactly_zero(self):
        p = sk.zero_process(2)
        path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=123)
        assert np.all(path.values == 0.0)

    def test_moment_report(self):
        est, hw = sk.estimate_mean_square(sk.zero_process(1), 5, 1.0, 0.1, seed=1)
        assert est == 0.0
        assert est - hw <= 0.0

    def test_wlln_all_zero(self):
        fractions = sk.check_wlln(sk.zero_process(1), [1.0, 2.0], 0.5, 10, 0.1,
                                  seed=1)
        assert np.all(fractions == 0.0)


class TestSamplePath:
    def test_zero_order_hold_between_grid_points(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        path = sk.sample_path(p, 0.0, 1.0, 0.1, seed=3)
        n = path.values.shape[0]
        for k in (0, 3, 7):
            mid = 0.1 * k + 0.04
            assert np.array_equal(path.values[_cell(mid, path.h, n)], path.values[k])
        assert np.array_equal(path.values[_cell(0.1 * 4, path.h, n)], path.values[4])

    def test_grid_covers_horizon(self):
        p = sk.zero_process(1)
        path = sk.sample_path(p, 0.0, 1.0, 0.3, seed=0)
        assert (path.h * np.arange(path.values.shape[0]))[-1] >= 1.0

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
            short = sk.sample_path(process, 0.0, 50.0, 0.01, seed)
            long = sk.sample_path(process, 0.0, 80.0, 0.01, seed)
            n = short.values.shape[0]
            assert long.values.shape[0] > n
            assert np.array_equal(long.values[:n], short.values)
            assert np.array_equal((long.h * np.arange(long.values.shape[0]))[:n],
                                  short.h * np.arange(short.values.shape[0]))


class TestGridPoints:
    """``grid_points`` is the one rule for a sampled grid's size."""

    # each grid starts at 0 and spans end - start: 0..7.05 for 0.25..7.3,
    # and one cell of about 1e-13 for 0.3..0.3 + 1e-13
    @pytest.mark.parametrize("start,end,h_noise", [
        (0.0, 1.0, 0.1), (0.0, 1.0, 0.3), (0.25, 7.3, 0.01), (0.0, 5.0, 1e20),
        (0.0, 5.0, 1e300), (0.3, 0.3 + 1e-13, 0.01), (0.0, 20.0, 2e-3)])
    @pytest.mark.parametrize("process", [
        sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]),
        sk.zero_process(1)], ids=["cosine", "zero"])
    def test_counts_the_cells_and_one(self, process, start, end, h_noise):
        # an h_noise of 1e20 or 1e300 past a horizon of 5 is one cell
        horizon = end - start
        n = noise.grid_points(process, horizon, h_noise)
        assert n == _n_cells(horizon, h_noise) + 1
        assert sk.sample_path(process, 0.0, horizon, h_noise, 3).values.shape[0] == n

    @pytest.mark.parametrize("horizon,h_noise,process,message", [
        (0.0, 0.1, sk.zero_process(1), "horizon must be positive"),
        (-1.0, 0.1, sk.zero_process(1), "horizon must be positive"),
        (1.0, 0.0, sk.zero_process(1), "h_noise must be positive"),
        (1.0, -0.1, sk.zero_process(1), "h_noise must be positive"),
        (1e300, 0.01, sk.zero_process(1), "more cells than an array can index"),
        (1e300, 1e-300, sk.zero_process(1), "more cells than an array can index"),
        (1e5, 1e-14, sk.zero_process(1), "more cells than an array can index"),
        (5.0, 0.01, sk.make_random_phase_cosine([0.3, 0.3], [1.0, 4e307]),
         "noise omega 4e\\+307 times the noise grid's last time 5 overflows"),
        (math.nan, 0.01, sk.zero_process(1), "horizon must be positive"),
        (1.0, math.nan, sk.zero_process(1), "h_noise must be positive"),
    ], ids=["empty", "backwards", "h-0", "h-negative", "unindexable",
            "unindexable-inf", "unindexable-finite", "phase-overflow",
            "horizon-nan", "h-nan"])
    def test_unsampleable_grid_raises(self, horizon, h_noise, process, message):
        with pytest.raises(ValueError, match=message):
            noise.grid_points(process, horizon, h_noise)
        with pytest.raises(ValueError, match=message):
            sk.sample_path(process, 0.0, horizon, h_noise, 0)

    def test_noise_checks_reach_the_rule(self):
        overflows = sk.make_random_phase_cosine([0.3], [1e307])
        with pytest.raises(ValueError, match="overflows"):
            sk.estimate_mean_square(overflows, 2, 50.0, 0.01, seed=0)
        with pytest.raises(ValueError, match="array can index"):
            check_noise(sk.zero_process(1), 2, 1.0, 0.01, 0, [1e300], 0.1, 1.0)


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
        est, hw = sk.estimate_mean_square(process, 500, 20.0, 0.01, seed=11)
        assert math.isfinite(est) and math.isfinite(hw)
        assert est - hw <= process.declared_mean_square

    def test_k_bound_override_fails_low(self):
        # mean square 0.5: the lower limit lies above a bound K = 0.05
        p = sk.make_random_phase_cosine([1.0], [1.0])
        est, hw = sk.estimate_mean_square(p, 20, 20.0, 0.01, seed=2)
        assert math.isfinite(hw) and est - hw > 0.05

    def test_overflowing_half_width_fails(self):
        # K = 5e159: the per-path means are finite, but np.std squares
        # deviations of about 1e157, so the half-width is inf and
        # estimate - inf <= K would pass; noise-check fails a half-width
        # that is not finite (TestNoiseCheck::test_overflowing_half_width_fails)
        p = sk.make_random_phase_cosine([1e80], [1.3])
        est, hw = sk.estimate_mean_square(p, 20, 50.0, 0.01, seed=0)
        assert math.isfinite(est) and hw == math.inf
        assert est - hw <= p.declared_mean_square


class TestWlln:
    def test_cosine_whole_periods_concentrate_exactly(self):
        p = sk.make_random_phase_cosine([1.0], [1.0])
        times = [2.0 * math.pi * k for k in (1, 2, 4, 8)]
        fractions = sk.check_wlln(p, times, 0.01, 50, 2.0 * math.pi / 200, seed=9)
        assert np.all(fractions == 0.0)

    def test_filtered_unit_intensity_fraction(self):
        # analytic variance of the time average is 2K^2/T = 0.005 here, so
        # the delta = 0.1 band is ~1.4 sigma: the violation fraction sits
        # near 0.15 (it cannot be pushed below 0.05 at this horizon)
        p = sk.make_filtered_white_noise(1.0, 1.0, 1)
        fractions = sk.check_wlln(p, [100.0], 0.1, 500, 0.05, seed=123)
        assert 0.05 <= fractions[0] <= 0.3

    def test_fractions_nonincreasing_in_time(self):
        p = sk.make_filtered_white_noise(1.0, 1.0, 1)
        f = sk.check_wlln(p, [25.0, 50.0, 100.0], 0.1, 300, 0.05, seed=17)
        assert f[1] <= f[0] + 0.05 and f[2] <= f[1] + 0.05

    def test_non_finite_average_is_a_violation(self, tmp_path):
        # K = 5e307: |xi|^2 overflows, so 19 of the 20 running averages at
        # t = 50 are inf and one is NaN (0 * inf at the check cell); the NaN
        # one lies in no delta band either
        p = sk.make_filtered_white_noise(1e308, 1.0)
        fractions = sk.check_wlln(p, [50.0], 0.1, 20, 0.01, seed=0)
        assert fractions.tolist() == [1.0]
        # and the non-finite L1 maximum of the same paths fails its check
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "filtered-white-noise", "intensity": 1e308,
                         "tau_f": 1.0, "h_noise": 0.01},
               "mc": {"master_seed": 0},
               "noise_check": {"n_paths": 20, "horizon": 50.0,
                               "check_times": [50.0]}, "out_dir": str(out)}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        code = main(["--config", str(tmp_path / "config.json"), "noise-check"])
        report = json.loads((out / "noise_check.json").read_text())
        assert code == 1
        assert report["wlln"]["fractions"] == [1.0]
        assert report["l1"]["max_ratio"] is None
        assert report["l1"]["passed"] is False

    def test_preconditions(self):
        p = sk.zero_process(1)
        with pytest.raises(ValueError):
            sk.check_wlln(p, [1.0], 0.0, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            sk.check_wlln(p, [0.0], 0.1, 10, 0.1, seed=0)


def row_major_values(process, horizon, h_noise, seed):
    """sample_path's values computed as an (n_points, l) block, with the
    channels on the inner axis."""
    n = _n_cells(horizon, h_noise)
    t = h_noise * np.arange(n + 1)
    l = process.dimension
    rng = np.random.default_rng(int(seed))
    if process.kind == "zero":
        return np.zeros((n + 1, l))
    if process.kind == "random-phase-cosine":
        phases = rng.uniform(0.0, 2.0 * np.pi, size=l)
        amps = np.asarray(process.amplitudes)
        oms = np.asarray(process.omegas)
        return -(amps * np.cos(oms * t[:, None] + phases))
    phi, eta_std = ar1_step_coefficients(process.intensity, process.tau_f, h_noise)
    xi0 = math.sqrt(process.intensity / (2.0 * process.tau_f)) * rng.standard_normal(l)
    eta = eta_std * rng.standard_normal((n, l))
    values = np.empty((n + 1, l))
    values[0] = xi0
    for j in range(l):
        x = float(xi0[j])
        values[1:, j] = [x := e + phi * x for e in eta[:, j].tolist()]
    return values


def cosine(l):
    return sk.make_random_phase_cosine([0.3 + 0.1 * i for i in range(l)],
                                       [1.0 + 0.7 * i for i in range(l)])


class TestChannelMajorSampling:
    @pytest.mark.parametrize("process", [
        cosine(1), cosine(2), cosine(3), cosine(7),
        sk.make_filtered_white_noise(0.5, 1.0, 1),
        sk.make_filtered_white_noise(0.7, 0.3, 3),
        sk.zero_process(2),
    ], ids=["cosine-1", "cosine-2", "cosine-3", "cosine-7", "filtered-1",
            "filtered-3", "zero-2"])
    def test_values_keep_the_row_major_bits(self, process):
        for seed in (0, 5, 2 ** 40 + 3):
            path = sk.sample_path(process, 0.0, 7.05, 0.01, seed)
            expected = row_major_values(process, 7.05, 0.01, seed)
            assert path.values.shape == expected.shape
            assert not path.values.flags.writeable
            assert np.array_equal(path.values.view(np.uint64),
                                  expected.view(np.uint64))

    @pytest.mark.parametrize("l", range(1, 8))
    def test_channel_sums_keep_the_row_major_bits(self, l):
        process = cosine(l)
        horizon, h, seed, k, t_min = 5.5, 0.01, 9, 0.2, 1.5
        n_cells = _n_cells(horizon, h)
        for n in (3, 19):           # one partial batch; four full, one partial
            means, _, ratios = _path_statistics(process, range(n), horizon, h,
                                                seed, (horizon,), k, t_min)
            for i in range(n):
                path = sk.sample_path(process, 0.0, horizon, h, sk.path_seed(seed, i))
                sq = np.sum(np.ascontiguousarray(path.values) ** 2, axis=1)
                times = path.h * np.arange(path.values.shape[0])
                ref = l1_ratios(np.sqrt(sq), h, k)[0][times >= t_min - 1e-12]
                assert means[i].view(np.uint64) == np.mean(sq[:n_cells]).view(np.uint64)
                assert ratios[i] == np.max(ref)
                assert sk.check_l1_bound(path, k, t_min) == np.max(ref)

    @pytest.mark.parametrize("config,changes,digest", [
        (small_config, {}, "71aa566e8568645056002bd1384b4965d1af091a02c5985d3bb2c492da50b692"),
        (example2_filtered_config, {}, "ba53957bb8614df72afb4593dced4cda402514a0f901f1600e847796059105b3"),
        # descending check times: the report lists them ascending, and the
        # WLLN verdict reads the fraction at t = 20 (0.05), not at t = 10 (0.35)
        (example2_filtered_config, {"check_times": [20.0, 10.0], "k_bound": 0.3},
         "7c806ba94e18971f41709650b1a97350379681425abb06abdb99c22119034ecc"),
    ], ids=["readme", "filtered", "filtered-descending-times"])
    def test_report_bytes_are_pinned(self, tmp_path, config, changes, digest):
        out = tmp_path / "out"
        cfg = config(out)
        cfg["noise_check"].update(n_paths=20, horizon=20.0, check_times=[10.0, 20.0])
        cfg["noise_check"].update(changes)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "noise-check"]) == 0
        data = (out / "noise_check.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestBatchSampler:
    """Blocks drawn one after another join into the path ``sample_path``
    draws in one, for every seed of a batch."""

    @pytest.mark.parametrize("b", [1, 3, 20])
    @pytest.mark.parametrize("process", [
        cosine(1), cosine(2), cosine(3),
        sk.make_filtered_white_noise(0.5, 1.0, 1),
        sk.make_filtered_white_noise(0.7, 0.3, 3),
        sk.zero_process(2),
    ], ids=["cosine-1", "cosine-2", "cosine-3", "filtered-1", "filtered-3",
            "zero-2"])
    def test_uneven_blocks_join_into_single_paths(self, process, b):
        horizon, h = 7.05, 0.01
        seeds = [sk.path_seed(4, i) for i in range(b)]
        sizes = [1, 7, 64]
        sizes.append(_n_cells(horizon, h) + 1 - sum(sizes))
        sampler = noise.BatchSampler(process, h, seeds)
        joined = np.concatenate([sampler.draw(k) for k in sizes], axis=1)
        assert joined.shape == (b, 706, process.dimension)
        for row, seed in zip(joined, seeds):
            expected = sk.sample_path(process, 0.0, horizon, h, seed).values
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("process", [
        cosine(9), sk.make_filtered_white_noise(0.7, 0.3, 3), sk.zero_process(2),
    ], ids=["cosine-9", "filtered-3", "zero-2"])
    def test_blocks_are_time_major_views_of_channel_major_memory(self, process):
        # channel-major memory keeps every broadcast on the long axis
        block = noise.BatchSampler(process, 0.01, [1, 2, 3]).draw(5)
        assert block.shape == (3, 5, process.dimension)
        assert block.transpose(0, 2, 1).flags.c_contiguous

    def test_non_finite_values_raise(self):
        huge = sk.NoiseProcess(kind="filtered-white-noise", dimension=1,
                               intensity=1e308, tau_f=1e-308,
                               declared_mean_square=math.inf)
        with pytest.raises(ValueError, match="non-finite"):
            noise.BatchSampler(huge, 0.01, [1, 2]).draw(4)


class TestL1Bound:
    def test_zero_path(self):
        path = sk.sample_path(sk.zero_process(1), 0.0, 5.0, 0.1, seed=0)
        assert sk.check_l1_bound(path, 1.0, 1.0) == 0.0

    def test_constant_path_hits_one_exactly(self):
        # dyadic grid and amplitude keep the rectangle sums exact
        k_bound = 1.0
        h = 0.015625
        values = np.full((129, 1), 2.0 * math.sqrt(k_bound))
        path = sk.NoisePath(h=h, values=values, seed=0)
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

    @pytest.mark.parametrize("k_bound, t_min, match", [
        (0.09, math.nan, "t_min must be positive, got nan"),
        (math.nan, 1.0, "k_bound must be positive and finite, got nan"),
        (math.inf, 1.0, "k_bound must be positive and finite, got inf"),
    ], ids=["t_min-nan", "k_bound-nan", "k_bound-inf"])
    def test_non_finite_arguments_are_named(self, k_bound, t_min, match):
        # a NaN t_min reads no grid time and an infinite K scales every
        # ratio to 0, so each would report 0, which passes
        path = sk.sample_path(sk.make_random_phase_cosine([1.0], [1.0]), 0.0,
                              5.0, 0.1, seed=0)
        with pytest.raises(ValueError, match=match):
            sk.check_l1_bound(path, k_bound, t_min)

    def test_batch_ratios_match_per_path_loop(self):
        p = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        paths = [sk.sample_path(p, 0.0, 9.5, 0.01, seed) for seed in range(4)]
        mags = np.sqrt(np.sum(np.stack([q.values for q in paths]) ** 2, axis=-1))
        batch = l1_ratios(mags, 0.01, 0.09)[0]
        for row, q in zip(batch, paths):
            mags = np.sqrt(np.sum(q.values ** 2, axis=1))
            cum = np.concatenate([[0.0], np.cumsum(mags[:-1]) * q.h])
            times = q.h * np.arange(q.values.shape[0])
            ref = cum[1:] / (2.0 * math.sqrt(0.09) * times[1:])
            assert np.isnan(row[0]) and np.array_equal(row[1:], ref)

    def test_zero_bound_is_zero_until_any_magnitude_then_inf(self):
        mags = np.array([0.0, 0.0, 0.5, 0.0, 1.0])
        ratios, total = l1_ratios(mags, 0.1, 0.0)
        assert np.isnan(ratios[0])
        assert np.array_equal(ratios[1:], [0.0, 0.0, math.inf, math.inf])
        # in blocks, each given the sum the last one returned
        first, head = l1_ratios(mags[:3], 0.1, 0.0)
        rest, tail = l1_ratios(mags[3:], 0.1, 0.0, 3, head)
        assert np.array_equal(np.concatenate([first, rest]), ratios, equal_nan=True)
        assert tail == total == 1.5

    @pytest.mark.parametrize("process, max_ratio", [
        (sk.make_random_phase_cosine([1.0], [1.0]), math.inf),
        (sk.zero_process(1), 0.0),
    ], ids=["cosine", "zero"])
    def test_check_noise_with_zero_bound(self, process, max_ratio):
        # K = 0 leaves no budget: any accumulated |xi| exceeds it
        assert check_noise(process, 4, 5.0, 0.1, 0, [5.0], 0.1, 0.0,
                           t_min=1.0)[-1] == max_ratio


class TestCheckNoiseArguments:
    """check_noise rejects a NaN, negative or infinite statistic parameter
    and names it, instead of reporting a statistic that passes."""

    @pytest.mark.parametrize("change, match", [
        ({"t_min": math.nan}, "t_min must be positive, got nan"),
        ({"k_bound": math.nan}, "k_bound must be >= 0 and finite, got nan"),
        ({"k_bound": -1.0}, "k_bound must be >= 0 and finite, got -1"),
        ({"k_bound": math.inf}, "k_bound must be >= 0 and finite, got inf"),
        ({"delta": math.nan}, "delta must be positive"),
        ({"t_grid": [math.nan]}, "check times must be non-empty and all positive"),
    ], ids=["t_min-nan", "k_bound-nan", "k_bound-negative", "k_bound-inf",
            "delta-nan", "check_times-nan"])
    def test_invalid_parameter_is_named(self, change, match):
        args = {"t_grid": [5.0], "delta": 0.1, "k_bound": 0.5, "t_min": 1.0,
                **change}
        with pytest.raises(ValueError, match=match):
            check_noise(sk.make_random_phase_cosine([1.0], [1.0]), 4, 5.0, 0.1,
                        0, **args)


class TestUnboundedArguments:
    """A t_min past the last grid time, an infinite delta and an infinite
    h_noise are rejected by name: each would otherwise read no grid time,
    count no path outside the band or hide the fault behind another."""

    COSINE = sk.make_random_phase_cosine([1.0], [1.0])

    @pytest.mark.parametrize("k_bound", [0.5, 0.0])
    @pytest.mark.parametrize("t_min", [5.05, math.inf])
    def test_check_noise_t_min_past_the_grid(self, t_min, k_bound, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a path was sampled")
        monkeypatch.setattr(noise, "BatchSampler", no_sampling)
        with pytest.raises(ValueError, match=f"t_min = {t_min} lies past the "
                                             "last grid time 5.0"):
            check_noise(self.COSINE, 4, 5.0, 0.1, 0, [5.0], 0.1, k_bound,
                        t_min=t_min)

    @pytest.mark.parametrize("t_min", [5.2, math.inf])
    def test_check_l1_bound_t_min_past_the_grid(self, t_min):
        path = sk.sample_path(self.COSINE, 0.0, 5.0, 0.1, seed=0)
        with pytest.raises(ValueError, match=f"t_min = {t_min} lies past the "
                                             "last grid time 5.0"):
            sk.check_l1_bound(path, 0.5, t_min)

    def test_cli_t_min_past_the_grid_is_a_config_error(self, tmp_path, capsys):
        # 5e-12 past 30 opens no cell of 10, so the grid ends at 30, before
        # a t_min equal to the horizon
        horizon = 30.000000000005
        cfg = {"noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                         "tau_f": 1.0, "h_noise": 10.0},
               "noise_check": {"n_paths": 4, "horizon": horizon,
                               "t_min": horizon, "check_times": [horizon]},
               "out_dir": str(tmp_path / "out")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "config.json"),
                     "noise-check"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: field noise_check.t_min: t_min = "
            "30.000000000005 lies past the last grid time 30.0\n")
        assert not (tmp_path / "out").exists()

    FILTERED = {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0,
                "h_noise": 0.01}

    def off_grid_config(self, tmp_path, t_min):
        """noise-check on a horizon of 50.005, whose grid ends at 50.01."""
        cfg = {"noise": self.FILTERED,
               "noise_check": {"n_paths": 4, "horizon": 50.005,
                               "check_times": [50.005], "t_min": t_min},
               "out_dir": str(tmp_path / "out")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        return ["--config", str(tmp_path / "config.json"), "--jobs", "1",
                "noise-check"]

    def test_cli_t_min_up_to_the_last_grid_time_is_read(self, tmp_path):
        # past the horizon, but not past the grid time 50.01 that ends it
        assert main(self.off_grid_config(tmp_path, 50.008)) == 0
        report = json.loads((tmp_path / "out" / "noise_check.json").read_text())
        process = sk.make_filtered_white_noise(0.5, 1.0)
        assert report["l1"]["max_ratio"] == check_noise(
            process, 4, 50.005, 0.01, 0, [50.005], 0.1, 0.25, t_min=50.008)[-1]

    def test_cli_t_min_past_the_off_grid_horizon_grid(self, tmp_path, capsys):
        assert main(self.off_grid_config(tmp_path, 50.02)) == 2
        assert capsys.readouterr().err == (
            "configuration error: field noise_check.t_min: t_min = 50.02 lies "
            "past the last grid time 50.01\n")
        assert not (tmp_path / "out").exists()

    def test_t_min_at_the_last_grid_time_is_read(self):
        max_ratio = check_noise(self.COSINE, 4, 5.0, 0.1, 0, [5.0], 0.1, 0.5,
                                t_min=5.0)[-1]
        assert max_ratio == pytest.approx(0.5065, abs=1e-4)

    @pytest.mark.parametrize("check", [
        lambda p: check_noise(p, 4, 5.0, 0.1, 0, [5.0], math.inf, 0.5),
        lambda p: sk.check_wlln(p, [5.0], math.inf, 4, 0.1, 0),
    ], ids=["check_noise", "check_wlln"])
    def test_infinite_delta(self, check):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite, got inf"):
            check(self.COSINE)

    @pytest.mark.parametrize("process", [sk.zero_process(1), COSINE],
                             ids=["zero", "cosine"])
    def test_infinite_h_noise(self, process):
        match = "h_noise must be positive and finite, got inf"
        with pytest.raises(ValueError, match=match):
            noise.grid_points(process, 1.0, math.inf)
        with pytest.raises(ValueError, match=match):
            sk.sample_path(process, 0.0, 1.0, math.inf, 0)


class TestStatsBlock:
    """A noise dimension whose sampler block numpy cannot size is rejected
    before anything is sampled."""

    HUGE = 2 ** 62

    def test_largest_sizable_block(self):
        floats = np.iinfo(np.intp).max // 8
        l = floats // (4 * 1024)
        assert noise.stats_block(sk.zero_process(l), 100, 5001) == (4, l, 1024)
        with pytest.raises(ValueError, match="more bytes than an array can hold"):
            noise.stats_block(sk.zero_process(l + 1), 100, 5001)
        # two paths on a grid of 3 points draw a 2 x l x 3 block
        assert noise.stats_block(sk.zero_process(floats // 6), 2, 3)[1] == floats // 6

    @pytest.mark.parametrize("process", [
        sk.zero_process(HUGE), sk.make_filtered_white_noise(0.5, 1.0, HUGE)],
        ids=["zero", "filtered"])
    def test_check_noise_raises_before_sampling(self, process, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a path was sampled")
        monkeypatch.setattr(noise, "BatchSampler", no_sampling)
        with pytest.raises(ValueError, match="noise blocks of 4 x "
                                             f"{self.HUGE} x 501 floats"):
            check_noise(process, 4, 5.0, 0.01, 0, [5.0], 0.1, 0.5)

    @pytest.mark.parametrize("noise_block", [
        {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0},
        {"kind": "zero"}], ids=["filtered", "zero"])
    def test_cli_config_error(self, tmp_path, capsys, noise_block):
        out = tmp_path / "out"
        cfg = {"noise": dict(noise_block, dimension=self.HUGE), "out_dir": str(out)}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "config.json"), "noise-check"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: field noise.dimension: noise blocks "
                       f"of 4 x {self.HUGE} x 1024 floats are more bytes than an "
                       "array can hold\n")
        assert not out.exists()


class TestOnePass:
    @pytest.mark.parametrize("times,n", [
        pytest.param([5.0, 12.5], 12, id="times0"),
        pytest.param([8.0, 30.0], 12, id="times1"),
        pytest.param([8.0, 30.0], 19, id="19-paths"),    # batches of 4, 4, 4, 4, 3
    ])
    def test_matches_per_statistic_loops(self, times, n):
        """check_noise against one freshly sampled path per statistic."""
        p = sk.make_filtered_white_noise(0.5, 1.0, 2)
        horizon, h, seed, k = 20.0, 0.01, 3, 0.3
        est, hw, fractions, max_ratio = check_noise(p, n, horizon, h, seed, times,
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
                c = _cell(t, h, q.values.shape[0])
                avg = (cum[c] + (t - c * h) * sq[c]) / t
                viol[j, i] = abs(avg - p.declared_mean_square) >= 0.1
        assert est == np.mean(per_path)
        assert hw == CONFIDENCE_Z * np.std(per_path, ddof=1) / math.sqrt(n)
        assert np.array_equal(fractions, viol.mean(axis=1))
        assert max_ratio == max(ratios)

    def test_zero_bound_skips_l1(self):
        max_ratio = check_noise(sk.zero_process(1), 3, 2.0, 0.1, 0,
                                [2.0], 0.1, 0.0)[-1]
        assert max_ratio == 0.0

    def test_memory_is_flat_in_the_path_count(self):
        """Traced peaks of the README noise-check over 5001 grid points: a
        batch's buffers do not grow with n_paths, and stay small next to the
        process's resident size."""
        p = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])

        def peak(n_paths):
            tracemalloc.start()
            try:
                check_noise(p, n_paths, 50.0, 0.01, 2024, [50.0], 0.1, 0.09)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        check_noise(p, 16, 50.0, 0.01, 2024, [50.0], 0.1, 0.09)     # warm-up
        small, large = peak(16), peak(64)
        assert large <= small + 64 * 1024
        assert max(small, large) < 3 * 1024 * 1024


class TestTooFewPaths:
    """A mean and half-width need two paths: the noise checks reject fewer
    before they sample any."""

    @pytest.mark.parametrize("n_paths", [-3, 0, 1])
    @pytest.mark.parametrize("check", [
        lambda p, n: sk.estimate_mean_square(p, n, 5.0, 0.01, 0),
        lambda p, n: sk.check_wlln(p, [5.0], 0.1, n, 0.01, 0),
        lambda p, n: check_noise(p, n, 5.0, 0.01, 0, [5.0], 0.1, 0.5),
    ], ids=["estimate_mean_square", "check_wlln", "check_noise"])
    def test_raises_before_sampling(self, check, n_paths, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a path was sampled")
        monkeypatch.setattr(noise, "BatchSampler", no_sampling)
        with pytest.raises(ValueError, match="n_paths must be >= 2"):
            check(sk.make_random_phase_cosine([1.0], [1.0]), n_paths)


class TestInputChecks:
    @pytest.mark.parametrize("call,match", [
        (lambda: sk.make_filtered_white_noise(0.5, 1.0, 0),
         "dimension must be >= 1, got 0"),
        (lambda: sk.zero_process(0), "dimension must be >= 1, got 0"),
        (lambda: noise.BatchSampler(noise.NoiseProcess(kind="pink", dimension=1),
                                    0.01, [0]),
         "unknown noise kind: pink"),
    ], ids=["filtered-dimension-0", "zero-dimension-0", "unknown-kind"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
