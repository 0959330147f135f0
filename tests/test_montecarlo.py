"""Tests for the batched Monte Carlo studies."""

import numpy as np
import pytest

import settlekit as sk
from settlekit import integrate
from settlekit.certify import LYAPUNOV_FUNCTIONS, Certificate, PowerLaw
from settlekit.montecarlo import write_settle_csv

TWO_23 = 2.0 ** (2.0 / 3.0)
V_NORM, GRAD_NORM = LYAPUNOV_FUNCTIONS["half-square-norm"]


def sqrt_model():
    return sk.SystemModel(n=1, l=1,
                          f=lambda x, t: -sk.signed_power(x, 0.5),
                          g=lambda x, t: np.zeros(x.shape + (1,)), name="sqrt")


def mc_config(n_paths=10, horizon=4.0, seed=1, jobs=1, h=1e-3):
    return sk.McConfig(n_paths=n_paths, master_seed=seed,
                       integrator=sk.IntegratorConfig(h=h, horizon=horizon),
                       h_noise=0.01, jobs=jobs)


def ex1_cert(k=0.09):
    return Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM, gamma=2.0 / 3.0,
                       c1=TWO_23, c2=TWO_23, noise_bound=k,
                       alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))


class TestEstimateSettling:
    def test_zero_noise_degenerate(self):
        stats = sk.estimate_settling(sqrt_model(), sk.zero_process(1),
                                     np.array([1.0]), mc_config())
        assert stats.n_settled == stats.n_paths
        assert stats.half_width == 0.0
        assert stats.min_time == stats.max_time == stats.mean
        assert abs(stats.mean - 1.98) <= 0.05

    def test_sweep_stops_once_no_row_is_live(self, monkeypatch):
        calls = []
        rk4_step = integrate.rk4_step

        def counted(*args, **kwargs):
            calls.append(1)
            return rk4_step(*args, **kwargs)

        monkeypatch.setattr(integrate, "rk4_step", counted)
        cfg = mc_config()
        stats = sk.estimate_settling(sqrt_model(), sk.zero_process(1),
                                     np.array([1.0]), cfg)
        n_steps = round(cfg.integrator.horizon / cfg.integrator.h)
        assert 0 < len(calls) < n_steps
        assert stats.n_settled == stats.n_paths
        assert stats.half_width == 0.0
        assert stats.min_time == stats.max_time == stats.mean
        assert abs(stats.mean - 1.98) <= 0.05

    def test_evaluator_nan_raises(self):
        m = sk.SystemModel(
            n=1, l=1, f=lambda x, t: np.where(np.abs(x - 0.3) < 0.05, np.nan, -x),
            g=lambda x, t: np.zeros(x.shape + (1,)), name="nan")
        cfg = sk.McConfig(n_paths=3, master_seed=1,
                          integrator=sk.IntegratorConfig(h=1e-3, horizon=1.0,
                                                         absorb_at_origin=False),
                          h_noise=0.01)
        with pytest.raises(sk.EvaluatorError) as err:
            sk.estimate_settling(m, sk.zero_process(1), np.array([0.3]), cfg)
        assert err.value.t == 0.0 and np.array_equal(err.value.x, [0.3])

    def test_censoring(self):
        short = sk.estimate_settling(sqrt_model(), sk.zero_process(1),
                                     np.array([1.0]), mc_config(horizon=1.0))
        assert short.n_settled == 0 and short.n_censored == short.n_paths
        assert short.mean is None
        longer = sk.estimate_settling(sqrt_model(), sk.zero_process(1),
                                      np.array([1.0]), mc_config(horizon=4.0))
        assert longer.n_settled >= short.n_settled

    def test_raising_horizon_never_loses_settled_paths(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        a = sk.estimate_settling(model, proc, np.array([1.0, 1.0]),
                                 mc_config(n_paths=20, horizon=2.0, seed=5, h=2e-3))
        b = sk.estimate_settling(model, proc, np.array([1.0, 1.0]),
                                 mc_config(n_paths=20, horizon=4.0, seed=5, h=2e-3))
        assert b.n_settled >= a.n_settled

    def test_chunking_does_not_change_results(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        runs = [sk.estimate_settling(model, proc, np.array([1.0, 1.0]),
                                     mc_config(n_paths=12, horizon=3.0, seed=7,
                                               jobs=j, h=2e-3))
                for j in (1, 3, 12)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].settle_times, other.settle_times,
                                  equal_nan=True)
            assert runs[0].mean == other.mean

    def test_bound_requires_enough_paths(self):
        with pytest.raises(ValueError):
            sk.estimate_settling(sk.make_example1(),
                                 sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]),
                                 np.array([1.0, 1.0]), mc_config(n_paths=10),
                                 cert=ex1_cert())

    def test_blowups_flagged_and_censored(self):
        model = sk.get_model("unstable-cubic")
        cfg = sk.McConfig(n_paths=3, master_seed=1,
                          integrator=sk.IntegratorConfig(h=1e-3, horizon=1.0,
                                                         absorb_at_origin=False),
                          h_noise=0.01)
        stats = sk.estimate_settling(model, sk.zero_process(1), np.array([2.0]), cfg)
        assert stats.n_blowups == 3
        assert stats.n_censored == 3
        assert stats.n_settled == 0

    def test_matches_single_path_integrator(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        cfg = mc_config(n_paths=3, horizon=3.0, seed=11, h=2e-3)
        stats = sk.estimate_settling(model, proc, np.array([1.0, 1.0]), cfg)
        for i in range(3):
            path = sk.sample_path(proc, 0.0, 3.0, 0.01, sk.path_seed(11, i))
            traj = sk.integrate_path(model, path, np.array([1.0, 1.0]),
                                     cfg.integrator)
            if traj.settled:
                assert stats.settled_mask[i]
                assert stats.settle_times[i] == traj.settle_time


class TestStabilityProbability:
    def test_huge_gamma(self):
        frac = sk.estimate_stability_probability(
            sqrt_model(), sk.zero_process(1), np.array([1.0]),
            PowerLaw(1e6, 1.0), mc_config(n_paths=5, horizon=1.0))
        assert frac == 1.0

    def test_contractive_linear_identity_gamma(self):
        m = sk.SystemModel(n=1, l=1, f=lambda x, t: -x,
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="lin")
        frac = sk.estimate_stability_probability(
            m, sk.zero_process(1), np.array([1.0]), PowerLaw(1.0, 1.0),
            mc_config(n_paths=5, horizon=2.0))
        assert frac == 1.0

    def test_example1_with_acceptance_noise(self):
        frac = sk.estimate_stability_probability(
            sk.make_example1(), sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]),
            np.array([1.0, 1.0]), PowerLaw(2.0, 1.0),
            mc_config(n_paths=100, horizon=5.0, seed=3, h=2e-3))
        assert frac >= 0.95


class TestEnvelopeCoverage:
    def test_zero_noise_full_coverage(self):
        cert = ex1_cert(k=0.0)
        cov = sk.envelope_coverage(sk.make_example1(), sk.zero_process(2),
                                   np.array([1.0, 1.0]), cert,
                                   mc_config(n_paths=4, horizon=6.0, h=2e-3),
                                   epsilon_target=0.05)
        assert cov.overall_fraction == 1.0
        assert np.all(cov.per_time_fraction == 1.0)

    def test_each_path_is_sampled_once(self, monkeypatch):
        from settlekit import montecarlo, noise
        calls = []
        sample_path = noise.sample_path

        def counted(*args, **kwargs):
            calls.append(1)
            return sample_path(*args, **kwargs)

        for module in (montecarlo, noise):
            monkeypatch.setattr(module, "sample_path", counted)
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        cov = sk.envelope_coverage(sk.make_example1(), proc, np.array([1.0, 1.0]),
                                   ex1_cert(), mc_config(n_paths=7, horizon=2.0,
                                                         jobs=3, h=2e-3), 0.05)
        assert len(calls) == 7
        assert cov.overall_fraction_from_l1_time >= cov.overall_fraction

    def test_loosening_alpha1_never_reduces_coverage(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        cfg = mc_config(n_paths=20, horizon=6.0, seed=9, h=2e-3)
        covs = []
        for a1 in (0.5, 0.25):   # smaller coefficient -> larger envelope
            cert = Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM,
                               gamma=2.0 / 3.0, c1=TWO_23, c2=TWO_23,
                               noise_bound=0.09, alpha1=PowerLaw(a1, 2),
                               alpha2=PowerLaw(0.5, 2))
            covs.append(sk.envelope_coverage(model, proc, np.array([1.0, 1.0]),
                                             cert, cfg, 0.05))
        assert covs[1].overall_fraction >= covs[0].overall_fraction


class TestFigures:
    def test_fig1(self, tmp_path):
        files = sk.reproduce_figure("fig1", tmp_path)
        rows = np.loadtxt(files[0], delimiter=",", skiprows=1)
        assert rows[0, 1] == 1.0 and rows[0, 2] == 1.0
        assert np.hypot(rows[-1, 1], rows[-1, 2]) <= 1e-4

    def test_fig2_and_fig3(self, tmp_path):
        f2 = sk.reproduce_figure("fig2", tmp_path)[0]
        rows2 = np.loadtxt(f2, delimiter=",", skiprows=1)
        assert rows2[0, 1] == 3.0
        f3 = sk.reproduce_figure("fig3", tmp_path)[0]
        head = open(f3).readline().strip()
        assert head == "t,u,xi_1"
        rows3 = np.loadtxt(f3, delimiter=",", skiprows=1)
        assert rows3[-1, 1] == 0.0   # control vanishes once settled

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            sk.reproduce_figure("fig9", tmp_path)


def test_settle_csv_format(tmp_path):
    stats = sk.estimate_settling(sqrt_model(), sk.zero_process(1),
                                 np.array([1.0]), mc_config(n_paths=3, horizon=1.0))
    out = tmp_path / "paths.csv"
    write_settle_csv(stats, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path_index,seed,settled,settle_time"
    assert lines[1].endswith(",false,")   # censored -> empty settle time
