"""Tests for the batched Monte Carlo studies."""

import hashlib

import numpy as np
import pytest

import settlekit as sk
from settlekit import integrate, montecarlo, noise
from settlekit.certify import LYAPUNOV_FUNCTIONS, Certificate, PowerLaw

TWO_23 = 2.0 ** (2.0 / 3.0)
V_NORM, GRAD_NORM = LYAPUNOV_FUNCTIONS["half-square-norm"]


def sqrt_model():
    return sk.SystemModel(n=1, l=1,
                          f=lambda x, t: -sk.signed_power(x, 0.5),
                          g=lambda x, t: np.zeros(x.shape + (1,)), name="sqrt")


def mc_config(n_paths=10, horizon=4.0, seed=1, h=1e-3):
    return sk.McConfig(n_paths=n_paths, master_seed=seed,
                       integrator=sk.IntegratorConfig(h=h, horizon=horizon),
                       h_noise=0.01)


def ex1_cert(k=0.09, dim=2):
    return Certificate(state_dim=dim, V=V_NORM, gradV=GRAD_NORM, gamma=2.0 / 3.0,
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

    def test_stability_and_coverage_sweeps_stop_once_no_row_is_live(
            self, monkeypatch):
        calls = []
        rk4_step = integrate.rk4_step

        def counted(*args, **kwargs):
            calls.append(1)
            return rk4_step(*args, **kwargs)

        monkeypatch.setattr(integrate, "rk4_step", counted)
        cfg = mc_config()
        n_steps = round(cfg.integrator.horizon / cfg.integrator.h)
        args = (sqrt_model(), sk.zero_process(1), np.array([1.0]))
        steps = []
        for study in (
                lambda: sk.estimate_settling(*args, cfg),
                lambda: sk.estimate_stability_probability(
                    *args, PowerLaw(1.0, 1.0), cfg),
                lambda: sk.envelope_coverage(*args, ex1_cert(k=0.0, dim=1), cfg)):
            calls.clear()
            study()
            steps.append(len(calls))
        assert 0 < steps[0] == steps[1] == steps[2] < n_steps

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

    def test_sweep_draws_only_the_cells_it_reaches(self, monkeypatch):
        drawn = []
        draw = noise.BatchSampler.draw

        def counted(self, k):
            drawn.append(k)
            return draw(self, k)

        monkeypatch.setattr(noise.BatchSampler, "draw", counted)
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        cfg = mc_config(n_paths=10, horizon=20.0, seed=3, h=2e-3)
        run = montecarlo._BatchRun(sk.make_example1(), proc,
                                   np.array([1.0, 1.0]), cfg)
        res = run.sweep()
        # every row is absorbed; the last to go read cells 0 .. reached - 1
        assert np.all(res.absorb_step > 0)
        reached = (res.absorb_step.max() - 1) // run.m + 1
        block = montecarlo._BLOCK
        assert reached <= sum(drawn) <= -(-reached // block) * block
        assert sum(drawn) < run.n_points == 2001

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

    def test_each_path_depends_only_on_its_seed(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        x0 = np.array([1.0, 1.0])
        cfg = mc_config(n_paths=12, horizon=1.7, seed=7, h=2e-3)
        full = sk.estimate_settling(model, proc, x0, cfg)
        assert 0 < full.n_settled < 12     # settled and censored paths both occur
        for i in range(12):
            path = sk.sample_path(proc, 0.0, 1.7, 0.01, sk.path_seed(7, i))
            traj = sk.integrate_path(model, path, x0, cfg.integrator)
            assert full.settled_mask[i] == traj.settled
            assert np.array_equal(full.settle_times[i],
                                  traj.settle_time if traj.settled else np.nan,
                                  equal_nan=True)
        prefix = sk.estimate_settling(model, proc, x0, mc_config(
            n_paths=5, horizon=1.7, seed=7, h=2e-3))
        for name in ("settle_times", "settled_mask", "blown_mask", "seeds"):
            assert np.array_equal(getattr(prefix, name),
                                  getattr(full, name)[:5], equal_nan=True)

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
        per_time, overall, _ = sk.envelope_coverage(
            sk.make_example1(), sk.zero_process(2), np.array([1.0, 1.0]), cert,
            mc_config(n_paths=4, horizon=6.0, h=2e-3))
        assert overall == 1.0
        assert np.all(per_time == 1.0)

    def test_each_path_is_sampled_once(self, monkeypatch):
        drawn = []
        init = noise.BatchSampler.__init__

        def counted(self, process, h_noise, seeds):
            drawn.extend(int(s) for s in seeds)
            init(self, process, h_noise, seeds)

        monkeypatch.setattr(noise.BatchSampler, "__init__", counted)
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        _, overall, from_l1 = sk.envelope_coverage(
            sk.make_example1(), proc, np.array([1.0, 1.0]), ex1_cert(),
            mc_config(n_paths=7, horizon=2.0, h=2e-3))
        assert drawn == [sk.path_seed(1, i) for i in range(7)]
        assert from_l1 >= overall

    @pytest.mark.parametrize("l", [8, 9])
    def test_l1_start_reads_the_noise_checks_magnitudes(self, monkeypatch, l):
        # from 8 channels on, numpy adds contiguous channels pairwise; the
        # L1 start must add them in order, as the noise checks do
        read = []
        l1_ratios = montecarlo.l1_ratios

        def recorded(mags, *args):
            read.append(mags)
            return l1_ratios(mags, *args)

        monkeypatch.setattr(montecarlo, "l1_ratios", recorded)
        model = sk.SystemModel(n=1, l=l, f=lambda x, t: -sk.signed_power(x, 0.5),
                               g=lambda x, t: np.full(x.shape + (l,), 0.1),
                               name=f"sqrt-{l}")
        proc = sk.make_random_phase_cosine(0.1 + 0.05 * np.arange(l),
                                           1.0 + np.arange(l))
        sk.envelope_coverage(model, proc, np.array([1.0]), ex1_cert(dim=1),
                             mc_config(n_paths=4, horizon=2.0, seed=7))
        mags = np.concatenate(read, axis=1)
        assert mags.shape == (4, 201)
        for i, row in enumerate(mags):
            path = sk.sample_path(proc, 0.0, 2.0, 0.01, sk.path_seed(7, i))
            expected = np.sqrt(np.sum(path.values ** 2, axis=-1))
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))

    def test_loosening_alpha1_never_reduces_coverage(self):
        model = sk.make_example1()
        proc = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        cfg = mc_config(n_paths=20, horizon=6.0, seed=9, h=2e-3)
        overall = []
        for a1 in (0.5, 0.25):   # smaller coefficient -> larger envelope
            cert = Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM,
                               gamma=2.0 / 3.0, c1=TWO_23, c2=TWO_23,
                               noise_bound=0.09, alpha1=PowerLaw(a1, 2),
                               alpha2=PowerLaw(0.5, 2))
            overall.append(sk.envelope_coverage(
                model, proc, np.array([1.0, 1.0]), cert, cfg)[1])
        assert overall[1] >= overall[0]


class TestPinnedResults:
    """Results of the last-exit studies, pinned to their bits; the
    per-time fractions are pinned by the SHA-256 of their bytes."""

    def strong_noise(self):
        return (sk.make_example1(),
                sk.make_random_phase_cosine([1.5, 1.5], [1.0, 2.0]),
                np.array([1.0, 1.0]))

    def test_envelope_coverage(self):
        per_time, overall, from_l1 = sk.envelope_coverage(
            *self.strong_noise(), ex1_cert(),
            mc_config(n_paths=40, horizon=4.0, h=2e-3))
        assert hashlib.sha256(per_time.tobytes()).hexdigest() == \
            "3238db73106a9867ace1a4b46cb0e017051687f18d6c9e6a092da4a256b43efe"
        assert overall == 0.575
        assert from_l1 == 0.85

    @staticmethod
    def assert_report(cov, fractions, digest):
        per_time, *whole_path = cov
        assert tuple(whole_path) == fractions
        assert hashlib.sha256(per_time.tobytes()).hexdigest() == digest

    def test_envelope_coverage_l1_start_after_the_last_absorption(self):
        # paths 2 and 7 leave the envelope and are absorbed; no grid time up
        # to the horizon, long after the last absorption, is L1-good for them
        proc = sk.make_random_phase_cosine([1.2, 1.2], [1.0, 2.0])
        cert = Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM,
                           gamma=2.0 / 3.0, c1=TWO_23, c2=1.0, noise_bound=0.3,
                           alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
        cfg = sk.McConfig(n_paths=8, master_seed=2, h_noise=0.01,
                          integrator=sk.IntegratorConfig(
                              h=2e-3, horizon=6.0, eps_settle=0.2, eps_absorb=0.1))
        model, x0 = sk.make_example1(), np.array([1.0, 1.0])
        stats = sk.estimate_settling(model, proc, x0, cfg)
        assert stats.n_settled == 8 and stats.max_time < 2.6
        for i in (2, 7):
            path = sk.sample_path(proc, 0.0, 6.0, 0.01, sk.path_seed(2, i))
            mags = np.sqrt(np.sum(path.values ** 2, axis=1))
            assert not np.any(sk.noise.l1_ratios(mags, 0.01, 0.3)[0] <= 1.0)
        self.assert_report(
            sk.envelope_coverage(model, proc, x0, cert, cfg), (0.625, 0.875),
            "d53350154a5d7587cf012f4a991b730200ccc12f32eae20e155ced3b313a2268")
        assert sk.Envelope(cert, np.linalg.norm(x0)).t_ext == 6.098107116160141

    def test_envelope_coverage_reads_blown_rows_to_their_last_exit(self):
        # every row blows up at node 126, in the first noise block, and its
        # last exit is the last node; path 7 first turns L1-good at grid
        # index 95, which the kernel never read, and is not covered from it
        proc = sk.make_random_phase_cosine([1.0], [2.0])
        cfg = sk.McConfig(n_paths=8, master_seed=2, h_noise=0.01,
                          integrator=sk.IntegratorConfig(
                              h=1e-3, horizon=1.005, absorb_at_origin=False))
        path = sk.sample_path(proc, 0.0, 1.005, 0.01, sk.path_seed(2, 7))
        good = sk.noise.l1_ratios(np.abs(path.values[:, 0]), 0.01, 0.12)[0] <= 1
        assert good.argmax() == 95
        cov = sk.envelope_coverage(sk.get_model("unstable-cubic"), proc,
                                   np.array([2.0]), ex1_cert(0.12, 1), cfg)
        self.assert_report(
            cov, (0.0, 0.25),
            "8fd3bf15a6e49f0c6def056ef9ac5adfc92a5aedc21a0acbec1169bb8d03527c")
        assert sk.Envelope(ex1_cert(0.12, 1), 2.0).t_ext == 7.751494504520428

    @pytest.mark.parametrize("a, fraction", [(0.9, 0.0), (1.0, 0.95), (1.2, 1.0)])
    def test_stability_probability(self, a, fraction):
        assert sk.estimate_stability_probability(
            *self.strong_noise(), PowerLaw(a, 1.0),
            mc_config(n_paths=40, horizon=4.0, h=2e-3)) == fraction

    def test_envelope_coverage_counts_blown_rows_outside(self):
        cfg = sk.McConfig(n_paths=3, master_seed=1,
                          integrator=sk.IntegratorConfig(h=1e-3, horizon=1.0,
                                                         absorb_at_origin=False),
                          h_noise=0.01)
        per_time, overall, from_l1 = sk.envelope_coverage(
            sk.get_model("unstable-cubic"), sk.zero_process(1), np.array([2.0]),
            ex1_cert(dim=1), cfg)
        assert hashlib.sha256(per_time.tobytes()).hexdigest() == \
            "f1f767bcef9abd9978a09acda2bf15e3c7538101c7d5d01383e3255a6bf7c0de"
        assert overall == from_l1 == 0.0


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
        with open(f3) as fh:
            head = fh.readline().strip()
        assert head == "t,u,xi_1"
        rows3 = np.loadtxt(f3, delimiter=",", skiprows=1)
        assert rows3[-1, 1] == 0.0   # control vanishes once settled

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            sk.reproduce_figure("fig9", tmp_path)
