"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Monte Carlo criteria use fixed master seeds and the batched engine,
so every run is reproducible.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import settlekit as sk
from settlekit.certify import LYAPUNOV_FUNCTIONS, Certificate, PowerLaw

TWO_23 = 2.0 ** (2.0 / 3.0)
V_NORM, GRAD_NORM = LYAPUNOV_FUNCTIONS["half-square-norm"]
V_ATAN, GRAD_ATAN = LYAPUNOV_FUNCTIONS["half-square-arctan"]

EX1_NOISE = dict(amplitudes=[0.3, 0.3], omegas=[1.0, 2.0])   # K = 0.09
EX2_NOISE = dict(intensity=0.5, tau_f=1.0, dimension=1)      # K = 0.25


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def ex1_certificate():
    return Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM, gamma=2.0 / 3.0,
                       c1=TWO_23, c2=TWO_23, noise_bound=0.09,
                       alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))


def ex2_certificate():
    return Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN, gamma=2.0 / 3.0,
                       c1=TWO_23, c2=2.0 ** (-1.0 / 3.0), noise_bound=0.25,
                       alpha1=PowerLaw(1.0 / 32.0, 2), alpha2=PowerLaw(0.5, 2))


def test_criterion_01_closed_loop_identities():
    model = sk.get_model("example2-closed")
    x = np.linspace(-10.0, 10.0, 1001)
    grad = np.arctan(x) / (1.0 + x * x)
    lie_f = grad * model.f(x[:, None], 0.0)[:, 0]
    lie_g = grad * model.g(x[:, None], 0.0)[:, 0, 0]
    target = np.abs(np.arctan(x)) ** (4.0 / 3.0)
    err_f = float(np.max(np.abs(lie_f + target)))
    err_g = float(np.max(np.abs(lie_g - 0.5 * target)))
    assert err_f <= 1e-9
    assert err_g <= 1e-9
    ok(1, f"closed-loop identities on [-10,10]: drift err {err_f:.2e}, "
          f"gain err {err_g:.2e} <= 1e-9")


def test_criterion_02_theta_quadrature_and_round_trip():
    worst = 0.0
    for gamma in (0.25, 0.5, 0.75):
        cert_q = Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN,
                             rate_fn=lambda v, g=gamma: np.asarray(v, dtype=float) ** g,
                             c1=1.0, c2=0.1, noise_bound=0.0,
                             alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
        for v in (0.1, 1.0, 10.0):
            closed = v ** (1.0 - gamma) / (1.0 - gamma)
            worst = max(worst, abs(sk.theta(cert_q, v) - closed))
    assert worst <= 1e-8
    worst_rt = 0.0
    cert_p = Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN, gamma=0.5,
                         c1=1.0, c2=0.1, noise_bound=0.0,
                         alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
    for v in np.linspace(0.0, 100.0, 41):
        worst_rt = max(worst_rt, abs(sk.theta_inverse(cert_p, sk.theta(cert_p, v)) - v))
    assert worst_rt <= 1e-10
    ok(2, f"theta quadrature err {worst:.2e} <= 1e-8, "
          f"round trip err {worst_rt:.2e} <= 1e-10")


def test_criterion_03_deterministic_settling_oracle():
    model = sk.SystemModel(n=1, l=1, f=lambda x, t: -sk.signed_power(x, 0.5),
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="sqrt")
    path = sk.sample_path(sk.zero_process(1), 0.0, 4.0, 0.01, seed=1)
    cfg = sk.IntegratorConfig(h=1e-3, horizon=4.0, eps_settle=1e-4)
    traj = sk.integrate_path(model, path, np.array([1.0]), cfg)
    target = 2.0 * (1.0 - math.sqrt(1e-4))
    assert traj.settled
    assert abs(traj.settle_time - target) <= 0.05
    ok(3, f"sqrt-decay settle time {traj.settle_time:.4f} within 0.05 of {target}")


def test_criterion_04_integrator_order():
    model = sk.SystemModel(n=1, l=1, f=lambda x, t: -x,
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="lin")
    path = sk.sample_path(sk.zero_process(1), 0.0, 4.0, 0.01, seed=1)
    errs = {}
    for h in (2e-3, 1e-3):
        cfg = sk.IntegratorConfig(h=h, horizon=4.0)
        traj = sk.integrate_path(model, path, np.array([1.0]), cfg)
        errs[h] = abs(traj.states[-1, 0] - math.exp(-4.0))
    ratio = errs[2e-3] / errs[1e-3]
    assert 12.0 <= ratio <= 20.0
    ok(4, f"halving h reduced endpoint error by {ratio:.2f}x (in [12, 20])")


def test_criterion_05_noise_moments():
    filt = sk.make_filtered_white_noise(1.0, 1.0, 1)
    rep = sk.estimate_mean_square(filt, 200, 50.0, 0.01, seed=77)
    se = rep.half_width / 1.959963984540054
    assert abs(rep.estimate - 0.5) <= 3.0 * se
    cos = sk.make_random_phase_cosine([2.0], [1.0])
    horizon = 20.0 * math.pi
    rep2 = sk.estimate_mean_square(cos, 4, horizon, horizon / 4000, seed=5)
    assert abs(rep2.estimate - 2.0) <= 1e-12
    ok(5, f"filtered mean square {rep.estimate:.4f} within 3 SE of 0.5; "
          f"cosine whole-period average err {abs(rep2.estimate - 2.0):.1e} <= 1e-12")


def test_criterion_06_wlln():
    proc = sk.make_filtered_white_noise(**EX2_NOISE)
    rep = sk.check_wlln(proc, [100.0], 0.1, 500, 0.05, seed=123)
    frac = float(rep.fractions[0])
    assert frac <= 0.05
    ok(6, f"time-average concentration: violation fraction {frac:.3f} <= 0.05 "
          f"at t=100, delta=0.1, 500 paths")


def test_criterion_07_l1_path_bound():
    proc = sk.make_random_phase_cosine(**EX1_NOISE)
    worst = 0.0
    for i in range(500):
        p = sk.sample_path(proc, 0.0, 20.0, 0.01, sk.path_seed(2024, i))
        worst = max(worst, sk.check_l1_bound(p, 0.09, 1.0))
    assert worst <= 1.0
    ok(7, f"accumulated-|xi| ratio stays <= 1 for t >= 1 on all 500 paths "
          f"(worst {worst:.3f})")


def test_criterion_08_example1_settling_study():
    model = sk.make_example1()
    c1, c2 = sk.fit_constants(model, V_NORM, GRAD_NORM, 2.0 / 3.0, box_radius=5.0,
                              n=20000, t_grid=[0.0], seed=42)
    assert c1 > 0
    assert abs(c1 - TWO_23) <= 0.02 * TWO_23
    assert abs(c2 - TWO_23) <= 0.02 * TWO_23
    cert = ex1_certificate()
    proc = sk.make_random_phase_cosine(**EX1_NOISE)
    cfg = sk.McConfig(n_paths=500, master_seed=2024,
                      integrator=sk.IntegratorConfig(h=1e-3, horizon=20.0),
                      h_noise=0.01)
    stats = sk.estimate_settling(model, proc, np.array([1.0, 1.0]), cfg, cert=cert)
    assert stats.settled_fraction >= 0.99
    assert stats.bound_from_certificate == pytest.approx(3.0 / (0.4 * TWO_23), rel=1e-12)
    assert stats.mean - stats.half_width <= stats.bound_from_certificate
    assert stats.bound_satisfied
    ok(8, f"example1 study: fitted (c1, c2) = ({c1:.4f}, {c2:.4f}) ~ 2^(2/3); "
          f"settled {stats.settled_fraction:.3f} >= 0.99, mean T0 {stats.mean:.3f} "
          f"<= bound {stats.bound_from_certificate:.3f}")


def test_criterion_09_example2_settling_study():
    model = sk.get_model("example2-closed")
    cert = ex2_certificate()
    proc = sk.make_filtered_white_noise(**EX2_NOISE)
    cfg = sk.McConfig(n_paths=500, master_seed=2024,
                      integrator=sk.IntegratorConfig(h=1e-3, horizon=20.0),
                      h_noise=0.01)
    stats = sk.estimate_settling(model, proc, np.array([3.0]), cfg, cert=cert)
    expected_bound = 3.0 * math.atan(3.0) ** (2.0 / 3.0)
    assert stats.bound_from_certificate == pytest.approx(expected_bound, rel=1e-9)
    assert stats.settled_fraction >= 0.99
    assert stats.mean - stats.half_width <= stats.bound_from_certificate
    assert stats.bound_satisfied
    ok(9, f"example2 study: settled {stats.settled_fraction:.3f} >= 0.99, "
          f"mean T0 {stats.mean:.3f} <= bound {stats.bound_from_certificate:.3f}")


def test_criterion_10_envelope_coverage():
    model = sk.make_example1()
    cert = ex1_certificate()
    proc = sk.make_random_phase_cosine(**EX1_NOISE)
    cfg = sk.McConfig(n_paths=500, master_seed=2024,
                      integrator=sk.IntegratorConfig(h=1e-3, horizon=20.0),
                      h_noise=0.01)
    cov = sk.envelope_coverage(model, proc, np.array([1.0, 1.0]), cert, cfg)
    assert cov.overall_fraction >= 0.95
    k_ext = int(math.ceil(cov.extinction_time / 1e-3))
    after = cov.per_time_fraction[k_ext:]
    assert np.all(after == 1.0)
    ok(10, f"envelope coverage {cov.overall_fraction:.3f} >= 0.95; per-time "
           f"coverage is 1 for all t >= t_ext = {cov.extinction_time:.3f}")


def test_criterion_11_reproducibility_across_jobs(tmp_path):
    config = {
        "model": "example1",
        "x0": [1.0, 1.0],
        "noise": {"kind": "random-phase-cosine", **{k: v for k, v in
                  zip(("amplitudes", "omegas"), (EX1_NOISE["amplitudes"],
                                                 EX1_NOISE["omegas"]))},
                  "h_noise": 0.01},
        "integrator": {"h": 0.001, "horizon": 10.0},
        "mc": {"n_paths": 100, "master_seed": 2024},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = {}
    # the child imports the settlekit this test imported
    src = os.path.dirname(os.path.dirname(sk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for jobs, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        r = subprocess.run(
            [sys.executable, "-m", "settlekit", "--config", str(cfg_path),
             "settle", "--out", str(out), "--jobs", jobs],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outputs[jobs] = {name: (out / name).read_bytes()
                         for name in ("settle_stats.json", "settle_paths.csv")}
    assert outputs["1"] == outputs["4"]
    ok(11, "settle outputs byte-identical for --jobs 1 and --jobs 4 "
           "(same master seed)")


def test_criterion_12_certificate_gatekeeping(tmp_path):
    with pytest.raises(sk.ConstantConditionError):
        Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM, gamma=2.0 / 3.0,
                    c1=TWO_23, c2=TWO_23, noise_bound=1.0,
                    alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
    from settlekit.cli import main
    config = {
        "model": "example1", "x0": [1.0, 1.0],
        "noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
                  "omegas": [1.0, 2.0], "h_noise": 0.01},
        "certificate": {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                        "K": 1.0, "alpha1": {"a": 0.5, "b": 2},
                        "alpha2": {"a": 0.5, "b": 2}, "V": "half-square-norm"},
        "mc": {"n_paths": 10, "master_seed": 1},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "certify"]) == 1
    ok(12, "constant condition c1 <= 2 c2 sqrt(K) rejected at construction "
           "and by the certify command (exit 1)")
