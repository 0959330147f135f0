"""Tests for certificates, the rate transform, bounds, and envelopes."""

import math

import numpy as np
import pytest

import settlekit as sk
from settlekit.certify import LYAPUNOV_FUNCTIONS, Certificate, Envelope, PowerLaw

TWO_23 = 2.0 ** (2.0 / 3.0)
V_NORM, GRAD_NORM = LYAPUNOV_FUNCTIONS["half-square-norm"]
V_ATAN, GRAD_ATAN = LYAPUNOV_FUNCTIONS["half-square-arctan"]


def quad_cert(dim=2, gamma=0.5, c1=2.0, c2=0.25, k=1.0,
              alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2)):
    return Certificate(state_dim=dim, V=V_NORM, gradV=GRAD_NORM, gamma=gamma,
                       c1=c1, c2=c2, noise_bound=k, alpha1=alpha1, alpha2=alpha2)


def general_rate_cert(gamma):
    return Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN,
                       rate_fn=lambda v, g=gamma: np.asarray(v, dtype=float) ** g,
                       c1=1.0, c2=0.1, noise_bound=0.0,
                       alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))


class TestPowerLaw:
    def test_inverse_round_trip(self):
        p = PowerLaw(0.3, 1.7)
        s = np.logspace(-3, 3, 13)
        assert np.allclose(p.inverse(p(s)), s, rtol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0),
                                     (math.nan, 2.0), (1.0, math.inf)])
    def test_invalid(self, a, b):
        with pytest.raises(ValueError):
            PowerLaw(a, b)


class TestCertificateValidation:
    def test_constant_condition_gatekeeping(self):
        with pytest.raises(sk.ConstantConditionError):
            quad_cert(c1=0.49, c2=0.25, k=1.0)
        with pytest.raises(sk.ConstantConditionError):
            quad_cert(c1=0.5, c2=0.25, k=1.0)     # equality also rejected
        quad_cert(c1=0.51, c2=0.25, k=1.0)

    @pytest.mark.parametrize("constants", [
        {"c1": math.nan}, {"c1": math.inf}, {"c2": math.nan}, {"k": math.nan}],
        ids=["c1-nan", "c1-inf", "c2-nan", "K-nan"])
    def test_constants_must_be_finite(self, constants):
        with pytest.raises(ValueError):
            quad_cert(**constants)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            quad_cert(gamma=1.0)
        with pytest.raises(ValueError):
            quad_cert(gamma=-0.1)
        quad_cert(gamma=0.0)

    def test_rate_given_exactly_one_way(self):
        with pytest.raises(ValueError):
            Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN, c1=1.0, c2=0.1,
                        noise_bound=0.0, alpha1=PowerLaw(0.5, 2),
                        alpha2=PowerLaw(0.5, 2))

    def test_lyapunov_must_vanish(self):
        with pytest.raises(ValueError):
            Certificate(state_dim=1, V=lambda x: 1.0 + V_ATAN(x), gradV=GRAD_ATAN,
                        gamma=0.5, c1=1.0, c2=0.1, noise_bound=0.0,
                        alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))

    def test_alpha_ordering(self):
        with pytest.raises(ValueError):
            quad_cert(alpha1=PowerLaw(1.0, 2), alpha2=PowerLaw(0.5, 2))


class TestTheta:
    def test_zero(self):
        assert sk.theta(quad_cert(), 0.0) == 0.0

    def test_closed_forms(self):
        assert sk.theta(quad_cert(gamma=0.5), 1.0) == pytest.approx(2.0, rel=1e-14)
        assert sk.theta(quad_cert(gamma=2.0 / 3.0), 8.0) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
    def test_quadrature_matches_closed_form(self, gamma, v):
        num = sk.theta(general_rate_cert(gamma), v)
        closed = v ** (1.0 - gamma) / (1.0 - gamma)
        assert abs(num - closed) <= 1e-8

    def test_monotone(self):
        cert = quad_cert(gamma=0.3)
        vals = [sk.theta(cert, v) for v in np.linspace(0.0, 5.0, 21)]
        assert np.all(np.diff(vals) > 0)

    def test_divergent_rate_rejected(self):
        cert = Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN,
                           rate_fn=lambda v: np.asarray(v, dtype=float),
                           c1=1.0, c2=0.1, noise_bound=0.0,
                           alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
        with pytest.raises(sk.RateIntegralError):
            sk.theta(cert, 1.0)

    def test_quadrature_nan_level_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            sk.theta(general_rate_cert(0.5), math.nan)

    @pytest.mark.parametrize("call", [
        lambda cert: sk.theta(cert, math.nan),
        lambda cert: sk.settling_bound(cert, math.nan),
        lambda cert: sk.theta_inverse(cert, math.nan),
        lambda cert: Envelope(cert, 1.0).value(math.nan),
        lambda cert: Envelope(cert, math.nan),
    ], ids=["theta", "settling_bound", "theta_inverse", "envelope_value",
            "envelope_x0_norm"])
    @pytest.mark.parametrize("cert", [quad_cert(gamma=0.5), general_rate_cert(0.5)],
                             ids=["power", "general"])
    def test_nan_argument_rejected(self, call, cert):
        # one rule for both rates: NaN fails the "nonnegative" check
        with pytest.raises(ValueError, match="must be nonnegative, got nan"):
            call(cert)

    def test_quadrature_infinite_level_is_infinite(self):
        # as the power rate gives: v ** (1 - gamma) / (1 - gamma) at v = inf
        assert sk.theta(general_rate_cert(0.5), math.inf) == math.inf
        assert sk.theta(quad_cert(gamma=0.5), math.inf) == math.inf

    @pytest.mark.parametrize("v", [5e-324, 1e-305])
    def test_quadrature_level_below_its_range_rejected(self, v):
        with pytest.raises(sk.RateIntegralError, match=f"{v:g}.*range"):
            sk.theta(general_rate_cert(0.5), v)


class TestThetaInverse:
    def test_zero(self):
        assert sk.theta_inverse(quad_cert(), 0.0) == 0.0

    def test_closed_form(self):
        assert sk.theta_inverse(quad_cert(gamma=0.5), 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_round_trip_power_law(self):
        cert = quad_cert(gamma=0.25)
        for v in (0.0, 1e-3, 0.37, 1.0, 42.0, 100.0):
            assert abs(sk.theta_inverse(cert, sk.theta(cert, v)) - v) <= 1e-10

    def test_round_trip_general(self):
        cert = general_rate_cert(0.5)
        for v in (0.37, 5.0):
            assert abs(sk.theta_inverse(cert, sk.theta(cert, v)) - v) <= 1e-10


class TestVerifySandwich:
    def test_equality_margins_vanish(self):
        lower, upper = sk.verify_sandwich(quad_cert(), box_radius=3.0, n=500,
                                          tol=1e-9, seed=1)
        assert abs(lower.worst_margin) <= 1e-12
        assert abs(upper.worst_margin) <= 1e-12
        assert lower.passed and upper.passed

    def test_strict_containment(self):
        cert = quad_cert(alpha1=PowerLaw(0.25, 2), alpha2=PowerLaw(1.0, 2))
        lower, upper = sk.verify_sandwich(cert, box_radius=3.0, n=500, tol=1e-9,
                                          seed=1)
        assert lower.passed and upper.passed and lower.worst_margin > 0

    def test_arctan_contraction(self):
        ok = Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN, gamma=2.0 / 3.0,
                         c1=1.0, c2=0.1, noise_bound=0.0,
                         alpha1=PowerLaw(1.0 / 32.0, 2), alpha2=PowerLaw(0.5, 2))
        lower, upper = sk.verify_sandwich(ok, box_radius=5.0, n=2000, tol=1e-6,
                                          seed=11)
        assert lower.passed and upper.passed
        bad = Certificate(state_dim=1, V=V_ATAN, gradV=GRAD_ATAN, gamma=2.0 / 3.0,
                          c1=1.0, c2=0.1, noise_bound=0.0,
                          alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
        lower2, _ = sk.verify_sandwich(bad, box_radius=5.0, n=2000, tol=1e-6,
                                       seed=11)
        assert not lower2.passed
        assert len(lower2.violations) > 0


class TestVerifyDrift:
    def test_example1_certificate(self):
        # grad V . f <= -(x1^2+x2^2)^(2/3) = -2^(2/3) V^(2/3), so c1 = 1 holds
        # with slack; the gain bound c2 = 2^(2/3) is tight on the axes
        cert = quad_cert(gamma=2.0 / 3.0, c1=1.0, c2=TWO_23, k=0.0)
        drift, gain = sk.verify_drift(cert, sk.make_example1(), box_radius=5.0,
                                      n=4000, t_grid=[0.0], tol=1e-9, seed=5)
        assert drift.passed and gain.passed
        assert drift.worst_margin >= 0.0
        assert abs(gain.worst_margin) <= 1e-9

    def test_general_rate_gives_the_power_rate_report(self):
        rates = []

        def rate_fn(v):
            rates.append(v)
            return np.asarray(v, dtype=float) ** (2.0 / 3.0)

        reports = [sk.verify_drift(
            Certificate(state_dim=2, V=V_NORM, gradV=GRAD_NORM, c1=1.0,
                        c2=TWO_23, noise_bound=0.0, alpha1=PowerLaw(0.5, 2),
                        alpha2=PowerLaw(0.5, 2), **rate),
            sk.make_example1(), box_radius=5.0, n=500, t_grid=[0.0, 1.0],
            tol=1e-9, seed=5) for rate in ({"gamma": 2.0 / 3.0},
                                           {"rate_fn": rate_fn})]
        assert len(rates) == 1
        assert reports[0] == reports[1]
        assert all(rep.passed for rep in reports[1])

    def test_nan_drift_fails(self):
        # f = -x^(1/3) gives the drift margin (1 - 2^(-2/3)) |x|^(4/3) >= 0
        # wherever f is finite
        m = sk.SystemModel(n=1, l=1,
                           f=lambda x, t: np.where(x > 1.0, np.nan, -np.cbrt(x)),
                           g=lambda x, t: np.zeros(x.shape + (1,)))
        drift, gain = sk.verify_drift(
            quad_cert(dim=1, gamma=2.0 / 3.0, c1=1.0, k=0.0), m, box_radius=2.0,
            n=200, t_grid=[0.0, 1.0], tol=1e-9, seed=1)
        assert math.isnan(drift.worst_margin)
        assert not drift.passed and not (drift.passed and gain.passed)
        assert gain.passed

    def test_margin_zero_at_origin(self):
        cert = quad_cert(gamma=2.0 / 3.0, c1=1.0, c2=1.0, k=0.0)
        x0 = np.zeros((1, 2))
        m = sk.make_example1()
        lie = float(np.einsum("...i,...i->...", cert.gradV(x0), m.f(x0, 0.0))[0])
        assert lie + cert.c1 * float(cert.rate(cert.V(x0))[0]) == 0.0


class TestSettlingBound:
    def test_zero_level(self):
        assert sk.settling_bound(quad_cert(), 0.0) == 0.0

    def test_closed_form_example(self):
        cert = quad_cert(gamma=0.5, c1=2.0, c2=0.25, k=1.0)
        assert sk.settling_bound(cert, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_example1_numbers(self):
        cert = quad_cert(gamma=2.0 / 3.0, c1=TWO_23, c2=TWO_23, k=0.09)
        expected = 3.0 / (0.4 * TWO_23)
        assert sk.settling_bound(cert, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_scaling_in_initial_level(self):
        cert = quad_cert(gamma=0.25, c1=3.0, c2=0.1, k=0.5)
        for v0 in (0.2, 1.0, 7.0):
            ratio = sk.settling_bound(cert, 2.0 * v0) / sk.settling_bound(cert, v0)
            assert ratio == pytest.approx(2.0 ** 0.75, rel=1e-13)


class TestDecayEnvelope:
    def test_identity_at_start(self):
        cert = quad_cert(gamma=0.5, c1=2.0, c2=0.25, k=1.0)
        x0 = math.sqrt(2.0)
        assert Envelope(cert, x0).value(0.0) == pytest.approx(x0, abs=1e-12)

    def test_extinction_exact_zero(self):
        cert = quad_cert(gamma=0.5, c1=2.0, c2=0.25, k=1.0)
        env = Envelope(cert, 1.5)
        assert env.value(env.t_ext) == 0.0
        assert env.value(env.t_ext + 2.0) == 0.0

    def test_composed_value(self):
        # rate 1.5, alpha1 = alpha2 = s^2/2, x0 = sqrt(2): theta0 = 2 and the
        # envelope after one unit is sqrt(2 * 0.0625) = sqrt(0.125)
        cert = quad_cert(gamma=0.5, c1=1.5, c2=0.5, k=0.0)
        assert cert.decay_rate == pytest.approx(1.5)
        val = Envelope(cert, math.sqrt(2.0)).value(1.0)
        assert val == pytest.approx(math.sqrt(0.125), abs=1e-12)

    def test_nonincreasing(self):
        cert = quad_cert(gamma=0.3, c1=1.0, c2=0.2, k=0.25)
        env = Envelope(cert, 2.0)
        ts = np.linspace(0.0, env.t_ext * 1.2, 60)
        vals = [env.value(t) for t in ts]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_negative_arguments_raise(self):
        cert = quad_cert(gamma=0.5, c1=2.0, c2=0.25, k=1.0)
        with pytest.raises(ValueError, match="x0_norm"):
            Envelope(cert, -1.0)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            Envelope(cert, 1.5).value(-0.1)


class TestFitConstants:
    def test_scalar_cube_root_system(self):
        # x' = -x^(1/3): -x f(x) / (x^2/2)^(2/3) = 2^(2/3) at every sample
        m = sk.SystemModel(n=1, l=1,
                           f=lambda x, t: -np.cbrt(x),
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="cbrt")
        c1, c2 = sk.fit_constants(m, V_NORM, GRAD_NORM, 2.0 / 3.0, box_radius=2.0,
                                  n=2000, t_grid=[0.0], seed=3)
        assert c1 > 0
        assert c1 == pytest.approx(TWO_23, rel=1e-12)
        assert c2 == 0.0

    def test_example2_closed_exact_ratios(self):
        m = sk.get_model("example2-closed")
        c1, c2 = sk.fit_constants(m, V_ATAN, GRAD_ATAN, 2.0 / 3.0, box_radius=5.0,
                                  n=2000, t_grid=[0.0], seed=3)
        assert c1 == pytest.approx(TWO_23, rel=1e-9)
        assert c2 == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-9)

    def test_zero_gain_scale(self):
        closed = sk.get_model("example2-closed")
        m = sk.SystemModel(n=1, l=1, f=closed.f,
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="no-noise")
        _, c2 = sk.fit_constants(m, V_ATAN, GRAD_ATAN, 2.0 / 3.0, box_radius=2.0,
                                 n=500, t_grid=[0.0], seed=3)
        assert c2 == 0.0

    def test_uncertifiable_candidate(self):
        m = sk.SystemModel(n=1, l=1, f=lambda x, t: x,
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="grow")
        c1, _ = sk.fit_constants(m, V_NORM, GRAD_NORM, 0.5, box_radius=2.0,
                                 n=500, t_grid=[0.0], seed=3)
        assert not c1 > 0
