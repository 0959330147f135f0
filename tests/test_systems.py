"""Tests for the built-in models and structural condition checks."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import settlekit as sk
from settlekit.systems import Modulus, make_unstable_cubic


class TestSignedPower:
    def test_zero(self):
        assert sk.signed_power(0.0, 1.0 / 3.0) == 0.0

    def test_negative_cube_root(self):
        assert sk.signed_power(-8.0, 1.0 / 3.0) == pytest.approx(-2.0, abs=1e-12)

    def test_four_thirds(self):
        # 8^(4/3) = 8 * 8^(1/3) = 16
        assert sk.signed_power(8.0, 4.0 / 3.0) == pytest.approx(16.0, rel=1e-14)

    def test_odd(self):
        x = np.linspace(-3, 3, 41)
        for p in (0.5, 1.0 / 3.0, 1.5):
            assert np.allclose(sk.signed_power(-x, p), -sk.signed_power(x, p))

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            sk.signed_power(1.0, 0.0)


class TestExample1:
    def setup_method(self):
        self.m = sk.make_example1()

    def test_vanishes_at_origin(self):
        zero = np.zeros(2)
        for t in (0.0, 1.0, 10.0):
            assert np.all(self.m.f(zero, t) == 0.0)
            assert np.all(self.m.g(zero, t) == 0.0)

    def test_drift_value(self):
        f = self.m.f(np.array([1.0, 0.0]), 0.0)
        assert f[0] == pytest.approx(-1.5, abs=1e-15)
        assert f[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gain_signed_cube_roots(self):
        g = self.m.g(np.array([1.0, -8.0]), 0.0)
        assert np.allclose(g, np.diag([1.0, -2.0]), atol=1e-14)

    def test_batch_broadcast(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert self.m.f(x, 0.0).shape == (10, 2)
        assert self.m.g(x, 0.0).shape == (10, 2, 2)

    def test_axis_restricted_oddness(self):
        for x1 in (0.3, 1.7):
            a = self.m.f(np.array([x1, 0.0]), 0.0)
            b = self.m.f(np.array([-x1, 0.0]), 0.0)
            assert np.allclose(a, -b)


class TestExample2:
    def test_open_loop_origin(self):
        m = sk.make_example2()
        assert m.f(np.zeros(1), 0.0)[0] == 0.0
        assert m.g(np.zeros(1), 0.0)[0, 0] == 0.0

    def test_gain_value(self):
        m = sk.make_example2()
        expected = 0.5 * 2.0 * (math.pi / 4.0) ** (1.0 / 3.0)
        assert m.g(np.array([1.0]), 0.0)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_open_loop_drift_value(self):
        m = sk.make_example2()
        expected = 3.0 * (math.pi / 4.0) ** 2 / 2.0 - 0.5
        assert m.f(np.array([1.0]), 0.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_controller_zero_at_origin(self):
        assert sk.stabilizing_controller(0.0) == 0.0

    def test_closed_loop_identity_spot_values(self):
        # dV/dx f(x) = -|arctan x|^(4/3) with V = (arctan x)^2 / 2
        m = sk.get_model("example2-closed")

        def lie(x):
            xv = np.array([x])
            grad = np.arctan(x) / (1.0 + x * x)
            return grad * m.f(xv, 0.0)[0]

        assert lie(1.0) == pytest.approx(-(math.pi / 4.0) ** (4.0 / 3.0), abs=1e-12)
        assert lie(-3.0) == pytest.approx(-abs(math.atan(-3.0)) ** (4.0 / 3.0), abs=1e-12)

    def test_closed_loop_identities_on_grid(self):
        m = sk.get_model("example2-closed")
        x = np.linspace(-10.0, 10.0, 1001)
        grad = np.arctan(x) / (1.0 + x * x)
        lie_f = grad * m.f(x[:, None], 0.0)[:, 0]
        lie_g = grad * m.g(x[:, None], 0.0)[:, 0, 0]
        target = np.abs(np.arctan(x)) ** (4.0 / 3.0)
        assert np.max(np.abs(lie_f + target)) <= 1e-9
        assert np.max(np.abs(lie_g - 0.5 * target)) <= 1e-9

    def test_closed_loop_oddness(self):
        m = sk.get_model("example2-closed")
        x = np.linspace(0.1, 8.0, 25)[:, None]
        assert np.allclose(m.f(-x, 0.0), -m.f(x, 0.0), atol=1e-12)

    @staticmethod
    def closed_loop_reference(z, xi):
        """The reduced closed-loop field (1+z^2)(arctan z)^(1/3)(xi/2 - 1)
        evaluated in long double."""
        assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
        zl, xil = z.astype(np.longdouble), xi.astype(np.longdouble)
        return (1 + zl * zl) * np.cbrt(np.arctan(zl)) * (xil / 2 - 1)

    @staticmethod
    def closed_loop_samples():
        """20,000 states at scales 1e-300 to 1e150 with noise at 1e-3 to
        1e3, and 20,000 with noise within 0.1 of 2, where f + g xi cancels."""
        rng = np.random.default_rng(2024)
        z = np.concatenate([
            rng.standard_normal(20000) * 10.0 ** rng.uniform(-300, 150, 20000),
            rng.standard_normal(20000) * 10.0 ** rng.uniform(-3, 3, 20000)])
        xi = np.concatenate([
            rng.standard_normal(20000) * 10.0 ** rng.uniform(-3, 3, 20000),
            2.0 + rng.standard_normal(20000) * 10.0 ** rng.uniform(-15, -1, 20000)])
        return z, xi

    def test_closed_loop_field_is_within_8_ulp(self):
        # the integrators evaluate the reduced form; against its long-double
        # value every finite sample is within 8 ulp, and every special value
        # lands in the class (finite, +inf, -inf, NaN) of the long-double
        # value rounded to double
        m = sk.get_model("example2-closed")
        z, xi = self.closed_loop_samples()
        ref = self.closed_loop_reference(z, xi)
        ulp = np.spacing(np.abs(ref.astype(float))).astype(np.longdouble)
        a = m.field(z[:, None], 0.0, xi[:, None])
        assert a.shape == (z.size, 1)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a[:, 0] - ref) / ulp) <= 8.0
        for i in range(0, z.size, 400):
            b = m.field(z[i:i + 1], 0.0, xi[i:i + 1])
            assert b.shape == (1,)
            assert np.array_equal(b.view(np.uint64), a[i].view(np.uint64))

        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         1e154, -1e154, 1e308, -1e308])
        ones = np.ones(edge.size)
        z, xi = np.concatenate([edge, ones]), np.concatenate([ones, edge])

        def kind(v):
            return np.where(np.isnan(v), 2, np.where(np.isinf(v), np.sign(v), 0))

        with np.errstate(all="ignore"):
            expected = kind(self.closed_loop_reference(z, xi).astype(float))
            a = m.field(z[:, None], 0.0, xi[:, None])
            assert np.array_equal(kind(a[:, 0]), expected)
            for i in range(z.size):
                b = m.field(z[i:i + 1], 0.0, xi[i:i + 1])
                assert b.shape == (1,)
                assert kind(b[0]) == expected[i]

    def test_closed_loop_evaluators_describe_the_integrated_field(self):
        # certify reads f and g, which give the drift, controller and gain
        # term by term; their sum cancels, so it is held to eps times the
        # sum of the magnitudes of its terms rather than to ulps of the
        # result
        m = sk.get_model("example2-closed")
        z, xi = self.closed_loop_samples()
        x = z[:, None]
        gain = m.g(x, 0.0)[:, 0, 0]
        total = m.f(x, 0.0)[:, 0] + gain * xi
        a, one_p = np.arctan(z), 1.0 + z * z
        scale = (np.abs(3.0 * z * a * a / one_p)
                 + np.abs(sk.stabilizing_controller(z))
                 + np.abs(z / one_p) + np.abs(gain * xi))
        err = np.abs(total - self.closed_loop_reference(z, xi))
        assert np.all(np.isfinite(total))
        assert np.all(err <= 8.0 * np.finfo(float).eps * scale)

    def test_fused_example1_field_has_the_unfused_bits(self):
        # simulate and settle integrate field_fn while certify checks f and
        # g.  The noise is finite only, as every sampled path is: on the
        # unfused path the gain's off-diagonal 0 times an infinite or NaN
        # channel puts a NaN in the other component.  Single rows go in as
        # batches of one, the shape the kernel passes for one path (a 1-D
        # NaN state gives a NaN of the other sign on the fused path).
        fused = sk.make_example1()
        unfused = replace(fused, field_fn=None)

        def same_bits(x, xi):
            a = fused.field(x, 0.0, xi)
            b = unfused.field(x, 0.0, xi)
            assert a.shape == x.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

        rng = np.random.default_rng(2024)
        x = rng.standard_normal((20000, 2)) * 10.0 ** rng.uniform(-200, 5, (20000, 2))
        xi = rng.standard_normal((20000, 2)) * 10.0 ** rng.uniform(-3, 3, (20000, 2))
        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         1e154, -1e154, 1e308, -1e308])
        # all 121 ordered pairs of edge values, and each edge value beside a 1
        values = np.append(edge, 1.0)
        special = np.stack(np.meshgrid(values, values, indexing="ij"), axis=-1).reshape(-1, 2)
        # each special row with noise of both signs: a zero state component
        # times negative noise is -0, and f + g xi never gives -0
        noise = rng.standard_normal(special.shape)
        x = np.concatenate([x, special, special])
        xi = np.concatenate([xi, noise, -noise])
        with np.errstate(all="ignore"):
            same_bits(x, xi)
            # the widths a shrinking active set passes through
            for rows in (1, 2, 50, 500, 1000):
                for start in (0, x.shape[0] - rows):
                    same_bits(x[start:start + rows], xi[start:start + rows])
            for i in [*range(0, 20000, 50), *range(20000, x.shape[0])]:
                same_bits(x[i:i + 1], xi[i:i + 1])
            # leading axes broadcast through the per-column constants
            same_bits(x[:20].reshape(4, 5, 2), xi[:20].reshape(4, 5, 2))
            same_bits(x[-20:].reshape(4, 5, 2), xi[-20:].reshape(4, 5, 2))

    @pytest.mark.parametrize("figure,sha256", [
        ("fig1", "e0f2fc0a58dc2014c476c50ebd50e6a2563a50f955baa589080f0585e8c04ed5"),
        ("fig2", "559fcd4c62ff196f7c7d7d7fd0a8860372bf28e50a86dcd2809f083430496e1d"),
        ("fig3", "728d71ee94465ed9f0cdd4edf35fc62b4021c4962e9663418160a5d2c7695e03"),
    ])
    def test_figures_keep_their_bytes(self, tmp_path, figure, sha256):
        # digests of the figure CSVs written by the hand-written figure
        # pipeline; fig2 and fig3 integrate example2-closed's reduced field
        path = sk.reproduce_figure(figure, tmp_path)[0]
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == sha256


class TestRegistry:
    @pytest.mark.parametrize("name,n", [
        ("example1", 2), ("example2-open", 1), ("example2-closed", 1),
        ("unstable-cubic", 1),
    ])
    def test_known_names(self, name, n):
        m = sk.get_model(name)
        assert m.n == n and m.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            sk.get_model("nope")


class TestConditionReport:
    def test_from_margins_is_time_major_and_keeps_ten(self):
        margins = np.full((3, 6), 1.0)
        margins[0, 4:] = margins[1] = margins[2, 0] = -1.0
        rep = sk.ConditionReport.from_margins(margins, 1e-9, lambda i, j: (i, j))
        assert rep.n_samples == 18 and rep.worst_margin == -1.0
        assert rep.violations == ((0, 4), (0, 5)) + tuple((1, j) for j in range(6)) \
            + ((2, 0),)
        margins[2] = -1.0
        rep = sk.ConditionReport.from_margins(margins, 1e-9, lambda i, j: (i, j))
        assert len(rep.violations) == 10 and rep.violations[-1] == (2, 1)

    def test_one_dimensional_margins_are_one_time(self):
        rep = sk.ConditionReport.from_margins([0.5, -2.0, 1e-10 - 1e-9], 1e-9,
                                              lambda i, j: (i, j))
        assert rep.n_samples == 3 and rep.violations == ((0, 1),)
        assert rep.worst_margin == -2.0 and not rep.passed

    def test_nan_margin_fails(self):
        rep = sk.ConditionReport.from_margins([1.0, math.nan], 1e-9,
                                              lambda i, j: (i, j))
        assert math.isnan(rep.worst_margin) and not rep.passed


class TestCheckOrigin:
    @pytest.mark.parametrize("name", ["example1", "example2-closed", "example2-open"])
    def test_builtin_models_pass(self, name):
        rep = sk.check_origin(sk.get_model(name), [0.0, 0.5, 2.0], tol=1e-15)
        assert rep.passed

    def test_constructed_failure(self):
        bad = sk.SystemModel(
            n=2, l=1,
            f=lambda x, t: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy(),
            g=lambda x, t: np.zeros(x.shape + (1,)), name="offset")
        rep = sk.check_origin(bad, [0.0, 1.0, 2.0], tol=1e-12)
        assert not rep.passed
        assert len(rep.violations) == 3
        assert rep.to_dict()["violations"][1] == ((0.0, 0.0), 1.0)

    @pytest.mark.parametrize("nan_in", ["f", "g"])
    def test_nan_at_the_origin_fails(self, nan_in):
        # finite at t = 0, where SystemModel checks the origin; NaN later
        def late_nan(t):
            return np.nan if t > 0.5 else 0.0

        f = (lambda x, t: -x + late_nan(t)) if nan_in == "f" else (lambda x, t: -x)
        g = ((lambda x, t: np.zeros(x.shape + (1,)) + late_nan(t)) if nan_in == "g"
             else (lambda x, t: np.zeros(x.shape + (1,))))
        rep = sk.check_origin(sk.SystemModel(n=1, l=1, f=f, g=g), [0.0, 1.0],
                              tol=1e-9)
        assert math.isnan(rep.worst_margin) and not rep.passed


class TestModulus:
    def test_families(self):
        assert Modulus.linear(2.0)(0.5) == pytest.approx(1.0)
        assert Modulus.root(3.0, 0.5)(0.25) == pytest.approx(1.5)
        lo = Modulus.log_osgood(1.0)
        assert lo(0.0) == 0.0
        assert lo(0.1) == pytest.approx(0.1 * math.log(10.0))

    def test_sum_of_terms(self):
        mod = Modulus.root(4.0, 1.0 / 3.0) + Modulus.linear(2.0)
        assert mod(0.125) == pytest.approx(4.0 * 0.5 + 0.25)

    @pytest.mark.parametrize("ctor", [
        lambda: Modulus.linear(0.0),
        lambda: Modulus.root(1.0, 1.5),
        lambda: Modulus.root(1.0, 0.0),
    ])
    def test_invalid(self, ctor):
        with pytest.raises(ValueError):
            ctor()


class TestCheckOsgood:
    def test_linear_system_equality_margin(self):
        # f = -x with kappa(u) = u gives margin exactly 0 at every pair
        m = sk.SystemModel(n=1, l=1, f=lambda x, t: -x,
                           g=lambda x, t: np.zeros(x.shape + (1,)), name="lin")
        f_cond, g_cond = sk.check_osgood(m, Modulus.linear(1.0), Modulus.linear(1.0),
                                         box_radius=2.0, n_pairs=200, t_grid=[0.0],
                                         tol=1e-12, seed=5)
        assert f_cond.worst_margin == 0.0
        assert f_cond.passed and g_cond.passed

    @pytest.mark.parametrize("nan_in", ["f", "g"])
    def test_nan_on_part_of_the_box_fails(self, nan_in):
        # f = -x and g = 0, except NaN in one of them where x > 1; with
        # linear moduli every finite margin is >= 0
        f = lambda x, t: np.where(x > 1.0, np.nan, -x) if nan_in == "f" else -x
        g = lambda x, t: np.where((x[..., None] > 1.0) & (nan_in == "g"), np.nan, 0.0)
        f_cond, g_cond = sk.check_osgood(
            sk.SystemModel(n=1, l=1, f=f, g=g), Modulus.linear(1.0),
            Modulus.linear(1.0), box_radius=2.0, n_pairs=200, t_grid=[0.0],
            tol=1e-12, seed=5)
        bad, good = (f_cond, g_cond) if nan_in == "f" else (g_cond, f_cond)
        assert math.isnan(bad.worst_margin) and not bad.passed
        assert good.passed and not (f_cond.passed and g_cond.passed)

    def test_example1_candidate_moduli_pass(self):
        m = sk.make_example1()
        f_cond, g_cond = sk.check_osgood(
            m, Modulus.root(4.0, 1.0 / 3.0) + Modulus.linear(2.0),
            Modulus.root(8.0, 1.0 / 3.0) + Modulus.linear(4.0), box_radius=2.0,
            n_pairs=20000, t_grid=[0.0], tol=1e-9, seed=3)
        assert f_cond.passed and g_cond.passed
        assert f_cond.worst_margin > 0.5

    def test_margin_symmetric_under_swap(self):
        m = sk.make_example1()
        kappa = Modulus.root(4.0, 1.0 / 3.0) + Modulus.linear(2.0)
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-2, 2, size=(50, 2))
        x2 = rng.uniform(-2, 2, size=(50, 2))
        d12 = np.linalg.norm(x1 - x2, axis=1)
        d21 = np.linalg.norm(x2 - x1, axis=1)
        m12 = kappa(d12) - np.linalg.norm(m.f(x1, 0.0) - m.f(x2, 0.0), axis=1)
        m21 = kappa(d21) - np.linalg.norm(m.f(x2, 0.0) - m.f(x1, 0.0), axis=1)
        assert np.array_equal(m12, m21)


class TestOsgoodDivergence:
    def test_linear_modulus_diverges_logarithmically(self):
        rep = sk.check_osgood_divergence(Modulus.linear(1.0), Modulus.linear(1.0), 1.0)
        assert rep.rho_diverging
        # I(delta) = ln(gamma/delta)
        for d, val in zip(rep.deltas, rep.rho_integral):
            assert val == pytest.approx(math.log(1.0 / d), abs=1e-8)

    def test_square_root_modulus_converges(self):
        rep = sk.check_osgood_divergence(Modulus.root(1.0, 0.5),
                                         Modulus.root(1.0, 0.5), 1.0)
        assert not rep.rho_diverging
        assert not rep.combined_diverging
        # I(delta) = 2 (sqrt(gamma) - sqrt(delta))
        assert rep.rho_integral[-1] == pytest.approx(
            2.0 * (1.0 - math.sqrt(rep.deltas[-1])), abs=1e-8)

    def test_log_osgood_modulus_diverges(self):
        rep = sk.check_osgood_divergence(Modulus.log_osgood(1.0),
                                         Modulus.log_osgood(1.0), 0.1)
        assert rep.rho_diverging
        # I(delta) = ln ln(1/delta) - ln ln(10) for gamma = 0.1
        for d, val in zip(rep.deltas, rep.rho_integral):
            expected = math.log(math.log(1.0 / d) / math.log(10.0))
            assert val == pytest.approx(expected, abs=1e-8)

    def test_modulus_vanishing_at_gamma_upper_is_rejected(self):
        # u ln(1/u) is 0 at u = 1, so 1/rho is not integrable up to it
        with pytest.raises(ValueError, match="positive at gamma_upper=1"):
            sk.check_osgood_divergence(Modulus.log_osgood(1.0),
                                       Modulus.log_osgood(1.0), 1.0)


def test_unstable_cubic_grows():
    m = make_unstable_cubic()
    assert m.f(np.array([2.0]), 0.0)[0] == 8.0


def test_osgood_violation_is_located_by_its_pair_and_time():
    # example1's cube-root drift is not Lipschitz with constant 1e-3: each
    # violation gives its pair (x1, x2) and time, where the margin is negative
    m = sk.make_example1()
    kappa = Modulus.linear(1e-3)
    f_cond, _ = sk.check_osgood(m, kappa, kappa, 1.0, 20, [0.0], 1e-6, 0)
    assert not f_cond.passed and len(f_cond.violations) == 10
    for x1, x2, t in f_cond.violations:
        x1, x2 = np.array(x1), np.array(x2)
        assert x1.shape == x2.shape == (2,) and t == 0.0
        df = np.linalg.norm(m.f(x1, t) - m.f(x2, t))
        assert kappa(np.linalg.norm(x1 - x2)) - df < -1e-6


def _model(f, g=lambda x, t: np.zeros(np.shape(x) + (1,))):
    return lambda: sk.SystemModel(n=1, l=1, f=f, g=g)


class TestInputChecks:
    @pytest.mark.parametrize("call,match", [
        (_model(lambda x, t: np.zeros(2)),
         r"evaluator shapes inconsistent with n=1, l=1: f -> \(2,\)"),
        (_model(lambda x, t: np.zeros(1), lambda x, t: np.zeros((1, 1))),
         "evaluators must broadcast over leading batch axes"),
        (_model(lambda x, t: np.full(np.shape(x), np.nan)),
         "evaluators returned non-finite values at the origin"),
        (lambda: Modulus([("cubic", 1.0, 0.5)]), "unknown modulus term kind: cubic"),
        (lambda: Modulus([("root", 1.0, 1e-300)]),
         r"modulus must be strictly increasing on \(0, 0.3\]"),
        (lambda: sk.check_origin(sk.make_example1(), [0.0], 0.0),
         "tol must be positive"),
        (lambda: sk.check_osgood(sk.make_example1(), Modulus.linear(1.0),
                                 Modulus.linear(1.0), 1.0, 0, [0.0], 1e-6, 0),
         "n_pairs must be >= 1"),
        (lambda: sk.check_osgood_divergence(Modulus.linear(1.0),
                                            Modulus.linear(1.0), 1e-11),
         "gamma_upper too small to probe divergence"),
    ], ids=["evaluator-shapes", "no-batch-broadcast", "not-finite-at-origin",
            "modulus-kind", "modulus-not-increasing", "origin-tol-0",
            "osgood-no-pairs", "gamma_upper-too-small"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
