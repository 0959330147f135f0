"""Tests for the Osgood divergence probe off the decade grid and for the
running sums it reports."""

import math

import numpy as np
import pytest

import settlekit as sk
from settlekit.systems import Modulus

# the truncated rho integral I(delta) over [delta, gamma] in closed form
CLOSED_FORMS = {
    "linear": (Modulus.linear(1.0), lambda g, d: math.log(g / d)),
    "root-half": (Modulus.root(1.0, 0.5),
                  lambda g, d: 2.0 * (math.sqrt(g) - math.sqrt(d))),
    "log-osgood": (Modulus.log_osgood(1.0),
                   lambda g, d: math.log(math.log(1.0 / d) / math.log(1.0 / g))),
}

MODULI = [Modulus.linear(1.0), Modulus.linear(3.0), Modulus.root(1.0, 0.5),
          Modulus.root(1.0, 0.3), Modulus.log_osgood(1.0),
          Modulus.linear(1.0) + Modulus.log_osgood(0.5)]


@pytest.mark.parametrize("gamma_upper", [0.5, 0.05])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_off_the_decade_grid(name, gamma_upper):
    # the first segment runs from gamma_upper to the first delta below it,
    # which is not one decade long
    modulus, closed = CLOSED_FORMS[name]
    rep = sk.check_osgood_divergence(modulus, modulus, gamma_upper)
    assert rep.deltas[0] < gamma_upper < 10.0 * rep.deltas[0]
    for d, val in zip(rep.deltas, rep.rho_integral):
        assert val == pytest.approx(closed(gamma_upper, d), rel=0, abs=1e-12)


@pytest.mark.parametrize("gamma_upper", [0.5, 0.2, 0.05, 0.011])
def test_truncated_integrals_never_decrease(gamma_upper):
    for rho in MODULI:
        for kappa in MODULI:
            rep = sk.check_osgood_divergence(kappa, rho, gamma_upper)
            for integral in (rep.rho_integral, rep.combined_integral):
                assert integral[0] > 0 and np.all(np.diff(integral) >= 0)


@pytest.mark.parametrize("gamma_upper", [1.0, 0.5, 0.05])
def test_linear_modulus_adds_ln_10_per_decade(gamma_upper):
    rep = sk.check_osgood_divergence(Modulus.linear(1.0), Modulus.linear(1.0),
                                     gamma_upper)
    assert rep.rho_diverging
    increments = np.diff(rep.rho_integral)
    assert len(increments) == len(rep.deltas) - 1
    assert np.all(np.abs(increments - math.log(10.0)) <= 1e-12)


@pytest.mark.parametrize("gamma_upper", [math.nan, math.inf])
def test_gamma_upper_must_be_positive_and_finite(gamma_upper):
    # the probe cuts its range at ln(1/gamma_upper)
    with pytest.raises(ValueError, match="gamma_upper must be positive and finite"):
        sk.check_osgood_divergence(Modulus.linear(1.0), Modulus.linear(1.0),
                                   gamma_upper)
