"""Finite-time certificates: sandwich bounds, drift/gain inequalities, the
rate transform theta, settling-time bounds, and the decay envelope.

A certificate packages a Lyapunov function V with a rate r and constants
(c1, c2, K) asserting, for the forced system xdot = f + g xi with
sup E|xi|^2 < K:

    alpha1(|x|) <= V(x) <= alpha2(|x|)
    gradV(x) . f(x,t) <= -c1 r(V(x)),   |gradV(x) . g(x,t)| <= c2 r(V(x))

with the standing constant condition c1 > 2 c2 sqrt(K).  The transform
theta(v) = integral_0^v dv'/r(v') is finite at finite v when 1/r is
integrable at 0; its inverse drives the finite-extinction envelope

    envelope(dt) = alpha1^-1( theta^-1( theta(alpha2(|x0|)) - (c1 - 2 c2 sqrt(K)) dt ) )

which reaches exactly 0 at dt = theta(alpha2(|x0|)) / (c1 - 2 c2 sqrt(K)),
and the expected-settling-time bound theta(V(x0)) / (c1 - 2 c2 sqrt(K)).

The default rate is the power family r(v) = v^gamma with 0 <= gamma < 1,
for which theta and its inverse are closed-form; a general rate evaluator is
admitted with quadrature fallbacks and a heuristic integrability check.
Class-K-infinity bounds are restricted to power laws a*s^b so the envelope
stays in closed form.

The sampled checks return what they measured: ``verify_sandwich`` the
``ConditionReport``s ``(lower, upper)``, ``verify_drift`` ``(drift, gain)``
and ``fit_constants`` the floats ``(c1, c2)``; a pair of conditions holds
when both reports have ``passed``.  ``settling_bound_at`` is the one
evaluation of the bound at an initial state, for ``certify`` and the
settling study alike; it reads inf when V(x0) overflows, a bound that no
check accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConstantConditionError, RateIntegralError
from .systems import ConditionReport, SystemModel, log_quad


@dataclass(frozen=True)
class PowerLaw:
    """s -> a * s^b on s >= 0; strictly increasing with closed-form inverse."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("power law needs finite a > 0 and b > 0")

    def __call__(self, s):
        return self.a * np.asarray(s, dtype=float) ** self.b

    def inverse(self, y):
        return (np.asarray(y, dtype=float) / self.a) ** (1.0 / self.b)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b}


def _half_square_norm_v(x):
    return 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def _half_square_norm_grad(x):
    return np.asarray(x, dtype=float)


def _half_square_arctan_v(x):
    a = np.arctan(np.asarray(x, dtype=float)[..., 0])
    return 0.5 * a * a


def _half_square_arctan_grad(x):
    z = np.asarray(x, dtype=float)[..., 0]
    return (np.arctan(z) / (1.0 + z * z))[..., None]


LYAPUNOV_FUNCTIONS = {
    "half-square-norm": (_half_square_norm_v, _half_square_norm_grad),
    "half-square-arctan": (_half_square_arctan_v, _half_square_arctan_grad),
}


@dataclass(frozen=True)
class Certificate:
    """Lyapunov data (V, gradV, rate, constants, class-K-infinity bounds)."""

    state_dim: int
    V: Callable
    gradV: Callable
    c1: float
    c2: float
    noise_bound: float                  # the K of the mean-square bound
    alpha1: PowerLaw
    alpha2: PowerLaw
    gamma: Optional[float] = None       # power rate r(v) = v^gamma
    rate_fn: Optional[Callable] = None  # general rate, used when gamma is None
    lyapunov_name: str = ""

    def __post_init__(self):
        if (self.gamma is None) == (self.rate_fn is None):
            raise ValueError("specify exactly one of gamma or rate_fn")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):
            raise ValueError("c1 and c2 must be positive and finite")
        if not 0 <= self.noise_bound < math.inf:
            raise ValueError("noise bound K must be nonnegative and finite")
        if self.c1 <= 2.0 * self.c2 * math.sqrt(self.noise_bound):
            raise ConstantConditionError(
                f"constant condition violated: need c1 > 2 c2 sqrt(K), got "
                f"c1={self.c1:g}, 2 c2 sqrt(K)={2 * self.c2 * math.sqrt(self.noise_bound):g}")
        zero = np.zeros(self.state_dim)
        if abs(float(self.V(zero))) > 1e-12:
            raise ValueError("V(0) must vanish (within 1e-12)")
        if float(np.max(np.abs(self.gradV(zero)))) > 1e-12:
            raise ValueError("gradV(0) must vanish (within 1e-12)")
        s = np.logspace(-6, 3, 37)
        with np.errstate(over="ignore"):    # an overflowing alpha reads inf
            if np.any(self.alpha1(s) > self.alpha2(s) * (1.0 + 1e-12)):
                raise ValueError("alpha1 must not exceed alpha2")

    @property
    def decay_rate(self) -> float:
        """The positive envelope slope c1 - 2 c2 sqrt(K)."""
        return self.c1 - 2.0 * self.c2 * math.sqrt(self.noise_bound)

    def rate(self, v):
        if self.gamma is not None:
            return np.asarray(v, dtype=float) ** self.gamma
        return self.rate_fn(v)

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "c1": self.c1, "c2": self.c2,
                "K": self.noise_bound, "alpha1": self.alpha1.to_dict(),
                "alpha2": self.alpha2.to_dict(), "V": self.lyapunov_name}


# ---------------------------------------------------------------------------
# The rate transform theta and its inverse
# ---------------------------------------------------------------------------

_QUAD_SEGMENT = 60.0
_QUAD_S_MAX = 700.0   # exp(-s) stays normal below this


def _theta_quadrature(rate_fn: Callable, v: float) -> float:
    """theta(v) for a general rate by quadrature in log coordinates.

    With u = exp(-s) the singular end u -> 0 maps to s -> infinity; segments
    of the transformed integral are accumulated until they stop contributing.
    Raises RateIntegralError when the refinement has not converged by
    u ~ 1e-300 (1/r not integrable at 0, or too slowly integrable to tell),
    and for a level below that range.  An infinite level gives inf, the
    bound the power rate gives there.
    """
    if math.isinf(v):
        return math.inf
    s = -math.log(v)
    if s >= _QUAD_S_MAX:
        raise RateIntegralError(
            f"level v = {v:g} is below the quadrature's range "
            f"v >= exp(-{_QUAD_S_MAX:g}) = {math.exp(-_QUAD_S_MAX):g}")
    total = 0.0
    while s < _QUAD_S_MAX:
        s_next = min(s + _QUAD_SEGMENT, _QUAD_S_MAX)
        seg = log_quad(rate_fn, s, s_next)
        total += seg
        if seg <= 1e-12 * max(1.0, abs(total)):
            return total
        s = s_next
    raise RateIntegralError(
        "integral of 1/r does not converge at 0 "
        f"(last refinement segment still contributed {seg:g}); the rate "
        "fails the integrability condition")


def theta(cert: Certificate, v: float) -> float:
    """theta(v) = integral_0^v dv'/r(v'); closed form for the power rate.
    A negative or NaN level raises ValueError, for either rate."""
    if not v >= 0:
        raise ValueError(f"v must be nonnegative, got {v:g}")
    if v == 0.0:
        return 0.0
    if cert.gamma is not None:
        return v ** (1.0 - cert.gamma) / (1.0 - cert.gamma)
    return _theta_quadrature(cert.rate_fn, float(v))


def theta_inverse(cert: Certificate, y: float) -> float:
    """Inverse of theta; closed form for the power rate, bracketed root
    finding (relative tolerance ~1e-15) otherwise."""
    if not y >= 0:
        raise ValueError(f"y must be nonnegative, got {y:g}")
    if y == 0.0:
        return 0.0
    if cert.gamma is not None:
        return ((1.0 - cert.gamma) * y) ** (1.0 / (1.0 - cert.gamma))
    # imported on use: no CLI command needs scipy
    from scipy.optimize import brentq

    hi = 1.0
    for _ in range(200):
        if theta(cert, hi) >= y:
            break
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"theta_inverse target {y:g} not bracketed below v=1e12")
    return float(brentq(lambda v: theta(cert, v) - y, 0.0, hi,
                        xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=200))


# ---------------------------------------------------------------------------
# Sampled verification
# ---------------------------------------------------------------------------

def _sample_states(dim: int, radius: float, n: int, seed: int) -> np.ndarray:
    """n seeded uniform samples of the ball of the given radius, followed by
    the deterministic extras."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(n) ** (1.0 / dim)
    return np.vstack([direction * radii[:, None], _deterministic_extras(dim, radius)])


def _deterministic_extras(dim: int, radius: float) -> np.ndarray:
    """Axis and diagonal points at geometric radii (worst cases for the
    built-in examples sit on the axes) plus points at radius min(1, R)."""
    radii = [radius * 10.0 ** (-k) for k in range(5)] + [min(1.0, radius)]
    points = []
    for r in radii:
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = r
            points.append(e.copy())
            points.append(-e)
        diag = np.full(dim, r / math.sqrt(dim))
        points.append(diag)
        points.append(-diag)
    return np.asarray(points)


def _lie_derivatives(model: SystemModel, gradV: Callable, x, t_grid):
    """gradV.f and |gradV.g| at the states x, shape (len(t_grid), len(x))."""
    grad = gradV(x)
    lf, lg = [], []
    for t in t_grid:
        lf.append(np.einsum("...i,...i->...", grad, model.f(x, t)))
        lg.append(np.linalg.norm(np.einsum("...i,...il->...l", grad, model.g(x, t)),
                                 axis=-1))
    return np.array(lf), np.array(lg)


@np.errstate(over="ignore", invalid="ignore")
def verify_sandwich(cert: Certificate, box_radius: float, n: int, tol: float,
                    seed: int) -> tuple:
    """Sample the ball and check alpha1(|x|) <= V(x) <= alpha2(|x|).

    Returns the ``ConditionReport``s ``(lower, upper)`` of the margins
    V - alpha1(|x|) and alpha2(|x|) - V; an overflowing margin reads +-inf
    or NaN, without a numpy warning."""
    x = _sample_states(cert.state_dim, box_radius, n, seed)
    norms = np.linalg.norm(x, axis=1)
    v = cert.V(x)

    def where(i, j):
        return tuple(x[j])

    return (ConditionReport.from_margins(v - cert.alpha1(norms), tol, where),
            ConditionReport.from_margins(cert.alpha2(norms) - v, tol, where))


@np.errstate(over="ignore", invalid="ignore")
def verify_drift(cert: Certificate, model: SystemModel, box_radius: float,
                 n: int, t_grid, tol: float, seed: int) -> tuple:
    """Sample (x, t) and check the two rate inequalities of the certificate.

    Returns the ``ConditionReport``s ``(drift, gain)`` of the margins
    -gradV.f - c1 r(V) and c2 r(V) - |gradV.g|, quietly as
    ``verify_sandwich``."""
    x = _sample_states(cert.state_dim, box_radius, n, seed)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    lf, lg = _lie_derivatives(model, cert.gradV, x, t_grid)
    rv = cert.rate(cert.V(x))

    def where(i, j):
        return tuple(x[j]), float(t_grid[i])

    return (ConditionReport.from_margins(-lf - cert.c1 * rv, tol, where),
            ConditionReport.from_margins(cert.c2 * rv - lg, tol, where))


# ---------------------------------------------------------------------------
# Settling bound and decay envelope
# ---------------------------------------------------------------------------

def settling_bound(cert: Certificate, v0: float) -> float:
    """Upper bound on the expected settling time from Lyapunov level v0:
    theta(v0) / (c1 - 2 c2 sqrt(K))."""
    return theta(cert, v0) / cert.decay_rate


@np.errstate(over="ignore")
def settling_bound_at(cert: Certificate, x0) -> float:
    """``settling_bound`` at the level V(x0); inf, without a numpy warning,
    when V(x0) overflows."""
    return settling_bound(cert, float(cert.V(x0)))


@dataclass(frozen=True)
class Envelope:
    """Deterministic decay envelope for |x(t)| with finite extinction time."""

    cert: Certificate
    x0_norm: float
    theta0: float = field(init=False)
    t_ext: float = field(init=False)

    def __post_init__(self):
        if not self.x0_norm >= 0:
            raise ValueError(f"x0_norm must be nonnegative, got {self.x0_norm:g}")
        th0 = theta(self.cert, float(self.cert.alpha2(self.x0_norm)))
        object.__setattr__(self, "theta0", th0)
        object.__setattr__(self, "t_ext", th0 / self.cert.decay_rate)

    def value(self, t: float) -> float:
        """Envelope alpha1^-1(theta^-1(theta(alpha2(|x0|)) - rate * t)) at
        the time t since the start at 0; exactly 0 from the extinction time
        on, nonincreasing in t."""
        if not t >= 0:
            raise ValueError(f"t must be nonnegative, got {t:g}")
        y = self.theta0 - self.cert.decay_rate * t
        if y <= 0.0:
            return 0.0
        return float(self.cert.alpha1.inverse(theta_inverse(self.cert, y)))


# ---------------------------------------------------------------------------
# Empirical constant fitting
# ---------------------------------------------------------------------------

def fit_constants(model: SystemModel, V: Callable, gradV: Callable, gamma: float,
                  box_radius: float, n: int, t_grid, seed: int) -> tuple:
    """Tightest empirical constants ``(c1, c2)`` for the power-rate
    inequalities:

        c1 = inf over samples of -(gradV.f) / V^gamma
        c2 = sup over samples of |gradV.g| / V^gamma

    The origin is excluded (0/0).  The Lyapunov candidate fails on the
    sampled set when c1 <= 0.
    """
    x = _sample_states(model.n, box_radius, n, seed)
    x = x[np.linalg.norm(x, axis=1) > 1e-12]
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    lf, lg = _lie_derivatives(model, gradV, x, t_grid)
    vpow = np.asarray(V(x)) ** gamma
    return float(np.min(-lf / vpow)), float(np.max(lg / vpow))
