"""System models xdot = f(x,t) + g(x,t) xi(t) and structural checks.

Evaluators are pure functions that broadcast over leading batch axes:
``f(x, t)`` maps ``(..., n)`` to ``(..., n)`` and ``g(x, t)`` maps
``(..., n)`` to ``(..., n, l)``.  Built-in models are registered by name
("example1", "example2-open", "example2-closed", "unstable-cubic") for the
CLI and config files.

A model may give ``field_fn``, f + g xi in one call.  A model whose field
has a factor that depends on the noise value alone also gives ``hold``, the
map from raw noise values to what ``field_fn`` reads in that place (for
example2-closed, xi/2 - 1).  The held noise value is constant over a noise
cell, so the integrator applies ``hold`` once to each block of noise cells
as it takes the block and calls ``field_fn`` on the held values;
``SystemModel.field(x, t, xi)`` applies ``hold`` itself, so for every other
caller it is f + g xi of the raw value.

Structural checks are sampling-based: they can falsify a condition or build
confidence, not prove it.  Each reduces its sampled margins to one
``ConditionReport`` per condition and returns them as a plain value:
``check_origin`` one report, ``check_osgood`` the pair ``(f_condition,
g_condition)``.  The moduli kappa (for f) and rho (for g) are passed as two
``Modulus`` arguments, to ``check_osgood`` and ``check_osgood_divergence``
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .defaults import DIVERGENCE_INCREMENT_FLOOR


def signed_power(x, p: float):
    """Odd fractional power sign(x)|x|^p, continuous through 0."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.abs(x) ** p
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SystemModel:
    """A randomly forced system given by drift f and gain matrix g."""

    n: int
    l: int
    f: Callable
    g: Callable
    name: str = ""
    field_fn: Optional[Callable] = None   # f + g@xi in one call, used by field()
    hold: Optional[Callable] = None       # raw noise values -> what field_fn reads

    def __post_init__(self):
        if self.hold is not None and self.field_fn is None:
            raise ValueError("a hold map needs the field_fn that reads it")
        x0 = np.zeros(self.n)
        xb = np.zeros((3, self.n))
        fv, gv = self.f(x0, 0.0), self.g(x0, 0.0)
        if np.shape(fv) != (self.n,) or np.shape(gv) != (self.n, self.l):
            raise ValueError(
                f"evaluator shapes inconsistent with n={self.n}, l={self.l}: "
                f"f -> {np.shape(fv)}, g -> {np.shape(gv)}")
        fb, gb = self.f(xb, 0.0), self.g(xb, 0.0)
        if np.shape(fb) != (3, self.n) or np.shape(gb) != (3, self.n, self.l):
            raise ValueError("evaluators must broadcast over leading batch axes")
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise ValueError("evaluators returned non-finite values at the origin")

    def field(self, x, t, xi):
        """Total right-hand side f(x,t) + g(x,t) xi for a held noise value."""
        if self.field_fn is not None:
            return self.field_fn(x, t, xi if self.hold is None else self.hold(xi))
        return self.f(x, t) + np.einsum("...ij,...j->...i", self.g(x, t), xi)


def make_example1() -> SystemModel:
    """Two-state system with cube-root restoring terms and diagonal noise gain.

        x1' = -x1^(1/3) - x1/2 + 2 x2/3 + x1^(1/3) xi_1
        x2' = -x2^(1/3) - x2   + x1/3   + x2^(1/3) xi_2

    Fractional powers are odd (signed), so the drift restores toward the
    origin from both signs and f, g vanish at 0.
    """

    def f(x, t):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([-np.cbrt(x1) - 0.5 * x1 + (2.0 / 3.0) * x2,
                         -np.cbrt(x2) - x2 + (1.0 / 3.0) * x1], axis=-1)

    def g(x, t):
        x1, x2 = x[..., 0], x[..., 1]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.cbrt(x1)
        out[..., 1, 1] = np.cbrt(x2)
        return out

    lin = np.array([0.5, 1.0])
    cross = np.array([2.0 / 3.0, 1.0 / 3.0])

    def field_fn(x, t, xi):
        # both columns at once, in f's order ((-c - a x_i) + b x_j) + c xi_i;
        # 1.0 * x2 is exact, so the bits are f + g xi's.  The sum behind
        # g xi starts from +0 and is never -0, so a -0 here becomes +0
        c = np.cbrt(x)
        out = np.negative(c)
        out -= lin * x
        out += cross * x[..., ::-1]
        out += c * xi
        out += 0.0
        return out

    return SystemModel(n=2, l=2, f=f, g=g, name="example1", field_fn=field_fn)


def stabilizing_controller(x):
    """Feedback that cancels the destabilizing drift of the scalar example.

        u(x) = -(1 + x^2) (arctan x)^(1/3) - (3x (arctan x)^2 - x) / (1 + x^2)

    With it the closed loop reduces to x' = -(1+x^2)(arctan x)^(1/3) + noise,
    so V = (arctan x)^2 / 2 decays as dV/dt = -|arctan x|^(4/3) along the
    drift (see README for the algebra).
    """
    x = np.asarray(x, dtype=float)
    a = np.arctan(x)
    out = -(1.0 + x * x) * np.cbrt(a) - (3.0 * x * a * a - x) / (1.0 + x * x)
    return out if out.ndim else float(out)


def make_example2(control: Optional[Callable] = None,
                  name: str = "example2") -> SystemModel:
    """Scalar system with arctan nonlinearity and state-dependent noise gain.

        x' = 3x (arctan x)^2 / (1+x^2) + u(x) - x / (1+x^2)
             + (1/2)(1+x^2)(arctan x)^(1/3) xi

    ``control`` defaults to zero (open loop).
    """
    if control is None:
        control = lambda x: np.zeros(np.shape(x))

    def f(x, t):
        z = x[..., 0]
        a = np.arctan(z)
        one_p = 1.0 + z * z
        drift = 3.0 * z * a * a / one_p + control(z) - z / one_p
        return drift[..., None]

    def g(x, t):
        z = x[..., 0]
        a = np.arctan(z)
        gain = 0.5 * (1.0 + z * z) * np.cbrt(a)
        return gain[..., None, None]

    return SystemModel(n=1, l=1, f=f, g=g, name=name)


def make_example2_closed() -> SystemModel:
    """``make_example2(control=stabilizing_controller)`` integrated in its
    reduced form.

    The controller cancels the drift's 3z (arctan z)^2/(1+z^2) - z/(1+z^2)
    exactly, so the field is (1+z^2)(arctan z)^(1/3)(xi/2 - 1).  Evaluating
    that product instead of the cancelling sum keeps the field within a few
    ulp of the exact value (the sum loses most of its digits near xi = 2).
    The factor xi/2 - 1 is the model's ``hold``, so ``field_fn`` reads it
    already formed.  ``f`` and ``g`` still give the drift, controller and
    gain term by term.
    """
    base = make_example2(control=stabilizing_controller, name="example2-closed")

    def hold(xi):
        return 0.5 * xi - 1.0

    def field_fn(x, t, w):
        # ((1 + z^2) cbrt(arctan z)) w on the (..., 1) state itself; each
        # commuted product or sum has the bits of the written order
        out = x * x
        out += 1.0
        a = np.arctan(x)
        np.cbrt(a, out=a)
        out *= a
        out *= w
        return out

    return replace(base, field_fn=field_fn, hold=hold)


def make_unstable_cubic() -> SystemModel:
    """Diagnostic scalar model x' = x^3 (finite-time blow-up from any x0 > 0)."""

    def f(x, t):
        return x ** 3

    def g(x, t):
        return np.zeros(x.shape + (1,))

    return SystemModel(n=1, l=1, f=f, g=g, name="unstable-cubic")


def get_model(name: str) -> SystemModel:
    """Look up a built-in model by its registered name."""
    builders = {
        "example1": make_example1,
        "example2-open": lambda: make_example2(name="example2-open"),
        "example2-closed": make_example2_closed,
        "unstable-cubic": make_unstable_cubic,
    }
    if not isinstance(name, str) or name not in builders:
        raise ValueError(f"unknown model name: {name!r} "
                         f"(known: {sorted(builders)})")
    return builders[name]()


# ---------------------------------------------------------------------------
# Continuity moduli and condition reports
# ---------------------------------------------------------------------------

class Modulus:
    """Concave increasing modulus vanishing at 0, as a sum of family terms.

    Terms: ``root`` L*u^p with 0 < p <= 1 (linear at p = 1, which is what
    ``Modulus.linear`` builds) and ``log-osgood`` L*u*ln(1/u) extended by 0
    at u = 0 (monotone for u < 1/e; meant for small arguments).
    """

    def __init__(self, terms):
        for kind, L, p in terms:
            if L <= 0:
                raise ValueError("modulus coefficient must be positive")
            if kind == "root" and not 0.0 < p <= 1.0:
                raise ValueError("root exponent must be in (0, 1]")
            if kind not in ("root", "log-osgood"):
                raise ValueError(f"unknown modulus term kind: {kind}")
        self.terms = tuple(terms)
        u = np.linspace(0.0, 0.3, 64)
        v = self(u)
        if np.any(np.diff(v) <= 0):
            raise ValueError("modulus must be strictly increasing on (0, 0.3]")

    @classmethod
    def linear(cls, L: float) -> "Modulus":
        return cls([("root", L, 1.0)])    # u ** 1.0 is u exactly

    @classmethod
    def root(cls, L: float, p: float) -> "Modulus":
        return cls([("root", L, p)])

    @classmethod
    def log_osgood(cls, L: float) -> "Modulus":
        return cls([("log-osgood", L, 1.0)])

    def __add__(self, other: "Modulus") -> "Modulus":
        return Modulus(self.terms + other.terms)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for kind, L, p in self.terms:
            if kind == "root":
                out = out + L * u ** p
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = np.where(u > 0, L * u * np.log(np.where(u > 0, 1.0 / u, 1.0)), 0.0)
                out = out + term
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a sampled inequality check; margin >= 0 means slack."""

    n_samples: int
    worst_margin: float
    violations: tuple
    tolerance: float

    @classmethod
    def from_margins(cls, margins, tol: float, where: Callable) -> "ConditionReport":
        """Report sampled margins of shape (times, samples); a 1-D array is
        one time.  The worst margin is the plain minimum, so a NaN margin
        fails the check.  The violations are the first ten margins below
        -tol in time-major order, each given by ``where(time, sample)``."""
        margins = np.atleast_2d(np.asarray(margins, dtype=float))
        bad = np.argwhere(margins < -tol)[:10]
        return cls(n_samples=margins.size, worst_margin=float(np.min(margins)),
                   violations=tuple(where(int(i), int(j)) for i, j in bad),
                   tolerance=tol)

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance

    def to_dict(self) -> dict:
        return {"n_samples": self.n_samples,
                "worst_margin": self.worst_margin,
                "violations": self.violations,
                "tolerance": self.tolerance,
                "passed": self.passed}


def _spectral_norm(a):
    """2-norm of each matrix over the last two axes; NaN for a matrix that
    holds a NaN, on which the SVD behind np.linalg.norm raises."""
    nan = np.isnan(a).any(axis=(-2, -1))
    return np.where(nan, np.nan, np.linalg.norm(
        np.where(nan[..., None, None], 0.0, a), ord=2, axis=(-2, -1)))


def check_origin(model: SystemModel, t_grid, tol: float) -> ConditionReport:
    """Verify f(0,t) and g(0,t) vanish on the time grid (to tolerance)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    zero = np.zeros(model.n)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    # np.maximum keeps a NaN norm, which Python max would drop
    margins = [-np.maximum(np.linalg.norm(model.f(zero, t)),
                           _spectral_norm(model.g(zero, t)))
               for t in t_grid]
    return ConditionReport.from_margins(
        np.reshape(margins, (-1, 1)), tol,
        lambda i, j: (tuple(zero), float(t_grid[i])))


def check_osgood(model: SystemModel, kappa: Modulus, rho: Modulus,
                 box_radius: float, n_pairs: int, t_grid, tol: float,
                 seed: int) -> tuple:
    """Sample state pairs in the box and test the two continuity conditions

        |f(x1,t) - f(x2,t)|      <= kappa(|x1 - x2|)
        ||g(x1,t) - g(x2,t)||^2  <= rho(|x1 - x2|)

    at every time of ``t_grid``, with the same moduli at each time.  Margins
    are (right side - left side).  Returns the ``ConditionReport``s
    ``(f_condition, g_condition)``.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-box_radius, box_radius, size=(n_pairs, model.n))
    x2 = rng.uniform(-box_radius, box_radius, size=(n_pairs, model.n))
    dist = np.linalg.norm(x1 - x2, axis=1)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))

    mf, mg = [], []
    for t in t_grid:
        df = np.linalg.norm(model.f(x1, t) - model.f(x2, t), axis=1)
        dg = _spectral_norm(model.g(x1, t) - model.g(x2, t))
        mf.append(kappa(dist) - df)
        mg.append(rho(dist) - dg ** 2)

    def where(i, j):
        return tuple(x1[j]), tuple(x2[j]), float(t_grid[i])

    return (ConditionReport.from_margins(mf, tol, where),
            ConditionReport.from_margins(mg, tol, where))


@dataclass(frozen=True)
class DivergenceReport:
    """Truncated integrals I(delta) for shrinking delta and a growth verdict."""

    deltas: np.ndarray
    rho_integral: np.ndarray        # integral of 1/rho over [delta, gamma]
    combined_integral: np.ndarray   # integral of 1/(sqrt(rho) + kappa)
    rho_diverging: bool
    combined_diverging: bool


def log_quad(denom: Callable, s_lo: float, s_hi: float) -> float:
    """Integral of du/denom(u) over [exp(-s_hi), exp(-s_lo)], by quadrature
    of u/denom(u) in s = -ln u, which maps a singular end u -> 0 to a long
    but tame range of s."""
    # imported on use: no CLI command needs scipy
    from scipy.integrate import quad

    def integrand(s):
        u = math.exp(-s)
        return u / denom(u)

    return quad(integrand, s_lo, s_hi, limit=200)[0]


def check_osgood_divergence(kappa: Modulus, rho: Modulus,
                            gamma_upper: float) -> DivergenceReport:
    """Probe the divergence of the two Osgood integrals near zero.

    Cuts [0, gamma_upper] at delta = 10^-k, k = 1..12 (those below
    gamma_upper) and integrates each segment between consecutive cuts once
    (``log_quad``): every segment is one decade of delta, except the first,
    which runs from gamma_upper down to the first delta.  The truncated
    integrals I(delta) are the running sums of the segments, so they never
    decrease.  A sequence is called diverging when every segment past the
    first, the contribution of one extra decade of delta, is at least
    DIVERGENCE_INCREMENT_FLOOR (logarithmic-or-faster growth).
    """
    if not 0 < gamma_upper < math.inf:      # also NaN; ln(1/gamma_upper) is a cut
        raise ValueError(f"gamma_upper must be positive and finite, got {gamma_upper}")
    # a concave modulus vanishing at 0 and positive at gamma_upper is
    # positive on (0, gamma_upper], so no denominator below is 0
    if not (rho(gamma_upper) > 0 and kappa(gamma_upper) > 0):
        raise ValueError(f"moduli must be positive at gamma_upper={gamma_upper:g}")
    deltas = 10.0 ** -np.arange(1, 13)
    deltas = deltas[deltas < gamma_upper]
    if len(deltas) < 3:
        raise ValueError("gamma_upper too small to probe divergence")

    cuts = [math.log(1.0 / u) for u in (gamma_upper, *deltas)]   # s = -ln u
    rho_seg, comb_seg = ([log_quad(denom, a, b) for a, b in zip(cuts, cuts[1:])]
                         for denom in (rho, lambda u: np.sqrt(rho(u)) + kappa(u)))
    return DivergenceReport(
        deltas=deltas, rho_integral=np.cumsum(rho_seg),
        combined_integral=np.cumsum(comb_seg),
        rho_diverging=min(rho_seg[1:]) >= DIVERGENCE_INCREMENT_FLOOR,
        combined_diverging=min(comb_seg[1:]) >= DIVERGENCE_INCREMENT_FLOOR)
