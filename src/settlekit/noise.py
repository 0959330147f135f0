"""Disturbance processes: construction, path sampling, and statistical checks.

Three process kinds are provided, all second-order stationary with a known
mean square E|xi(t)|^2:

* ``random-phase-cosine`` -- per channel i, xi_i(t) = -a_i cos(w_i t + S_i)
  with an independent phase S_i ~ U[0, 2pi) drawn once per path.  Channel
  mean square a_i^2/2, so the process mean square is sum_i a_i^2/2.
* ``filtered-white-noise`` -- white noise through a first-order low-pass
  filter with time constant tau_f and spectral intensity A (spectrum
  A/(1 + tau_f^2 lambda^2)).  Sampled by the exact stationary AR(1)
  transition on the grid:

      xi_{k+1} = exp(-h/tau_f) xi_k + eta_k,
      eta_k ~ N(0, (A/(2 tau_f)) (1 - exp(-2h/tau_f))),

  with xi_0 ~ N(0, A/(2 tau_f)).  Per-channel mean square A/(2 tau_f).
* ``zero`` -- identically zero (useful for deterministic runs).

Sampled paths are evaluated between grid points by zero-order hold, which
keeps every pathwise integral an exact rectangle sum.  A path is a pure
function of (process, grid, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .defaults import CONFIDENCE_Z, L1_T_MIN
from .fileio import write_csv

KIND_COSINE = "random-phase-cosine"
KIND_FILTERED = "filtered-white-noise"
KIND_ZERO = "zero"


@dataclass(frozen=True)
class NoiseProcess:
    """Immutable description of a samplable disturbance process.

    ``declared_mean_square`` is the bound K under which certificates are
    stated; for the built-in kinds it equals the exact mean square.
    """

    kind: str
    dimension: int
    amplitudes: Optional[tuple] = None
    omegas: Optional[tuple] = None
    intensity: Optional[float] = None   # spectral intensity A (filtered kind)
    tau_f: Optional[float] = None       # filter time constant (filtered kind)
    declared_mean_square: float = 0.0

    @property
    def exact_mean_square(self) -> float:
        """Exact E|xi(t)|^2 of the process (equals declared for built-ins)."""
        if self.kind == KIND_COSINE:
            return sum(a * a / 2.0 for a in self.amplitudes)
        if self.kind == KIND_FILTERED:
            return self.dimension * self.intensity / (2.0 * self.tau_f)
        return 0.0


@dataclass(frozen=True)
class NoisePath:
    """One realized path on a uniform grid, zero-order-hold in between."""

    t0: float
    h: float
    values: np.ndarray          # (n_points, l), read-only
    seed: int

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + self.h * (self.values.shape[0] - 1)

    def cell_index(self, t: float) -> int:
        """Index of the grid point governing time t (largest grid point <= t).

        A relative guard of 1e-9 cells absorbs float jitter in grid-aligned
        arguments.
        """
        u = (t - self.t0) / self.h
        k = int(math.floor(u + 1e-9))
        return min(max(k, 0), self.values.shape[0] - 1)

    def value_at(self, t: float) -> np.ndarray:
        """Zero-order-hold evaluation: the value at the largest grid point <= t."""
        return self.values[self.cell_index(t)]

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.values.shape[0])


@dataclass(frozen=True)
class MomentReport:
    """Mean-square estimate with a 95% half-width over per-path averages."""

    estimate: float
    half_width: float
    n_paths: int
    horizon: float
    k_bound: float
    passed: bool


@dataclass(frozen=True)
class WllnReport:
    """Per-time concentration of the time average of |xi|^2 around its mean."""

    times: np.ndarray
    fractions: np.ndarray       # fraction of paths violating the delta band
    delta: float
    n_paths: int
    exact_mean_square: float


def make_random_phase_cosine(amplitudes, omegas) -> NoiseProcess:
    """Random-phase cosine process; one uniform phase per channel per path."""
    amplitudes = tuple(float(a) for a in np.atleast_1d(amplitudes))
    omegas = tuple(float(w) for w in np.atleast_1d(omegas))
    if len(amplitudes) == 0:
        raise ValueError("amplitudes must be non-empty")
    if len(amplitudes) != len(omegas):
        raise ValueError("amplitudes and omegas must have equal length")
    if any(a <= 0 for a in amplitudes) or any(w <= 0 for w in omegas):
        raise ValueError("amplitudes and omegas must be strictly positive")
    k = sum(a * a / 2.0 for a in amplitudes)
    return NoiseProcess(kind=KIND_COSINE, dimension=len(amplitudes),
                        amplitudes=amplitudes, omegas=omegas,
                        declared_mean_square=k)


def make_filtered_white_noise(intensity: float, tau_f: float, dimension: int = 1) -> NoiseProcess:
    """First-order filtered white noise with exact AR(1) discretization."""
    if intensity <= 0:
        raise ValueError(f"intensity must be positive, got {intensity}")
    if tau_f <= 0:
        raise ValueError(f"tau_f must be positive, got {tau_f}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    k = dimension * intensity / (2.0 * tau_f)
    return NoiseProcess(kind=KIND_FILTERED, dimension=int(dimension),
                        intensity=float(intensity), tau_f=float(tau_f),
                        declared_mean_square=k)


def zero_process(dimension: int = 1) -> NoiseProcess:
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return NoiseProcess(kind=KIND_ZERO, dimension=int(dimension),
                        declared_mean_square=0.0)


def ar1_step_coefficients(intensity: float, tau_f: float, h: float):
    """(phi, eta_std) of the exact AR(1) transition over a step h."""
    phi = math.exp(-h / tau_f)
    stationary_var = intensity / (2.0 * tau_f)
    eta_std = math.sqrt(stationary_var * (1.0 - phi * phi))
    return phi, eta_std


def path_seed(master_seed: int, index: int) -> int:
    """Deterministic per-path seed mixed from (master seed, path index)."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _n_cells(t0: float, horizon: float, h_noise: float) -> int:
    """Number of noise cells of the grid t0, t0+h, ... covering horizon."""
    return int(math.ceil((horizon - t0) / h_noise - 1e-12))


def sample_path(process: NoiseProcess, t0: float, horizon: float,
                h_noise: float, seed: int) -> NoisePath:
    """Sample one path of ``process`` on the grid t0, t0+h, ... covering horizon.

    Pure function of (process, grid, seed): identical arguments give
    bit-identical values, and a longer horizon extends the path exactly
    (the shorter path is a prefix of the longer one).
    """
    if horizon <= t0:
        raise ValueError("horizon must exceed t0")
    if h_noise <= 0:
        raise ValueError("h_noise must be positive")
    n = _n_cells(t0, horizon, h_noise)
    t = t0 + h_noise * np.arange(n + 1)
    l = process.dimension
    rng = np.random.default_rng(int(seed))

    if process.kind == KIND_ZERO:
        values = np.zeros((n + 1, l))
    elif process.kind == KIND_COSINE:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=l)
        amps = np.asarray(process.amplitudes)
        oms = np.asarray(process.omegas)
        values = -(amps * np.cos(oms * t[:, None] + phases))
    elif process.kind == KIND_FILTERED:
        phi, eta_std = ar1_step_coefficients(process.intensity, process.tau_f, h_noise)
        stationary_std = math.sqrt(process.intensity / (2.0 * process.tau_f))
        xi0 = stationary_std * rng.standard_normal(l)
        eta = eta_std * rng.standard_normal((n, l))
        values = np.empty((n + 1, l))
        values[0] = xi0
        # AR(1) recursion xi_{k+1} = phi xi_k + eta_k, run in C via lfilter
        for j in range(l):
            values[1:, j] = lfilter([1.0], [1.0, -phi], eta[:, j], zi=[phi * xi0[j]])[0]
    else:
        raise ValueError(f"unknown noise kind: {process.kind}")

    if not np.all(np.isfinite(values)):
        raise ValueError("sampled path contains non-finite values")
    return NoisePath(t0=float(t0), h=float(h_noise), values=values, seed=int(seed))


def _path_statistics(process: NoiseProcess, n_paths: int, horizon: float,
                     h_noise: float, seed: int, t_grid=(),
                     l1_bound: float = 0.0, t_min: float = 0.0,
                     t0: float = 0.0):
    """Sample each path i once, from path_seed(seed, i), over
    [t0, max(horizon, t_grid)] and reduce it to per-path statistics.

    Returns (means, averages, ratios): the mean of |xi|^2 over the left
    endpoints of [t0, horizon); the running time average of |xi|^2 at each
    time in ``t_grid``, shape (len(t_grid), n_paths); and, when
    ``l1_bound`` > 0, ``check_l1_bound`` of the [t0, horizon] prefix
    (else 0).  A longer path extends a shorter one exactly, so each
    statistic has the bits it has on a path sampled to its own horizon.
    Paths are streamed one at a time to keep memory flat in n_paths.
    """
    n_cells = _n_cells(t0, horizon, h_noise)
    span = max([horizon, *t_grid])
    means = np.empty(n_paths)
    averages = np.empty((len(t_grid), n_paths))
    ratios = np.zeros(n_paths)
    for i in range(n_paths):
        p = sample_path(process, t0, span, h_noise, path_seed(seed, i))
        sq = np.sum(p.values ** 2, axis=1)
        means[i] = np.mean(sq[:n_cells])
        # running integral: left-rectangle sum, partial final cell pro rata
        cum = np.concatenate([[0.0], np.cumsum(sq[:-1]) * p.h])
        for j, t in enumerate(t_grid):
            k = p.cell_index(t)
            averages[j, i] = (cum[k] + (t - (p.t0 + k * p.h)) * sq[k]) / (t - t0)
        if l1_bound > 0:
            prefix = NoisePath(p.t0, p.h, p.values[:n_cells + 1], p.seed)
            ratios[i] = check_l1_bound(prefix, l1_bound, t_min)
    return means, averages, ratios


def _check_times(t_grid, delta: float, t0: float) -> np.ndarray:
    """Sorted check times; each must exceed t0, and delta must be positive."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or np.any(t_grid <= t0):
        raise ValueError("check times must be non-empty and all exceed t0")
    return t_grid


def _moment_report(means: np.ndarray, horizon: float, k_bound: float) -> MomentReport:
    n_paths = len(means)
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    est = float(np.mean(means))
    hw = float(CONFIDENCE_Z * np.std(means, ddof=1) / math.sqrt(n_paths))
    return MomentReport(estimate=est, half_width=hw, n_paths=n_paths,
                        horizon=horizon, k_bound=float(k_bound),
                        passed=bool(est - hw <= k_bound))


def _wlln_report(process: NoiseProcess, t_grid: np.ndarray,
                 averages: np.ndarray, delta: float) -> WllnReport:
    k_true = process.exact_mean_square
    fractions = (np.abs(averages - k_true) >= delta).mean(axis=1)
    return WllnReport(times=t_grid, fractions=fractions, delta=float(delta),
                      n_paths=averages.shape[1], exact_mean_square=k_true)


def estimate_mean_square(process: NoiseProcess, n_paths: int, horizon: float,
                         h_noise: float, seed: int,
                         k_bound: Optional[float] = None) -> MomentReport:
    """Pooled time-and-path average of |xi|^2 against the bound K.

    Per-path time averages use left-rectangle cells (exact for zero-order
    hold); the 95% half-width is the central-limit interval over per-path
    averages.  ``k_bound`` defaults to the process's declared mean square;
    passing a different value checks the estimate against that bound instead.
    """
    if k_bound is None:
        k_bound = process.declared_mean_square
    means = _path_statistics(process, n_paths, horizon, h_noise, seed)[0]
    return _moment_report(means, horizon, k_bound)


def check_wlln(process: NoiseProcess, t_grid, delta: float, n_paths: int,
               h_noise: float, seed: int, t0: float = 0.0) -> WllnReport:
    """Fraction of paths whose running time average of |xi|^2 leaves the
    delta band around the exact mean square, for each time in ``t_grid``.

    The running integral is the left-rectangle sum on the noise grid (exact
    under zero-order hold); a partial final cell is included pro rata.
    """
    t_grid = _check_times(t_grid, delta, t0)
    averages = _path_statistics(process, n_paths, t_grid[-1], h_noise, seed,
                                t_grid, t0=t0)[1]
    return _wlln_report(process, t_grid, averages, delta)


def check_noise(process: NoiseProcess, n_paths: int, horizon: float,
                h_noise: float, seed: int, t_grid, delta: float,
                k_bound: float, t_min: float = L1_T_MIN):
    """The moment, WLLN and L1 checks from one sampling pass, each path
    sampled once; the same numbers as ``estimate_mean_square``,
    ``check_wlln`` and the maximum of ``check_l1_bound`` over the paths.

    ``k_bound`` is the bound K on the mean square and scales the L1 budget;
    with K = 0 there is no L1 budget and the ratio is reported as 0.
    Returns (MomentReport, WllnReport, max L1 ratio).
    """
    t_grid = _check_times(t_grid, delta, 0.0)
    means, averages, ratios = _path_statistics(
        process, n_paths, horizon, h_noise, seed, t_grid, k_bound, t_min)
    return (_moment_report(means, horizon, k_bound),
            _wlln_report(process, t_grid, averages, delta), float(np.max(ratios)))


def l1_ratios(values: np.ndarray, h: float, t0: float, k_bound: float) -> np.ndarray:
    """integral_{t0}^{t} |xi| ds / (2 sqrt(K) (t - t0)) at every grid time t
    of held values (..., n_points, l) on the grid t0 + k h; NaN at t0."""
    mags = np.sqrt(np.sum(values ** 2, axis=-1))
    cum = np.zeros(mags.shape)
    np.cumsum(mags[..., :-1], axis=-1, out=cum[..., 1:])
    t = t0 + h * np.arange(mags.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return cum * h / (2.0 * math.sqrt(k_bound) * (t - t0))


def check_l1_bound(path: NoisePath, k_bound: float, t_min: float) -> float:
    """Max over grid times t >= t_min of integral |xi| ds / (2 sqrt(K) (t - t0)).

    A value <= 1 certifies the path stays within the accumulated-magnitude
    budget that the decay envelope argument relies on.  No grid time at or
    after t_min gives 0.
    """
    if k_bound <= 0:
        raise ValueError("k_bound must be positive")
    if t_min <= path.t0:
        raise ValueError("t_min must exceed the path start time")
    ratios = l1_ratios(path.values, path.h, path.t0, k_bound)
    ratios = ratios[path.times() >= t_min - 1e-12]
    return float(np.max(ratios)) if ratios.size else 0.0


def path_to_csv(path: NoisePath, file_path) -> None:
    """Write the path as CSV with header t,xi_1,...,xi_l (17 significant digits)."""
    header = ["t"] + [f"xi_{i + 1}" for i in range(path.dimension)]
    columns = [path.times()] + [path.values[:, i] for i in range(path.dimension)]
    write_csv(file_path, header, columns)
