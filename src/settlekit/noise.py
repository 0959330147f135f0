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

``BatchSampler`` is the one sampler: it draws the paths of a batch of seeds
a block of grid points at a time, each from its own Generator, so blocks of
any lengths join into the same bits.  It alone knows a block's memory
layout: it computes each block channel-major and hands out its time-major
(b, k, l) view.  ``BatchSampler.blocks`` is the one loop that joins its
draws into a grid: a Monte Carlo sweep pulls its blocks as the integrator
reaches them and stops when no path is live, and the noise checks draw
their paths a batch of seeds at a time; ``sample_path`` is a batch of one
drawn in one block.

``grid_points`` is the one rule for whether a process can be sampled on a
grid t0, t0+h, ... covering a horizon: it gives the grid's point count and
raises ValueError for an empty grid, a grid no array can index and a
random-phase cosine whose phase overflows on it.  ``sample_path``, the
noise checks, the Monte Carlo sweep and the CLI's config check all call it.

Every statistic of |xi| reads it one way: |xi|^2 is
``np.sum(values ** 2, axis=-1)`` over a time-major view, which adds the
channels in order over the sampler's memory, the accumulated-|xi| ratio
is ``l1_ratios``, and its largest value from t_min on is ``_l1_max``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defaults import CONFIDENCE_Z, L1_T_MIN

KIND_COSINE = "random-phase-cosine"
KIND_FILTERED = "filtered-white-noise"
KIND_ZERO = "zero"


@dataclass(frozen=True)
class NoiseProcess:
    """Immutable description of a samplable disturbance process.

    ``declared_mean_square`` is the bound K under which certificates are
    stated; the built-in factories set it to the exact mean square
    E|xi(t)|^2, which the WLLN check measures time averages against, and
    reject a process whose mean square is not finite.
    """

    kind: str
    dimension: int
    amplitudes: Optional[tuple] = None
    omegas: Optional[tuple] = None
    intensity: Optional[float] = None   # spectral intensity A (filtered kind)
    tau_f: Optional[float] = None       # filter time constant (filtered kind)
    declared_mean_square: float = 0.0


@dataclass(frozen=True)
class NoisePath:
    """One realized path on a uniform grid, zero-order-hold in between."""

    t0: float
    h: float
    # (n_points, l), read-only; sample_path gives a sampler block's view of
    # channel-major memory, so each channel values[:, j] is contiguous
    values: np.ndarray
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
        """Index of the grid point governing time t (largest grid point <= t)."""
        return _cell(t, self.t0, self.h, self.values.shape[0])

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


def make_random_phase_cosine(amplitudes, omegas) -> NoiseProcess:
    """Random-phase cosine process; one uniform phase per channel per path."""
    amplitudes = tuple(float(a) for a in np.atleast_1d(amplitudes))
    omegas = tuple(float(w) for w in np.atleast_1d(omegas))
    if len(amplitudes) == 0:
        raise ValueError("amplitudes must be non-empty")
    if len(amplitudes) != len(omegas):
        raise ValueError("amplitudes and omegas must have equal length")
    if not all(0 < v < math.inf for v in amplitudes + omegas):
        raise ValueError("amplitudes and omegas must be positive and finite")
    k = sum(a * a / 2.0 for a in amplitudes)
    if not math.isfinite(k):
        raise ValueError(f"mean square sum a_i^2/2 = {k:g} is not finite")
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
    if not math.isfinite(k):
        raise ValueError(f"mean square dimension*intensity/(2 tau_f) = {k:g} "
                         "is not finite")
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
    """Number of noise cells of the grid t0, t0+h, ... covering horizon: at
    least one, since horizon > t0, and 1e-12 cells of float jitter do not
    open another."""
    return max(1, int(math.ceil((horizon - t0) / h_noise - 1e-12)))


def grid_points(process: NoiseProcess, t0: float, horizon: float,
                h_noise: float) -> int:
    """Number of points of the noise grid t0, t0+h, ... covering horizon.

    Raises ValueError if the grid is empty, if no array can index its
    cells, or if a random-phase cosine's phase omega t overflows on it,
    where its path would be NaN.  A sampler finds non-finite values only in
    the blocks it draws, so a sweep whose paths all settle first never draws
    them; checked up front, the same grid fails the same way however far it
    is sampled.
    """
    if horizon <= t0:
        raise ValueError("horizon must exceed t0")
    if h_noise <= 0:
        raise ValueError("h_noise must be positive")
    if not (horizon - t0) / h_noise < np.iinfo(np.intp).max:     # also inf
        raise ValueError(f"horizon - t0 = {horizon - t0:g} over h_noise="
                         f"{h_noise:g} is more cells than an array can index")
    n = _n_cells(t0, horizon, h_noise)
    t_end = t0 + h_noise * n
    for w in process.omegas or ():      # a cosine's phases
        if not math.isfinite(w * t_end):
            raise ValueError(f"noise omega {w:g} times the noise grid's last "
                             f"time {t_end:g} overflows")
    return n + 1


def _cell(t: float, t0: float, h: float, n_points: int) -> int:
    """Index of the point of the grid t0, t0+h, ... (n_points points) that
    governs time t: the largest grid point <= t.  A relative guard of 1e-9
    cells absorbs float jitter in grid-aligned arguments."""
    return min(max(int(math.floor((t - t0) / h + 1e-9)), 0), n_points - 1)


def _ar1(x: np.ndarray, eta: np.ndarray, phi: float, out: np.ndarray) -> np.ndarray:
    """Step xi_{k+1} = eta_k + phi xi_k from the state x (b, l) through the
    innovations eta (b, n, l) into out (b, l, n); return the last state.

    Each (path, channel) row is stepped in Python floats, so the CLI needs
    no scipy: each product and sum rounds once, as in scipy.signal.lfilter,
    which gives the same bits.
    """
    rows = eta.transpose(0, 2, 1).reshape(x.size, eta.shape[1]).tolist()
    last = x.ravel().tolist()
    for i, v in enumerate(last):
        rows[i] = [v := e + phi * v for e in rows[i]]
        last[i] = v
    out[...] = np.fromiter(itertools.chain.from_iterable(rows), float,
                           out.size).reshape(out.shape)
    return np.reshape(last, x.shape)


class BatchSampler:
    """The paths of a batch of seeds on the grid t0, t0+h, ..., drawn a
    block of grid points at a time.

    Each path has its own Generator, seeded as ``sample_path`` seeds it, and
    ``draw(k)`` continues every path where the last block ended, so the
    blocks joined are the values ``sample_path`` gives: a cosine path's
    phases are drawn once, up front; the filtered kind carries its (b, l)
    AR(1) state between blocks, and drawing its innovations block by block
    leaves each Generator's normal stream as one draw would.  A block is
    computed channel-major, as (b, l, k) C-order memory, so every broadcast
    runs over the long axis, and handed out as its time-major (b, k, l) view.
    """

    def __init__(self, process: NoiseProcess, t0: float, h_noise: float, seeds):
        self.process = process
        self.t0, self.h = float(t0), float(h_noise)
        self.rngs = [np.random.default_rng(int(s)) for s in seeds]
        self.next = 0                       # first grid point of the next block
        l = process.dimension
        if process.kind == KIND_COSINE:
            self.phases = np.array([g.uniform(0.0, 2.0 * np.pi, size=l)
                                    for g in self.rngs])[:, :, None]
        elif process.kind == KIND_FILTERED:
            self.phi, self.eta_std = ar1_step_coefficients(
                process.intensity, process.tau_f, h_noise)
            stationary_std = math.sqrt(process.intensity / (2.0 * process.tau_f))
            self.state = np.array([stationary_std * g.standard_normal(l)
                                   for g in self.rngs])
        elif process.kind != KIND_ZERO:
            raise ValueError(f"unknown noise kind: {process.kind}")

    def draw(self, k: int) -> np.ndarray:
        """The next k grid points of every path: the time-major (b, k, l)
        view of a channel-major (b, l, k) block."""
        p0, self.next = self.next, self.next + k
        b, l = len(self.rngs), self.process.dimension
        if self.process.kind == KIND_ZERO:
            values = np.zeros((b, l, k))
        elif self.process.kind == KIND_COSINE:
            t = self.t0 + self.h * np.arange(p0, p0 + k)
            amps = np.asarray(self.process.amplitudes)[:, None]
            oms = np.asarray(self.process.omegas)[:, None]
            values = -(amps * np.cos(oms * t + self.phases))
        else:
            values = np.empty((b, l, k))
            first = int(p0 == 0)            # grid point 0 holds the start state
            if first:
                values[:, :, 0] = self.state
            eta = np.empty((b, k - first, l))
            for i, g in enumerate(self.rngs):
                g.standard_normal(out=eta[i])
            eta *= self.eta_std
            self.state = _ar1(self.state, eta, self.phi, values[:, :, first:])
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled path contains non-finite values")
        return values.transpose(0, 2, 1)

    def blocks(self, n_points: int, k: int):
        """The next n_points grid points of every path, as ``draw``'s blocks
        of k points each, the last one shorter."""
        for p in range(0, n_points, k):
            yield self.draw(min(k, n_points - p))


def sample_path(process: NoiseProcess, t0: float, horizon: float,
                h_noise: float, seed: int) -> NoisePath:
    """Sample one path of ``process`` on the grid t0, t0+h, ... covering horizon.

    A ``BatchSampler`` of one seed drawn in one block.  Pure function of
    (process, grid, seed): identical arguments give bit-identical values,
    and a longer horizon extends the path exactly (the shorter path is a
    prefix of the longer one).  ``values`` is the sampler's time-major view.
    """
    n_points = grid_points(process, t0, horizon, h_noise)
    values = BatchSampler(process, t0, h_noise, [seed]).draw(n_points)[0]
    return NoisePath(t0=float(t0), h=float(h_noise), values=values, seed=int(seed))


# The noise checks draw their paths _STATS_PATHS seeds to a sampler, in
# _STATS_BLOCK-point draws, into two preallocated (_STATS_PATHS, n_points)
# buffers.  On noise-check-scaled (2000 README-cosine paths of 5001
# points, 2-vCPU host) batches of 4 and of 8 paths took the same time, and
# 4 used 0.85 MB less peak RSS; whole-grid draws cost 1.6 MB more, and
# 64-point draws 1.8x the time.
_STATS_PATHS = 4
_STATS_BLOCK = 1024


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
    (else 0), read from the squares already summed.  A longer path extends
    a shorter one exactly, so each statistic has the bits it has on a path
    sampled to its own horizon.  The paths are drawn _STATS_PATHS seeds to a
    ``BatchSampler``, and each statistic is a reduction along the batch's
    rows, which gives every row the bits of its path on its own.  A
    statistic that overflows is left inf or NaN, without a warning: the
    checks fail on it.
    """
    n_cells = grid_points(process, t0, horizon, h_noise) - 1
    n_points = grid_points(process, t0, max([horizon, *t_grid]), h_noise)
    cells = [_cell(t, t0, h_noise, n_points) for t in t_grid]
    seeds = [path_seed(seed, i) for i in range(n_paths)]
    means = np.empty(n_paths)
    averages = np.empty((len(t_grid), n_paths))
    ratios = np.zeros(n_paths)
    # a batch's |xi|^2 (then |xi|), and its running integral from column 0 = 0
    buffers = np.zeros((2, _STATS_PATHS, n_points))
    for i in range(0, n_paths, _STATS_PATHS):
        rows = slice(i, i + _STATS_PATHS)
        sq, cum = buffers[:, :n_paths - i]
        blocks = BatchSampler(process, t0, h_noise, seeds[rows]).blocks(
            n_points, _STATS_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            np.concatenate([np.sum(b ** 2, axis=-1) for b in blocks], axis=1, out=sq)
            means[rows] = np.mean(sq[:, :n_cells], axis=1)
            # running integral: left-rectangle sum, partial final cell pro rata
            np.cumsum(sq[:, :-1], axis=1, out=cum[:, 1:])
            for j, (t, k) in enumerate(zip(t_grid, cells)):
                averages[j, rows] = (cum[:, k] * h_noise + (t - (t0 + k * h_noise))
                                     * sq[:, k]) / (t - t0)
            if l1_bound > 0:
                mags = np.sqrt(sq[:, :n_cells + 1], out=sq[:, :n_cells + 1])
                ratios[rows] = _l1_max(mags, h_noise, t0, l1_bound, t_min)
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
    with np.errstate(over="ignore", invalid="ignore"):
        est = float(np.mean(means))
        hw = float(CONFIDENCE_Z * np.std(means, ddof=1) / math.sqrt(n_paths))
    # an estimate or half-width that overflowed decides nothing: it fails
    return MomentReport(estimate=est, half_width=hw, n_paths=n_paths,
                        horizon=horizon, k_bound=float(k_bound),
                        passed=math.isfinite(est) and math.isfinite(hw)
                        and bool(est - hw <= k_bound))


def _wlln_report(process: NoiseProcess, t_grid: np.ndarray,
                 averages: np.ndarray, delta: float) -> WllnReport:
    k_true = process.declared_mean_square
    # written so that a NaN average, like an infinite one, is a violation
    fractions = (~(np.abs(averages - k_true) < delta)).mean(axis=1)
    return WllnReport(times=t_grid, fractions=fractions, delta=float(delta),
                      n_paths=averages.shape[1])


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


def l1_ratios(mags: np.ndarray, h: float, t0: float, k_bound: float,
              start: int = 0, total=0.0):
    """integral_{t0}^{t} |xi| ds / (2 sqrt(K) (t - t0)) at the grid times
    t = t0 + (start + i) h of held magnitudes |xi| mags[..., i], NaN at t0,
    given the sum ``total`` of the magnitudes before grid index ``start``.

    Returns (ratios, the sum through the last magnitude).  A path passed in
    blocks, each given the sum the last one returned, gets the bits of one
    pass, since np.cumsum adds in sequence.  The ratios are scaled in place
    in the buffer of the running sums.
    """
    cum = np.empty(mags.shape[:-1] + (mags.shape[-1] + 1,))
    cum[..., 0] = total
    cum[..., 1:] = mags
    np.cumsum(cum, axis=-1, out=cum)
    t = t0 + h * np.arange(start, start + mags.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cum[..., :-1] *= h
        cum[..., :-1] /= 2.0 * math.sqrt(k_bound) * (t - t0)
    return cum[..., :-1], cum[..., -1].copy()


def check_l1_bound(path: NoisePath, k_bound: float, t_min: float) -> float:
    """Max over grid times t >= t_min of integral |xi| ds / (2 sqrt(K) (t - t0)).

    A value <= 1 certifies the path stays within the accumulated-magnitude
    budget that the decay envelope argument relies on.  No grid time at or
    after t_min gives 0.
    """
    if k_bound <= 0:
        raise ValueError("k_bound must be positive")
    return float(_l1_max(np.sqrt(np.sum(path.values ** 2, axis=-1)), path.h,
                         path.t0, k_bound, t_min))


def _l1_max(mags: np.ndarray, h: float, t0: float, k_bound: float, t_min: float):
    """The largest L1 ratio (``l1_ratios``) of each row of held magnitudes
    mags[..., i] at the grid times t0 + i h at or after t_min; 0 where there
    is none (the ratios are >= 0)."""
    if t_min <= t0:
        raise ValueError("t_min must exceed the path start time")
    late = t0 + h * np.arange(mags.shape[-1]) >= t_min - 1e-12
    return np.max(l1_ratios(mags, h, t0, k_bound)[0], -1, initial=0.0, where=late)
