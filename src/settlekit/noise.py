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

Every noise grid starts at 0, as every run does: the grid is 0, h, 2h, ...
``grid_points`` is the one rule for whether a process can be sampled on the
grid covering a horizon: it gives the grid's point count and raises
ValueError for an empty grid, a grid no array can index and a random-phase
cosine whose phase overflows on it.  ``sample_path``, the noise checks, the
Monte Carlo sweep and the CLI's config check all call it.  ``stats_block``
is the one rule for whether numpy can size the noise checks' sampler
blocks; ``check_noise`` and the CLI's config check call it.

Every statistic of |xi| reads it one way: |xi|^2 is
``np.sum(values ** 2, axis=-1)`` over a time-major view, which adds the
channels in order over the sampler's memory, the accumulated-|xi| ratio
is ``l1_ratios``, and its largest value from t_min on (``l1_window``) is
``_l1_max``.  These own the L1 budget's rules: ``l1_window`` which grid
times a t_min reads, and ``l1_ratios`` the ratio for every K, K = 0
included; the CLI and ``montecarlo.envelope_coverage`` keep no copy.

The noise checks return what they measured, as plain numbers:
``estimate_mean_square`` the pair (estimate, half_width), ``check_wlln``
the violation fractions in ascending order of the check times, and
``check_noise`` all of them with the largest L1 ratio from one sampling
pass.  None of them decides a verdict; the CLI's ``noise-check`` compares
each with its bound.  ``check_noise`` splits its paths into contiguous
slices across up to ``jobs`` processes (``parallel.fan_out``); each slice
gives its per-path statistics and the joined arrays are pooled as one
process would pool them, so no number depends on ``jobs``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defaults import CONFIDENCE_Z, L1_T_MIN
from .parallel import fan_out

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
    """One realized path on the uniform grid 0, h, 2h, ...,
    zero-order-hold in between."""

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


def _n_cells(horizon: float, h_noise: float) -> int:
    """Number of noise cells of the grid 0, h, ... covering horizon: at
    least one, since horizon > 0, and 1e-12 cells of float jitter do not
    open another."""
    return max(1, int(math.ceil(horizon / h_noise - 1e-12)))


def grid_points(process: NoiseProcess, horizon: float, h_noise: float) -> int:
    """Number of points of the noise grid 0, h, ... covering horizon.

    Raises ValueError if the grid is empty, if no array can index its
    cells, or if a random-phase cosine's phase omega t overflows on it,
    where its path would be NaN.  A sampler finds non-finite values only in
    the blocks it draws, so a sweep whose paths all settle first never draws
    them; checked up front, the same grid fails the same way however far it
    is sampled.
    """
    # each test is written so that NaN fails it
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if not 0 < h_noise < math.inf:
        raise ValueError(f"h_noise must be positive and finite, got {h_noise}")
    if not horizon / h_noise < np.iinfo(np.intp).max:     # also inf
        raise ValueError(f"horizon = {horizon:g} over h_noise={h_noise:g} is "
                         "more cells than an array can index")
    n = _n_cells(horizon, h_noise)
    t_end = h_noise * n
    for w in process.omegas or ():      # a cosine's phases
        if not math.isfinite(w * t_end):
            raise ValueError(f"noise omega {w:g} times the noise grid's last "
                             f"time {t_end:g} overflows")
    return n + 1


def _cell(t: float, h: float, n_points: int) -> int:
    """Index of the point of the grid 0, h, ... (n_points points) that
    governs time t: the largest grid point <= t.  A relative guard of 1e-9
    cells absorbs float jitter in grid-aligned arguments."""
    return min(max(int(math.floor(t / h + 1e-9)), 0), n_points - 1)


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
    """The paths of a batch of seeds on the grid 0, h, 2h, ..., drawn a
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

    def __init__(self, process: NoiseProcess, h_noise: float, seeds):
        self.process = process
        self.h = float(h_noise)
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
            t = self.h * np.arange(p0, p0 + k)
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
    """Sample one path of ``process`` on the grid 0, h, ... covering horizon.

    A ``BatchSampler`` of one seed drawn in one block.  Pure function of
    (process, grid, seed): identical arguments give bit-identical values,
    and a longer horizon extends the path exactly (the shorter path is a
    prefix of the longer one).  ``values`` is the sampler's time-major view.

    Every noise grid starts at 0, so ``t0`` must be 0 (else ValueError).  It
    is kept only so that ``seed`` stays the fifth positional argument, where
    the benchmark's call counter reads it.
    """
    if t0 != 0.0:
        raise ValueError(f"noise path starts at t0={t0:g}; every noise grid "
                         "starts at 0")
    n_points = grid_points(process, horizon, h_noise)
    values = BatchSampler(process, h_noise, [seed]).draw(n_points)[0]
    return NoisePath(h=float(h_noise), values=values, seed=int(seed))


# The noise checks draw their paths _STATS_PATHS seeds to a sampler, in
# _STATS_BLOCK-point draws, into two preallocated (_STATS_PATHS, n_points)
# buffers.  On noise-check-scaled (2000 README-cosine paths of 5001
# points, 2-vCPU host) batches of 4 and of 8 paths took the same time, and
# 4 used 0.85 MB less peak RSS; whole-grid draws cost 1.6 MB more, and
# 64-point draws 1.8x the time.
_STATS_PATHS = 4
_STATS_BLOCK = 1024


def stats_block(process: NoiseProcess, n_paths: int, n_points: int) -> tuple:
    """The shape (b, l, k) of the largest sampler block the noise checks
    draw for n_paths paths of ``process`` on a grid of n_points points.
    Raises ValueError if numpy cannot size it: more bytes than
    ``np.intp`` can count.  A block that numpy can size but memory cannot
    hold is not caught."""
    shape = (min(_STATS_PATHS, n_paths), process.dimension,
             min(_STATS_BLOCK, n_points))
    if not math.prod(shape) <= np.iinfo(np.intp).max // 8:    # float64
        raise ValueError("noise blocks of {} x {} x {} floats are more bytes "
                         "than an array can hold".format(*shape))
    return shape


def _path_statistics(process: NoiseProcess, paths: range, horizon: float,
                     h_noise: float, seed: int, t_grid=(),
                     l1_bound: Optional[float] = None, t_min: float = 0.0):
    """Sample each path i of ``paths`` once, from path_seed(seed, i), over
    [0, max(horizon, t_grid)] and reduce it to per-path statistics.

    Returns (means, averages, ratios), in the order of ``paths``: the mean
    of |xi|^2 over the left endpoints of [0, horizon); the running time
    average of |xi|^2 at each time in ``t_grid``, shape (len(t_grid),
    len(paths)); and, when a bound K is given as ``l1_bound``, the largest
    L1 ratio (``_l1_max``) of the [0, horizon] prefix from t_min on (else
    0), read from the squares already summed.
    A longer path extends a shorter one exactly, so each statistic has the
    bits it has on a path sampled to its own horizon.  The paths are drawn
    _STATS_PATHS seeds to a ``BatchSampler``, and each statistic is a
    reduction along the batch's rows, which gives every row the bits of its
    path on its own.  A statistic that overflows is left inf or NaN, without
    a warning: the checks fail on it.
    """
    n_cells = grid_points(process, horizon, h_noise) - 1
    n_points = grid_points(process, max([horizon, *t_grid]), h_noise)
    cells = [_cell(t, h_noise, n_points) for t in t_grid]
    seeds = [path_seed(seed, i) for i in paths]
    n_paths = len(seeds)
    means = np.empty(n_paths)
    averages = np.empty((len(t_grid), n_paths))
    ratios = np.zeros(n_paths)
    # a batch's |xi|^2 (then |xi|), and its running integral from column 0 = 0
    buffers = np.zeros((2, _STATS_PATHS, n_points))
    for i in range(0, n_paths, _STATS_PATHS):
        rows = slice(i, i + _STATS_PATHS)
        sq, cum = buffers[:, :n_paths - i]
        blocks = BatchSampler(process, h_noise, seeds[rows]).blocks(
            n_points, _STATS_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            np.concatenate([np.sum(b ** 2, axis=-1) for b in blocks], axis=1, out=sq)
            means[rows] = np.mean(sq[:, :n_cells], axis=1)
            # running integral: left-rectangle sum, partial final cell pro rata
            np.cumsum(sq[:, :-1], axis=1, out=cum[:, 1:])
            for j, (t, k) in enumerate(zip(t_grid, cells)):
                averages[j, rows] = (cum[:, k] * h_noise + (t - k * h_noise)
                                     * sq[:, k]) / t
            if l1_bound is not None:
                mags = np.sqrt(sq[:, :n_cells + 1], out=sq[:, :n_cells + 1])
                ratios[rows] = _l1_max(mags, h_noise, l1_bound, t_min)
    return means, averages, ratios


def _check_times(t_grid, delta: float) -> np.ndarray:
    """Sorted check times; each must be positive, and delta positive and
    finite."""
    if not 0 < delta < math.inf:       # also NaN
        raise ValueError(f"delta must be positive and finite, got {delta}")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or not np.all(t_grid > 0):
        raise ValueError("check times must be non-empty and all positive")
    return t_grid


def _check_paths(n_paths: int) -> int:
    """n_paths, or ValueError for fewer than two paths: a sample of one
    value per path has a half-width only from two on.  The noise checks
    call it before they sample."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    return n_paths


def mean_half_width(values: np.ndarray):
    """(mean, 95% central-limit half-width) of a sample of one value per
    path, such as the per-path means of |xi|^2 or the settle times; either
    is inf or NaN, without a warning, if it overflows."""
    n_paths = _check_paths(len(values))
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(np.mean(values)),
                float(CONFIDENCE_Z * np.std(values, ddof=1) / math.sqrt(n_paths)))


def _wlln_report(process: NoiseProcess, averages: np.ndarray,
                 delta: float) -> np.ndarray:
    """Fraction of paths whose average lies outside the delta band around
    the exact mean square, for each row of ``averages``; a NaN average,
    like an infinite one, lies outside."""
    return (~(np.abs(averages - process.declared_mean_square) < delta)).mean(axis=1)


def estimate_mean_square(process: NoiseProcess, n_paths: int, horizon: float,
                         h_noise: float, seed: int):
    """Pooled time-and-path average of |xi|^2: (estimate, half_width).

    Per-path time averages use left-rectangle cells (exact for zero-order
    hold); the 95% half-width is the central-limit interval over per-path
    averages.  Either is inf or NaN, without a warning, if it overflows.
    Fewer than two paths raise ValueError before any is sampled.
    """
    return mean_half_width(_path_statistics(
        process, range(_check_paths(n_paths)), horizon, h_noise, seed)[0])


def check_wlln(process: NoiseProcess, t_grid, delta: float, n_paths: int,
               h_noise: float, seed: int) -> np.ndarray:
    """Fraction of paths whose running time average of |xi|^2 from 0 leaves
    the delta band around the exact mean square, for each time in
    ``t_grid``, in ascending order of the times.

    The running integral is the left-rectangle sum on the noise grid (exact
    under zero-order hold); a partial final cell is included pro rata.
    Fewer than two paths raise ValueError before any is sampled.
    """
    t_grid = _check_times(t_grid, delta)
    averages = _path_statistics(process, range(_check_paths(n_paths)),
                                t_grid[-1], h_noise, seed, t_grid)[1]
    return _wlln_report(process, averages, delta)


def check_noise(process: NoiseProcess, n_paths: int, horizon: float,
                h_noise: float, seed: int, t_grid, delta: float,
                k_bound: float, t_min: float = L1_T_MIN, jobs: int = 1):
    """The moment, WLLN and L1 statistics from one sampling pass, each path
    sampled once; the same numbers as ``estimate_mean_square``,
    ``check_wlln`` and the maximum of ``check_l1_bound`` over the paths.

    The paths are reduced in up to ``jobs`` processes, one contiguous slice
    each (``parallel.fan_out``), and the per-path statistics joined in path
    order before they are pooled, so every number has the bits of one
    process; the first failing slice's exception, in path order, is raised.

    ``k_bound`` is the bound K on the mean square that scales the L1
    budget 2 sqrt(K) t; ``l1_ratios`` reads K = 0 as it reads any K, and
    the CLI passes K = 0 for the zero process, whose declared mean square it
    is.  ``check_l1_bound`` still requires K > 0: it checks one path against
    a stated bound, and with K = 0 its answer does not need the path (0 if
    no |xi| accumulates, else inf), so a 0 there is taken for a missing
    bound and named.  Before any path is sampled, a t_min past the last grid
    time of [0, horizon] (``l1_window``) and a noise dimension whose sampler
    block numpy cannot size (``stats_block``) raise ValueError, as do fewer
    than two paths.
    Returns (estimate, half_width, fractions, max L1 ratio), the fractions
    in ascending order of the check times.
    """
    if not 0 <= k_bound < math.inf:
        raise ValueError(f"k_bound must be >= 0 and finite, got {k_bound}")
    t_grid = _check_times(t_grid, delta)
    l1_window(h_noise, grid_points(process, horizon, h_noise), t_min)
    stats_block(process, n_paths, grid_points(process, max(horizon, *t_grid),
                                              h_noise))
    _check_paths(n_paths)
    parts = fan_out(lambda rows: _path_statistics(
        process, range(n_paths)[rows], horizon, h_noise, seed, t_grid,
        k_bound, t_min), n_paths, jobs)
    means, averages, ratios = (np.concatenate(p, axis=-1) for p in zip(*parts))
    return (*mean_half_width(means), _wlln_report(process, averages, delta),
            float(np.max(ratios)))


def l1_ratios(mags: np.ndarray, h: float, k_bound: float, start: int = 0,
              total=0.0):
    """integral_0^t |xi| ds / (2 sqrt(K) t) at the grid times
    t = (start + i) h of held magnitudes |xi| mags[..., i], NaN at 0,
    given the sum ``total`` of the magnitudes before grid index ``start``.

    This is the one rule of the L1 budget, K = 0 included: with K = 0 the
    budget is 0, so a ratio at t > 0 is 0 while no |xi| has accumulated and
    inf once any has.

    Returns (ratios, the sum through the last magnitude).  A path passed in
    blocks, each given the sum the last one returned, gets the bits of one
    pass, since np.cumsum adds in sequence.  The ratios are scaled in place
    in the buffer of the running sums.
    """
    cum = np.empty(mags.shape[:-1] + (mags.shape[-1] + 1,))
    cum[..., 0] = total
    cum[..., 1:] = mags
    np.cumsum(cum, axis=-1, out=cum)
    t = h * np.arange(start, start + mags.shape[-1])
    ratios = cum[..., :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios *= h
        # with K = 0 an integral of 0 over t > 0 is left 0, not 0/0
        np.divide(ratios, 2.0 * math.sqrt(k_bound) * t, out=ratios,
                  where=True if k_bound else (ratios != 0) | (t == 0))
    return ratios, cum[..., -1].copy()


def check_l1_bound(path: NoisePath, k_bound: float, t_min: float) -> float:
    """Max over grid times t >= t_min of integral_0^t |xi| ds / (2 sqrt(K) t).

    A value <= 1 certifies the path stays within the accumulated-magnitude
    budget that the decay envelope argument relies on.  A t_min past the
    path's last grid time raises ValueError.
    """
    if not 0 < k_bound < math.inf:
        raise ValueError(f"k_bound must be positive and finite, got {k_bound}")
    return float(_l1_max(np.sqrt(np.sum(path.values ** 2, axis=-1)), path.h,
                         k_bound, t_min))


def _l1_max(mags: np.ndarray, h: float, k_bound: float, t_min: float):
    """The largest L1 ratio (``l1_ratios``) of each row of held magnitudes
    mags[..., i] at the grid times i h at or after t_min (``l1_window``)."""
    late = l1_window(h, mags.shape[-1], t_min)
    return np.max(l1_ratios(mags, h, k_bound)[0], -1, initial=0.0, where=late)


def l1_window(h: float, n_points: int, t_min: float) -> np.ndarray:
    """Which grid times i h, i < n_points, the L1 check reads: those at or
    after t_min, within 1e-12 of float jitter.  Raises ValueError if t_min
    is not positive or lies past the last, where no ratio would be read and
    the largest would be 0, which passes."""
    if not t_min > 0:       # also NaN
        raise ValueError(f"t_min must be positive, got {t_min}")
    late = h * np.arange(n_points) >= t_min - 1e-12
    if not late[-1]:
        raise ValueError(f"t_min = {t_min} lies past the last grid time "
                         f"{h * (n_points - 1)}")
    return late
