"""Monte Carlo settling studies over many noise realizations.

Every run starts at t = 0, and its noise grid with it.
Each path's randomness is derived only from (master_seed, path_index), so
a path's result does not depend on the other paths of the batch.  A batch
of paths is integrated in one call of ``integrate.integrate_batch``, the
same kernel that ``integrate_path`` runs as a batch of one, so a path gives
the same states in a batch and on its own.  ``estimate_settling`` splits
its paths into contiguous slices across up to ``jobs`` processes
(``parallel.fan_out``), one batch each, and joins the batches' results in
path order, so its numbers do not depend on ``jobs``; the other studies
integrate all their paths in one batch.  The kernel pulls a batch's noise
from one ``noise.BatchSampler``, a block of grid points at a time, as it
reaches each block: every path is sampled once, no further than one block
past the last step at which a path is live, and the paths' blocks are never
held whole.  Each study reads the kernel's ``BatchResult`` by field,
against its own per-node radius: settling reads ``settle_times`` for the
settling ball, stability in probability reads ``last_out`` for the level
gamma(|x0|), and envelope coverage reads ``last_out`` and ``n_out`` for the
decay envelope, with each path's L1 start index read from the blocks as
they pass, by the channel sum and ``noise.l1_ratios`` that the noise checks
use.

The studies return what they measured and decide no verdict: the CLI's
``settle`` compares the settled fraction with its threshold and the settle
times' interval with the certificate's bound.  Censoring: paths that have
not settled by the horizon are excluded from the settle-time mean and
reported separately; blown-up paths are censored and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import defaults
from .certify import Certificate, Envelope, PowerLaw
from .integrate import BatchResult, IntegratorConfig, check_run, integrate_batch
from .noise import (BatchSampler, NoiseProcess, grid_points, l1_ratios,
                    mean_half_width, path_seed)
from .parallel import fan_out
from .systems import SystemModel


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    master_seed: int
    integrator: IntegratorConfig
    h_noise: float = defaults.H_NOISE

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")


@dataclass(frozen=True)
class SettlingStats:
    n_paths: int
    n_settled: int
    n_censored: int
    n_blowups: int
    mean: Optional[float]
    half_width: Optional[float]
    min_time: Optional[float]
    max_time: Optional[float]
    settle_times: np.ndarray     # per path, NaN when censored
    settled_mask: np.ndarray
    blown_mask: np.ndarray
    seeds: np.ndarray

    @property
    def settled_fraction(self) -> float:
        return self.n_settled / self.n_paths

    def to_dict(self) -> dict:
        return {"n_paths": self.n_paths, "n_settled": self.n_settled,
                "n_censored": self.n_censored, "n_blowups": self.n_blowups,
                "settled_fraction": self.settled_fraction,
                "mean": self.mean, "half_width": self.half_width,
                "min": self.min_time, "max": self.max_time}


# Grid points drawn per noise block: with m steps per cell a block lasts 64 m
# kernel steps, so its per-path draws cost little next to the steps, and a
# sweep reads at most one block past its last live step.
_BLOCK = 64


class _BatchRun:
    """Integrates the n_paths paths with ``integrate_batch``, drawing their
    noise from one ``BatchSampler`` as the kernel reaches it.  The run is
    checked (``check_run``, h | h_noise among it) before any work."""

    def __init__(self, model: SystemModel, process: NoiseProcess, x0,
                 cfg: McConfig):
        self.model = model
        self.process = process
        self.cfg = cfg
        self.x0, self.m, self.n_steps = check_run(
            model, x0, process.dimension, cfg.h_noise, cfg.integrator)
        self.n_points = grid_points(process, cfg.integrator.horizon, cfg.h_noise)
        self.seeds = np.array([path_seed(cfg.master_seed, i)
                               for i in range(cfg.n_paths)], dtype=np.uint64)

    def blocks(self, rows=slice(None)):
        """The noise of the paths ``rows`` over the grid, (b, k, l) blocks of
        _BLOCK points."""
        return BatchSampler(self.process, self.cfg.h_noise,
                            self.seeds[rows]).blocks(self.n_points, _BLOCK)

    def sweep(self, radius=None, blocks=None):
        """Integrate the paths in one batch against the per-node ball
        ``radius`` (eps_settle by default), under ``blocks`` (a fresh
        ``blocks()`` by default).  Returns the kernel's ``BatchResult``."""
        return integrate_batch(
            self.model, self.x0, self.blocks() if blocks is None else blocks,
            self.n_steps, self.m, self.cfg.integrator, radius)


def estimate_settling(model: SystemModel, process: NoiseProcess, x0,
                      cfg: McConfig, jobs: int = 1) -> SettlingStats:
    """Integrate n_paths independent paths and summarize settling times.

    The paths are swept in up to ``jobs`` processes, one contiguous slice
    each, and the slices' results joined in path order, which gives every
    number the bits of one sweep.  A NaN from the model raises the error a
    single sweep would: the one at the earliest step, in the lowest slice
    on a tie (``parallel.fan_out``).

    The mean and half-width are ``noise.mean_half_width`` of the settled
    paths' times, and the time itself with half-width 0 when those times
    are all equal; with fewer than 2 settled paths both are None.
    """
    run = _BatchRun(model, process, x0, cfg)
    n = cfg.n_paths
    res = BatchResult.join(fan_out(lambda rows: run.sweep(blocks=run.blocks(rows)),
                                   n, jobs))
    blown = res.blow_step >= 0
    settle_times = res.settle_times(cfg.integrator.h)
    settled = ~np.isnan(settle_times)

    n_settled = int(settled.sum())
    times = settle_times[settled]
    mean = hw = tmin = tmax = None
    if n_settled >= 1:
        tmin = float(times.min())
        tmax = float(times.max())
    if n_settled >= 2:
        # a degenerate sample (e.g. zero noise) has no spread
        mean, hw = (tmin, 0.0) if tmin == tmax else mean_half_width(times)
    return SettlingStats(
        n_paths=n, n_settled=n_settled, n_censored=n - n_settled,
        n_blowups=int(blown.sum()), mean=mean, half_width=hw,
        min_time=tmin, max_time=tmax, settle_times=settle_times,
        settled_mask=settled, blown_mask=blown, seeds=run.seeds)


def estimate_stability_probability(model: SystemModel, process: NoiseProcess,
                                   x0, gamma_fn: PowerLaw, cfg: McConfig) -> float:
    """Fraction of paths whose whole trajectory from t = 0 stays inside the
    ball of radius gamma_fn(|x0|)."""
    run = _BatchRun(model, process, x0, cfg)
    level = float(gamma_fn(float(np.linalg.norm(run.x0))))
    res = run.sweep(np.full(run.n_steps + 1, level))
    return int(np.sum(res.last_out < 0)) / cfg.n_paths


def envelope_coverage(model: SystemModel, process: NoiseProcess, x0,
                      cert: Certificate, cfg: McConfig) -> tuple:
    """Fractions of trajectories under the decay envelope: (per-time
    fractions on the integration grid, whole-path fraction, whole-path
    fraction from each path's L1 start).

    The whole-path fraction is given twice: from t = 0, and from the first
    noise-grid time at which the path's accumulated-|xi| ratio drops below 1
    (the envelope argument only applies from such a time on).
    """
    run = _BatchRun(model, process, x0, cfg)
    x0_norm = float(np.linalg.norm(run.x0))
    env = Envelope(cert, x0_norm)
    grid = cfg.integrator.h * np.arange(run.n_steps + 1)
    env_vals = np.array([env.value(tj) for tj in grid])
    slack = 1e-12 * max(1.0, x0_norm)
    k_bound = max(cert.noise_bound, 1e-300)
    first = np.full(cfg.n_paths, -1)        # each path's first L1-good index
    read = 0                                # grid points read

    def blocks():
        """The sweep's blocks, each read for L1-good indices as it passes."""
        nonlocal read
        total = 0.0                         # per path, sum of |xi| read
        for block in run.blocks():
            ratios, total = l1_ratios(np.sqrt(np.sum(block ** 2, axis=-1)),
                                      cfg.h_noise, k_bound, read, total)
            good = ratios <= 1.0
            new = (first < 0) & good.any(1)
            first[new] = read + good[new].argmax(1)
            read += block.shape[1]
            yield block

    l1 = blocks()
    res = run.sweep(env_vals + slack, l1)
    # a path's last exit precedes its L1 start iff no grid index up to
    # last_out // m is L1-good; the kernel leaves a blown row's cells unread
    # after its blow-up, though its last exit is the last node, so those
    # paths are drawn on here (need <= n_cells < n_points ends the loop)
    need = res.last_out // run.m
    while np.any((first < 0) & (need >= read)):
        next(l1)
    start_idx = np.where(first >= 0, first, run.n_points - 1)

    return ((cfg.n_paths - res.n_out) / cfg.n_paths,
            int(np.sum(res.last_out < 0)) / cfg.n_paths,
            int(np.sum(res.last_out < start_idx * run.m)) / cfg.n_paths)
