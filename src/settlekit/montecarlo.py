"""Monte Carlo settling studies over many noise realizations.

Each path's randomness is derived only from (master_seed, path_index), so
results do not depend on execution order or on how the batch is chunked;
``jobs`` merely splits the path set into contiguous chunks.  A chunk is
sampled here and integrated by ``integrate.integrate_batch``, the same
kernel that ``integrate_path`` runs as a batch of one, so a path gives the
same states in a batch and on its own.

Censoring: paths that have not settled by the horizon are excluded from the
settle-time mean and reported separately; blown-up paths are censored and
flagged.  The settling-bound check is one-sided (mean - half_width <= bound)
because the certificate bounds the expectation from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import defaults
from .certify import Certificate, Envelope, PowerLaw, settling_bound
from .fileio import ensure_dir, write_csv
from .integrate import (IntegratorConfig, check_run, integrate_batch,
                        integrate_path, steps_per_cell)
from .noise import (NoiseProcess, l1_ratios, make_filtered_white_noise,
                    make_random_phase_cosine, path_seed, sample_path)
from .systems import SystemModel, get_model, stabilizing_controller


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    master_seed: int
    integrator: IntegratorConfig
    h_noise: float = defaults.H_NOISE
    jobs: int = 1

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if self.h_noise <= 0:
            raise ValueError("h_noise must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        steps_per_cell(self.integrator.h, self.h_noise)  # validates divisibility


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
    bound_from_certificate: Optional[float]
    bound_satisfied: Optional[bool]
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
                "min": self.min_time, "max": self.max_time,
                "bound_from_certificate": self.bound_from_certificate,
                "bound_satisfied": self.bound_satisfied}


@dataclass(frozen=True)
class CoverageReport:
    times: np.ndarray
    per_time_fraction: np.ndarray
    overall_fraction: float
    overall_fraction_from_l1_time: float
    epsilon_target: float
    extinction_time: float

    @property
    def passed(self) -> bool:
        return self.overall_fraction >= 1.0 - self.epsilon_target

    def to_dict(self) -> dict:
        return {"overall_fraction": self.overall_fraction,
                "overall_fraction_from_l1_time": self.overall_fraction_from_l1_time,
                "epsilon_target": self.epsilon_target,
                "extinction_time": self.extinction_time,
                "passed": self.passed,
                "times": self.times, "per_time_fraction": self.per_time_fraction}


def _chunks(n_paths: int, jobs: int):
    size = math.ceil(n_paths / jobs)
    for lo in range(0, n_paths, size):
        yield lo, min(lo + size, n_paths)


class _BatchRun:
    """Samples a chunk of paths and integrates it with ``integrate_batch``."""

    def __init__(self, model: SystemModel, process: NoiseProcess, x0,
                 cfg: McConfig, t0: float = 0.0):
        self.model = model
        self.process = process
        self.cfg = cfg
        self.t0 = t0
        self.x0, self.m, self.n_steps = check_run(
            model, x0, process.dimension, cfg.h_noise, cfg.integrator, t0)

    def sweep(self, lo: int, hi: int, step_observer=None):
        """Sample paths [lo, hi) once and integrate them;
        ``step_observer(j, norms, blown)`` sees every node j = 0..n_steps.
        Returns the seeds, per-path last_out and blow_step, and the sampled
        noise values (b, cells+1, l)."""
        seeds = np.array([path_seed(self.cfg.master_seed, i) for i in range(lo, hi)],
                         dtype=np.uint64)
        values = np.stack([
            sample_path(self.process, self.t0, self.cfg.integrator.horizon,
                        self.cfg.h_noise, int(s)).values
            for s in seeds])                              # (b, cells+1, l)
        last_out, blow_step, _, _ = integrate_batch(
            self.model, self.x0, values, self.t0, self.n_steps, self.m,
            self.cfg.integrator, step_observer)
        return seeds, last_out, blow_step, values


def estimate_settling(model: SystemModel, process: NoiseProcess, x0,
                      cfg: McConfig, cert: Optional[Certificate] = None,
                      t0: float = 0.0) -> SettlingStats:
    """Integrate n_paths independent paths and summarize settling times.

    With a certificate, evaluates the expected-settling-time bound at V(x0)
    and sets ``bound_satisfied`` one-sidedly (mean - half_width <= bound).
    """
    if cert is not None and cfg.n_paths < defaults.MIN_PATHS_FOR_BOUND:
        raise ValueError(
            f"bound checks need n_paths >= {defaults.MIN_PATHS_FOR_BOUND}")
    run = _BatchRun(model, process, x0, cfg, t0)
    icfg = cfg.integrator
    n = cfg.n_paths
    settle_times = np.full(n, np.nan)
    settled = np.zeros(n, dtype=bool)
    blown_all = np.zeros(n, dtype=bool)
    seeds_all = np.zeros(n, dtype=np.uint64)
    for lo, hi in _chunks(n, cfg.jobs):
        # [:3] frees this chunk's noise values before the next is sampled
        seeds, last_out, blow_step = run.sweep(lo, hi)[:3]
        blown = blow_step >= 0
        ok = (~blown) & (last_out < run.n_steps)
        idx = np.arange(lo, hi)
        settled[idx[ok]] = True
        settle_times[idx[ok]] = t0 + (last_out[ok] + 1) * icfg.h
        blown_all[idx] = blown
        seeds_all[idx] = seeds

    n_settled = int(settled.sum())
    times = settle_times[settled]
    mean = hw = tmin = tmax = None
    if n_settled >= 1:
        tmin = float(times.min())
        tmax = float(times.max())
    if n_settled >= 2:
        if tmin == tmax:   # degenerate sample (e.g. zero noise): no spread
            mean, hw = tmin, 0.0
        else:
            mean = float(times.mean())
            hw = float(defaults.CONFIDENCE_Z * times.std(ddof=1) / math.sqrt(n_settled))
    bound = bound_ok = None
    if cert is not None:
        bound = settling_bound(cert, float(cert.V(np.asarray(x0, dtype=float))))
        bound_ok = bool(mean is not None and mean - hw <= bound)
    return SettlingStats(
        n_paths=n, n_settled=n_settled, n_censored=n - n_settled,
        n_blowups=int(blown_all.sum()), mean=mean, half_width=hw,
        min_time=tmin, max_time=tmax, bound_from_certificate=bound,
        bound_satisfied=bound_ok, settle_times=settle_times,
        settled_mask=settled, blown_mask=blown_all, seeds=seeds_all)


def estimate_stability_probability(model: SystemModel, process: NoiseProcess,
                                   x0, gamma_fn: PowerLaw, cfg: McConfig,
                                   t0: float = 0.0) -> float:
    """Fraction of paths whose whole trajectory stays inside the ball of
    radius gamma_fn(|x0|)."""
    run = _BatchRun(model, process, x0, cfg, t0)
    level = float(gamma_fn(float(np.linalg.norm(np.asarray(x0, dtype=float)))))
    inside_count = 0
    for lo, hi in _chunks(cfg.n_paths, cfg.jobs):
        sup = np.zeros(hi - lo)

        def observe(_j, norms, blown):
            np.maximum(sup, np.where(blown, np.inf, norms), out=sup)

        run.sweep(lo, hi, observe)
        inside_count += int(np.sum(sup <= level))
    return inside_count / cfg.n_paths


def envelope_coverage(model: SystemModel, process: NoiseProcess, x0,
                      cert: Certificate, cfg: McConfig, epsilon_target: float,
                      t0: float = 0.0) -> CoverageReport:
    """Per-time and whole-path fractions of trajectories under the decay
    envelope.

    The whole-path fraction is reported twice: from t0, and from the first
    noise-grid time at which the path's accumulated-|xi| ratio drops below 1
    (the envelope argument only applies from such a time on).
    """
    run = _BatchRun(model, process, x0, cfg, t0)
    icfg = cfg.integrator
    x0_norm = float(np.linalg.norm(np.asarray(x0, dtype=float)))
    env = Envelope(cert, x0_norm)
    grid = t0 + icfg.h * np.arange(run.n_steps + 1)
    env_vals = np.array([env.value(tj - t0) for tj in grid])
    slack = 1e-12 * max(1.0, x0_norm)

    inside_counts = np.zeros(run.n_steps + 1, dtype=int)
    last_outside = np.full(cfg.n_paths, -1)    # last node above the envelope
    start_idx = np.empty(cfg.n_paths, dtype=int)
    k_bound = max(cert.noise_bound, 1e-300)
    for lo, hi in _chunks(cfg.n_paths, cfg.jobs):
        chunk = last_outside[lo:hi]

        def observe(j, norms, blown):
            inside = (~blown) & (norms <= env_vals[j] + slack)
            inside_counts[j] += int(np.sum(inside))
            chunk[~inside] = j

        # first integration-grid index from which the accumulated |xi| ratio
        # is below 1, from the noise values the sweep integrated
        good = l1_ratios(run.sweep(lo, hi, observe)[3], cfg.h_noise, t0,
                         k_bound) <= 1.0
        start_idx[lo:hi] = np.where(good.any(1), good.argmax(1), good.shape[1] - 1)

    return CoverageReport(
        times=grid, per_time_fraction=inside_counts / cfg.n_paths,
        overall_fraction=int(np.sum(last_outside < 0)) / cfg.n_paths,
        overall_fraction_from_l1_time=(
            int(np.sum(last_outside < start_idx * run.m)) / cfg.n_paths),
        epsilon_target=float(epsilon_target), extinction_time=env.t_ext)


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

FIGURE_SEEDS = {"fig1": 101, "fig2": 202, "fig3": 202}


def reproduce_figure(name: str, out_dir) -> list:
    """Write the CSV data behind the three standard demonstration plots.

    fig1: one example1 trajectory under random-phase cosine noise.
    fig2: one closed-loop example2 trajectory under filtered noise.
    fig3: control input and disturbance along the fig2 run.
    """
    if name not in FIGURE_SEEDS:
        raise ValueError(f"unknown figure name: {name!r} (known: fig1, fig2, fig3)")
    ensure_dir(out_dir)
    import os
    cfg = IntegratorConfig(h=defaults.STEP, horizon=10.0)
    written = []
    if name == "fig1":
        model = get_model("example1")
        process = make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
        path = sample_path(process, 0.0, cfg.horizon, defaults.H_NOISE,
                           path_seed(FIGURE_SEEDS[name], 0))
        traj = integrate_path(model, path, np.array([1.0, 1.0]), cfg)
        out = os.path.join(out_dir, "fig1.csv")
        write_csv(out, ["t", "x_1", "x_2"],
                  [traj.times(), traj.states[:, 0], traj.states[:, 1]])
        written.append(out)
    else:
        model = get_model("example2-closed")
        process = make_filtered_white_noise(0.5, 1.0, 1)
        path = sample_path(process, 0.0, cfg.horizon, defaults.H_NOISE,
                           path_seed(FIGURE_SEEDS[name], 0))
        traj = integrate_path(model, path, np.array([3.0]), cfg)
        if name == "fig2":
            out = os.path.join(out_dir, "fig2.csv")
            write_csv(out, ["t", "x_1"], [traj.times(), traj.states[:, 0]])
            written.append(out)
        else:
            m = steps_per_cell(cfg.h, defaults.H_NOISE)
            n_nodes = traj.states.shape[0]
            cells = np.minimum(np.arange(n_nodes) // m, path.values.shape[0] - 1)
            xi = path.values[cells, 0]
            u = stabilizing_controller(traj.states[:, 0])
            out = os.path.join(out_dir, "fig3.csv")
            write_csv(out, ["t", "u", "xi_1"], [traj.times(), u, xi])
            written.append(out)
    return written


def write_settle_csv(stats: SettlingStats, file_path) -> None:
    """Per-path settle times: path_index,seed,settled,settle_time."""
    n = stats.n_paths
    settle_col = [None if not stats.settled_mask[i] else stats.settle_times[i]
                  for i in range(n)]
    write_csv(file_path,
              ["path_index", "seed", "settled", "settle_time"],
              [np.arange(n), [str(int(s)) for s in stats.seeds],
               stats.settled_mask, settle_col])
