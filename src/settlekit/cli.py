"""Command-line front end driven by a JSON experiment configuration.

Commands: noise-check, certify, simulate, settle, reproduce.  ``reproduce``
runs ``simulate``'s single path on one of three built-in configs.
Exit codes: 0 success, 1 check/bound failure (or blow-up), 2 configuration
error.  A configuration error never leaves partial output files: the whole
config is validated and all objects are constructed before anything is
written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import defaults
from .certify import certificate_from_dict, settling_bound, verify_drift, \
    verify_sandwich
from .errors import ConfigError, ConstantConditionError
from .fileio import ensure_dir, fmt, write_csv, write_json
from .integrate import IntegratorConfig, check_run, integrate_path, \
    steps_per_cell, trajectory_to_csv
from .montecarlo import McConfig, estimate_settling, write_settle_csv
from .noise import (check_noise, make_filtered_white_noise,
                    make_random_phase_cosine, path_seed, sample_path,
                    zero_process)
from .systems import get_model, stabilizing_controller

# The data behind the three demonstration plots; every field not given
# takes its default.  fig1: one example1 trajectory under random-phase
# cosine noise.  fig2: one closed-loop example2 trajectory under filtered
# noise.  fig3: the control input and disturbance along the fig2 run.
_EXAMPLE2_FIGURE = {
    "model": "example2-closed", "x0": [3.0],
    "noise": {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0},
    "integrator": {"horizon": 10.0}, "mc": {"master_seed": 202}}
FIGURES = {
    "fig1": {"model": "example1", "x0": [1.0, 1.0],
             "noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
                       "omegas": [1.0, 2.0]},
             "integrator": {"horizon": 10.0}, "mc": {"master_seed": 101}},
    "fig2": _EXAMPLE2_FIGURE,
    "fig3": _EXAMPLE2_FIGURE,
}


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required field: {where}.{key}")
    return block[key]


def _require_fields(cfg, *keys) -> None:
    for key in keys:
        if key not in cfg.raw:
            raise ConfigError(f"missing required field: {key}")


def _block(raw: dict, key: str) -> dict:
    """The object ``raw[key]``, empty when the key is absent."""
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"field {key} must be an object")
    return block


def _number(value, where: str, kind=float, above=None):
    """``kind(value)``.  ``value`` must be a JSON number (not a string or a
    bool) and finite, integral when ``kind`` is int, and exceed ``above``
    when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field {where} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"field {where} must be an integer, got {value!r}")
    try:
        v = kind(value)
    except OverflowError:
        raise ConfigError(f"field {where} must be finite, got {value!r}")
    if above is not None and v <= above:
        raise ConfigError(f"field {where} must be > {above:g}, got {v}")
    return v


def _numbers(value, where: str) -> list:
    """A number or a list of numbers, each checked by ``_number``."""
    return [_number(v, where) for v in (value if isinstance(value, list) else [value])]


def _positive(value, where: str) -> float:
    return _number(value, where, above=0)


class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    def __init__(self, raw: dict, seed_override=None, out_override=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.out_dir = out_override or raw.get("out_dir", "out")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("field out_dir must be a non-empty string")

        self.model = None
        if "model" in raw:
            try:
                self.model = get_model(raw["model"])
            except ValueError as e:
                raise ConfigError(f"field model: {e}")

        self.x0 = None
        if "x0" in raw:
            x0 = np.array(_numbers(raw["x0"], "x0"))
            if self.model is not None and x0.shape != (self.model.n,):
                raise ConfigError(
                    f"field x0: expected {self.model.n} components, got {x0.shape}")
            self.x0 = x0

        self.process = None
        h_noise = defaults.H_NOISE
        if "noise" in raw:
            self.process, h_noise = self._parse_noise(_block(raw, "noise"))

        self.integrator = self._parse_integrator(_block(raw, "integrator"))

        mc = _block(raw, "mc")
        master_seed = _number(mc.get("master_seed", 0), "mc.master_seed",
                              int, above=-1)
        if seed_override is not None:
            master_seed = _number(seed_override, "mc.master_seed", int, above=-1)
        n_paths = _number(mc.get("n_paths", 100), "mc.n_paths", int, above=1)
        # h | h_noise via McConfig; x0, the noise dimension and the horizon
        # grid via the integrator's own check
        try:
            self.mc = McConfig(n_paths=n_paths, master_seed=master_seed,
                               integrator=self.integrator, h_noise=h_noise)
            if (self.model is not None and self.x0 is not None
                    and self.process is not None):
                check_run(self.model, self.x0, self.process.dimension,
                          h_noise, self.integrator)
        except ValueError as e:
            raise ConfigError(str(e))

        self.certificate = None
        if "certificate" in raw:
            self.certificate = self._parse_certificate(_block(raw, "certificate"))

        nc = _block(raw, "noise_check")
        self.nc_paths = _number(nc.get("n_paths", defaults.NOISE_CHECK_PATHS),
                                "noise_check.n_paths", int, above=1)
        self.nc_horizon = _positive(nc.get("horizon", defaults.NOISE_CHECK_HORIZON),
                                    "noise_check.horizon")
        self.nc_delta = _positive(nc.get("delta", defaults.WLLN_DELTA),
                                  "noise_check.delta")
        times = nc.get("check_times", [self.nc_horizon])
        if not isinstance(times, list) or not times:
            raise ConfigError("field noise_check.check_times must be a non-empty list")
        self.nc_times = [_positive(t, "noise_check.check_times") for t in times]
        self.nc_k_bound = nc.get("k_bound")
        if self.nc_k_bound is not None:
            self.nc_k_bound = _positive(self.nc_k_bound, "noise_check.k_bound")
        self.nc_t_min = _positive(nc.get("t_min", defaults.L1_T_MIN),
                                  "noise_check.t_min")
        if self.nc_t_min > self.nc_horizon:    # no grid time would be checked
            raise ConfigError(f"field noise_check.t_min = {self.nc_t_min:g} must not "
                              f"exceed noise_check.horizon = {self.nc_horizon:g}")

        settle = _block(raw, "settle")
        self.settled_threshold = _number(settle.get(
            "settled_fraction_threshold", defaults.SETTLED_FRACTION_THRESHOLD),
            "settle.settled_fraction_threshold")
        if not 0.0 <= self.settled_threshold <= 1.0:
            raise ConfigError("field settle.settled_fraction_threshold must lie "
                              f"in [0, 1], got {self.settled_threshold}")

    @staticmethod
    def _parse_noise(block):
        kind = _require(block, "kind", "noise")
        h_noise = _positive(block.get("h_noise", defaults.H_NOISE), "noise.h_noise")
        try:
            if kind == "random-phase-cosine":
                process = make_random_phase_cosine(
                    _numbers(_require(block, "amplitudes", "noise"), "noise.amplitudes"),
                    _numbers(_require(block, "omegas", "noise"), "noise.omegas"))
            elif kind == "filtered-white-noise":
                process = make_filtered_white_noise(
                    _positive(_require(block, "intensity", "noise"), "noise.intensity"),
                    _positive(_require(block, "tau_f", "noise"), "noise.tau_f"),
                    _number(block.get("dimension", 1), "noise.dimension", int))
            elif kind == "zero":
                process = zero_process(
                    _number(block.get("dimension", 1), "noise.dimension", int))
            else:
                raise ConfigError(f"field noise.kind: unknown kind {kind!r}")
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:
            raise ConfigError(f"field noise: {e}")
        return process, h_noise

    @staticmethod
    def _parse_integrator(block):
        absorb = block.get("absorb_at_origin", True)
        if not isinstance(absorb, bool):
            raise ConfigError("field integrator.absorb_at_origin must be "
                              f"true or false, got {absorb!r}")
        try:
            return IntegratorConfig(
                h=_number(block.get("h", defaults.STEP), "integrator.h"),
                horizon=_number(block.get("horizon", 10.0), "integrator.horizon"),
                eps_settle=_number(block.get("eps_settle", defaults.EPS_SETTLE),
                                   "integrator.eps_settle"),
                eps_absorb=(None if block.get("eps_absorb") is None
                            else _number(block["eps_absorb"], "integrator.eps_absorb")),
                absorb_at_origin=absorb)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"field integrator: {e}")

    def _parse_certificate(self, block):
        if self.model is None:
            raise ConfigError("field certificate requires a model")
        data = dict(block)
        if "V" not in data:
            data["V"] = ("half-square-arctan" if self.model.n == 1
                         else "half-square-norm")
        # checked, not converted: certify_report.json echoes the JSON values
        for key in ("gamma", "c1", "c2", "K"):
            _number(_require(data, key, "certificate"), f"certificate.{key}")
        for key in ("alpha1", "alpha2"):
            alpha = _require(data, key, "certificate")
            for k, v in (alpha.items() if isinstance(alpha, dict) else ()):
                _number(v, f"certificate.{key}.{k}")
        try:
            return certificate_from_dict(data, self.model.n)
        except ConstantConditionError:
            raise
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"field certificate: {e}")


def load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return ExperimentConfig(raw, seed_override=seed_override,
                            out_override=out_override)


def cmd_noise_check(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "noise")
    moment, wlln, max_ratio = check_noise(
        cfg.process, cfg.nc_paths, cfg.nc_horizon, cfg.mc.h_noise,
        cfg.mc.master_seed, cfg.nc_times, cfg.nc_delta,
        cfg.nc_k_bound or cfg.process.declared_mean_square, cfg.nc_t_min)
    wlln_ok = bool(wlln.fractions[-1] <= defaults.WLLN_FRACTION_THRESHOLD)
    l1_ok = bool(max_ratio <= 1.0)
    report = {
        "moment": {"estimate": moment.estimate, "half_width": moment.half_width,
                   "n_paths": moment.n_paths, "k_bound": moment.k_bound,
                   "passed": moment.passed},
        "wlln": {"times": list(wlln.times), "fractions": list(wlln.fractions),
                 "delta": wlln.delta, "passed": wlln_ok},
        "l1": {"max_ratio": max_ratio, "t_min": cfg.nc_t_min, "passed": l1_ok},
    }
    ensure_dir(cfg.out_dir)
    write_json(os.path.join(cfg.out_dir, "noise_check.json"), report)
    ok = moment.passed and wlln_ok and l1_ok
    print(f"noise-check: moment={'pass' if moment.passed else 'FAIL'} "
          f"wlln={'pass' if wlln_ok else 'FAIL'} l1={'pass' if l1_ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_certify(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "certificate", "model", "x0")
    cert = cfg.certificate
    sandwich = verify_sandwich(cert, box_radius=5.0, n=4000,
                               tol=defaults.SAMPLED_INEQUALITY_TOL,
                               seed=cfg.mc.master_seed)
    drift = verify_drift(cert, cfg.model, box_radius=5.0, n=4000,
                         t_grid=[0.0], tol=defaults.SAMPLED_INEQUALITY_TOL,
                         seed=cfg.mc.master_seed)
    bound = settling_bound(cert, float(cert.V(cfg.x0)))
    report = {
        "constant_condition": {"c1": cert.c1,
                               "two_c2_sqrt_k": 2.0 * cert.c2 * cert.noise_bound ** 0.5,
                               "passed": True},
        "sandwich": {"lower": sandwich.lower.to_dict(),
                     "upper": sandwich.upper.to_dict(),
                     "passed": sandwich.passed},
        "drift": {"drift": drift.drift.to_dict(), "gain": drift.gain.to_dict(),
                  "passed": drift.passed},
        "settling_bound_at_x0": bound,
        "certificate": cert.to_dict(),
    }
    ensure_dir(cfg.out_dir)
    write_json(os.path.join(cfg.out_dir, "certify_report.json"), report)
    ok = sandwich.passed and drift.passed
    print(f"certify: sandwich={'pass' if sandwich.passed else 'FAIL'} "
          f"drift={'pass' if drift.passed else 'FAIL'} "
          f"settling bound at x0 = {fmt(bound)}")
    return 0 if ok else 1


def run_single_path(cfg: ExperimentConfig):
    """Sample path 0 of the master seed and integrate it from x0; returns
    the noise path and the trajectory."""
    path = sample_path(cfg.process, 0.0, cfg.integrator.horizon, cfg.mc.h_noise,
                       path_seed(cfg.mc.master_seed, 0))
    return path, integrate_path(cfg.model, path, cfg.x0, cfg.integrator)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "model", "x0", "noise")
    traj = run_single_path(cfg)[1]
    ensure_dir(cfg.out_dir)
    trajectory_to_csv(traj, os.path.join(cfg.out_dir, "trajectory.csv"),
                      os.path.join(cfg.out_dir, "trajectory.json"))
    if traj.blowup:
        print(f"simulate: blow-up at t = {fmt(traj.blowup_time)}")
        return 1
    print(f"simulate: settled={traj.settled}"
          + (f" settle_time={fmt(traj.settle_time)}" if traj.settled else ""))
    return 0


def cmd_settle(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "model", "x0", "noise", "mc")
    if cfg.certificate is not None and cfg.mc.n_paths < defaults.MIN_PATHS_FOR_BOUND:
        raise ConfigError(
            f"field mc.n_paths: bound checks need at least "
            f"{defaults.MIN_PATHS_FOR_BOUND} paths, got {cfg.mc.n_paths}")
    stats = estimate_settling(cfg.model, cfg.process, cfg.x0, cfg.mc,
                              cert=cfg.certificate)
    ensure_dir(cfg.out_dir)
    write_json(os.path.join(cfg.out_dir, "settle_stats.json"), stats.to_dict())
    write_settle_csv(stats, os.path.join(cfg.out_dir, "settle_paths.csv"))
    ok = stats.settled_fraction >= cfg.settled_threshold
    if cfg.certificate is not None:
        ok = ok and bool(stats.bound_satisfied)
    print(f"settle: fraction={stats.settled_fraction:.4f} "
          f"mean={stats.mean if stats.mean is None else fmt(stats.mean)} "
          f"bound={stats.bound_from_certificate if stats.bound_from_certificate is None else fmt(stats.bound_from_certificate)}")
    return 0 if ok else 1


def reproduce_figure(name: str, out_dir) -> list:
    """Write ``<name>.csv`` for one of the built-in ``FIGURES`` into
    ``out_dir`` and return its path in a list.

    fig1 and fig2 hold the trajectory as ``simulate`` writes it
    (``t,x_1[,x_2]``); fig3 holds ``t,u,xi_1``, the control and the
    disturbance held at each trajectory time.
    """
    if name not in FIGURES:
        raise ConfigError(f"unknown figure name: {name!r} (known: fig1, fig2, fig3)")
    cfg = ExperimentConfig(FIGURES[name])
    path, traj = run_single_path(cfg)
    ensure_dir(out_dir)
    out = os.path.join(out_dir, f"{name}.csv")
    if name == "fig3":
        # each integration step holds the noise value of its cell
        m = steps_per_cell(cfg.integrator.h, cfg.mc.h_noise)
        times = traj.times()
        write_csv(out, ["t", "u", "xi_1"],
                  [times, stabilizing_controller(traj.states[:, 0]),
                   path.values[np.arange(times.size) // m, 0]])
    else:
        trajectory_to_csv(traj, out)
    return [out]


def cmd_reproduce(figure: str, out_dir) -> int:
    print("reproduce: wrote " + ", ".join(reproduce_figure(figure, out_dir)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to the JSON experiment config")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (overrides config out_dir)")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the master seed")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility, must be >= 1; "
                             "changes neither the work nor the results")
    parser = argparse.ArgumentParser(
        prog="settlekit", parents=[shared],
        description="Simulate randomly forced nonlinear systems and check "
                    "finite-time settling certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("noise-check", "certify", "simulate", "settle"):
        sub.add_parser(name, parents=[shared])
    rep = sub.add_parser("reproduce", parents=[shared])
    rep.add_argument("figure", help="fig1, fig2, or fig3")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = getattr(args, "config", None)
    out_dir = getattr(args, "out", None)
    seed = getattr(args, "seed", None)
    jobs = getattr(args, "jobs", 1)
    try:
        # checked for every command, though reproduce uses neither value
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, out_dir or "out")
        if not config_path:
            raise ConfigError("--config is required for this command")
        cfg = load_config(config_path, seed_override=seed, out_override=out_dir)
        handler = {"noise-check": cmd_noise_check, "certify": cmd_certify,
                   "simulate": cmd_simulate, "settle": cmd_settle}[args.command]
        return handler(cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ConstantConditionError as e:
        print(f"certificate rejected: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
