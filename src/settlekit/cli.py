"""Command-line front end driven by a JSON experiment configuration.

Commands: noise-check, certify, simulate, settle, reproduce.
Exit codes: 0 success, 1 check/bound failure (or blow-up), 2 configuration
error.  A configuration error never leaves partial output files: the whole
config is validated and all objects are constructed before anything is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import defaults
from .certify import Certificate, certificate_from_dict, settling_bound, \
    verify_drift, verify_sandwich
from .errors import ConfigError, ConstantConditionError
from .fileio import ensure_dir, fmt, write_json
from .integrate import IntegratorConfig, check_run, integrate_path, \
    trajectory_to_csv
from .montecarlo import McConfig, estimate_settling, reproduce_figure, \
    write_settle_csv
from .noise import (check_noise, make_filtered_white_noise,
                    make_random_phase_cosine, path_seed, sample_path,
                    zero_process)
from .systems import get_model


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required field: {where}.{key}")
    return block[key]


def _require_fields(cfg, *keys) -> None:
    for key in keys:
        if key not in cfg.raw:
            raise ConfigError(f"missing required field: {key}")


def _number(value, where: str, kind=float, above=None):
    """``kind(value)``, which must exceed ``above`` when that is given."""
    try:
        v = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {where} must be numeric, got {value!r}")
    if above is not None and v <= above:
        raise ConfigError(f"field {where} must be > {above:g}, got {v}")
    return v


def _positive(value, where: str) -> float:
    return _number(value, where, above=0)


class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    def __init__(self, raw: dict, seed_override=None, jobs: int = 1,
                 out_override=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.out_dir = out_override or raw.get("out_dir", "out")
        self.jobs = int(jobs)

        self.model = None
        if "model" in raw:
            try:
                self.model = get_model(raw["model"])
            except ValueError as e:
                raise ConfigError(f"field model: {e}")

        self.x0 = None
        if "x0" in raw:
            x0 = np.atleast_1d(_number(raw["x0"], "x0",
                                       lambda v: np.asarray(v, dtype=float)))
            if self.model is not None and x0.shape != (self.model.n,):
                raise ConfigError(
                    f"field x0: expected {self.model.n} components, got {x0.shape}")
            self.x0 = x0

        self.process = None
        self.h_noise = defaults.H_NOISE
        if "noise" in raw:
            self.process, self.h_noise = self._parse_noise(raw["noise"])

        self.integrator = self._parse_integrator(raw.get("integrator", {}))

        mc = raw.get("mc", {})
        self.master_seed = _number(mc.get("master_seed", 0), "mc.master_seed", int)
        if seed_override is not None:
            self.master_seed = int(seed_override)
        self.n_paths = _number(mc.get("n_paths", 100), "mc.n_paths", int)
        # n_paths, --jobs and h | h_noise via McConfig; x0, the noise
        # dimension and the horizon grid via the integrator's own check
        try:
            self.mc_config()
            if (self.model is not None and self.x0 is not None
                    and self.process is not None):
                check_run(self.model, self.x0, self.process.dimension,
                          self.h_noise, self.integrator)
        except ValueError as e:
            raise ConfigError(str(e))

        self.certificate = None
        if "certificate" in raw:
            self.certificate = self._parse_certificate(raw["certificate"])

        nc = raw.get("noise_check", {})
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

        settle = raw.get("settle", {})
        self.settled_threshold = _number(settle.get(
            "settled_fraction_threshold", defaults.SETTLED_FRACTION_THRESHOLD),
            "settle.settled_fraction_threshold")

    @staticmethod
    def _parse_noise(block):
        if not isinstance(block, dict):
            raise ConfigError("field noise must be an object")
        kind = _require(block, "kind", "noise")
        h_noise = _positive(block.get("h_noise", defaults.H_NOISE), "noise.h_noise")
        try:
            if kind == "random-phase-cosine":
                process = make_random_phase_cosine(
                    _require(block, "amplitudes", "noise"),
                    _require(block, "omegas", "noise"))
            elif kind == "filtered-white-noise":
                process = make_filtered_white_noise(
                    _positive(_require(block, "intensity", "noise"), "noise.intensity"),
                    _positive(_require(block, "tau_f", "noise"), "noise.tau_f"),
                    int(block.get("dimension", 1)))
            elif kind == "zero":
                process = zero_process(int(block.get("dimension", 1)))
            else:
                raise ConfigError(f"field noise.kind: unknown kind {kind!r}")
        except ValueError as e:
            raise ConfigError(f"field noise: {e}")
        return process, h_noise

    @staticmethod
    def _parse_integrator(block):
        if not isinstance(block, dict):
            raise ConfigError("field integrator must be an object")
        try:
            return IntegratorConfig(
                h=float(block.get("h", defaults.STEP)),
                horizon=float(block.get("horizon", 10.0)),
                eps_settle=float(block.get("eps_settle", defaults.EPS_SETTLE)),
                eps_absorb=(None if block.get("eps_absorb") is None
                            else float(block["eps_absorb"])),
                absorb_at_origin=bool(block.get("absorb_at_origin", True)))
        except ValueError as e:
            raise ConfigError(f"field integrator: {e}")

    def _parse_certificate(self, block):
        if not isinstance(block, dict):
            raise ConfigError("field certificate must be an object")
        if self.model is None:
            raise ConfigError("field certificate requires a model")
        data = dict(block)
        if "V" not in data:
            data["V"] = ("half-square-arctan" if self.model.n == 1
                         else "half-square-norm")
        for key in ("gamma", "c1", "c2", "K", "alpha1", "alpha2"):
            _require(data, key, "certificate")
        try:
            return certificate_from_dict(data, self.model.n)
        except ConstantConditionError:
            raise
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"field certificate: {e}")

    def mc_config(self) -> McConfig:
        return McConfig(n_paths=self.n_paths, master_seed=self.master_seed,
                        integrator=self.integrator, h_noise=self.h_noise,
                        jobs=self.jobs)


def load_config(path, seed_override=None, jobs=1, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return ExperimentConfig(raw, seed_override=seed_override, jobs=jobs,
                            out_override=out_override)


def cmd_noise_check(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "noise")
    moment, wlln, max_ratio = check_noise(
        cfg.process, cfg.nc_paths, cfg.nc_horizon, cfg.h_noise, cfg.master_seed,
        cfg.nc_times, cfg.nc_delta,
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
                               seed=cfg.master_seed)
    drift = verify_drift(cert, cfg.model, box_radius=5.0, n=4000,
                         t_grid=[0.0], tol=defaults.SAMPLED_INEQUALITY_TOL,
                         seed=cfg.master_seed)
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


def cmd_simulate(cfg: ExperimentConfig) -> int:
    _require_fields(cfg, "model", "x0", "noise")
    path = sample_path(cfg.process, 0.0, cfg.integrator.horizon, cfg.h_noise,
                       path_seed(cfg.master_seed, 0))
    traj = integrate_path(cfg.model, path, cfg.x0, cfg.integrator)
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
    if cfg.certificate is not None and cfg.n_paths < defaults.MIN_PATHS_FOR_BOUND:
        raise ConfigError(
            f"field mc.n_paths: bound checks need at least "
            f"{defaults.MIN_PATHS_FOR_BOUND} paths, got {cfg.n_paths}")
    stats = estimate_settling(cfg.model, cfg.process, cfg.x0, cfg.mc_config(),
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


def cmd_reproduce(figure: str, out_dir) -> int:
    try:
        files = reproduce_figure(figure, out_dir)
    except ValueError as e:
        raise ConfigError(str(e))
    print("reproduce: wrote " + ", ".join(files))
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
                        help="number of batch chunks (never changes results)")
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
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, out_dir or "out")
        if not config_path:
            raise ConfigError("--config is required for this command")
        cfg = load_config(config_path, seed_override=seed, jobs=jobs,
                          out_override=out_dir)
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
