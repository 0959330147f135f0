"""Command-line front end driven by a JSON experiment configuration.

Commands: noise-check, certify, simulate, settle, reproduce.  ``reproduce``
runs ``simulate``'s single path on one of three built-in configs.
Exit codes: 0 success, 1 check/bound failure (or blow-up, or a model
evaluator that returns NaN, or a certify settling bound that is not
finite), 2 configuration error.  A configuration error never leaves
partial output files: the whole config is validated and all objects are
constructed before anything is written.

``COMMANDS`` maps each config command to its handler and the top-level
config blocks it needs.  A handler ``cmd_*(cfg, jobs)`` computes everything,
``noise-check`` and ``settle`` with their paths split across up to ``jobs``
processes (``--jobs``, by default the usable CPUs; the single-path commands
ignore it), and returns the tuple ``(outputs, ok, line)``: the files it
writes (name -> data, in write order; a dict for a ``.json`` name, a CSV
``(header, columns)`` pair otherwise), whether its checks passed, and its
one-line summary.  ``main`` then writes the outputs in one step with
``fileio.write_outputs``, prints the line and exits 0 or 1, so a command
that stops before that step leaves no files.  ``reproduce_figure`` writes
its CSV through the same function.

Every field of a config block is read through one ``_Block`` reader, which
names the field once by its key: it reports the field as ``<block>.<key>``,
applies the default, raises "missing required field" for an absent field
without one, and reads null as absent for a field whose default is None.
All of a block's fields are read before any object is built from them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import defaults
from .certify import (LYAPUNOV_FUNCTIONS, Certificate, PowerLaw,
                      settling_bound_at, verify_drift, verify_sandwich)
from .errors import ConfigError, ConstantConditionError, EvaluatorError
from .fileio import fmt, write_outputs
from .integrate import IntegratorConfig, check_run, integrate_path, \
    steps_per_cell
from .montecarlo import McConfig, estimate_settling
from .noise import (check_noise, grid_points, l1_window,
                    make_filtered_white_noise, make_random_phase_cosine,
                    path_seed, sample_path, zero_process)
from .parallel import usable_cpus
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


def _shown(value) -> str:
    """``repr(value)`` for an error message; an integer of more than 20
    digits is given by its length, so the message stays one short line."""
    if isinstance(value, int) and abs(value) >= 10 ** 20:
        return f"an integer of {len(str(abs(value)))} digits"
    return repr(value)


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
        raise ConfigError(f"field {where} must be finite, got {_shown(value)}")
    if above is not None and v <= above:
        raise ConfigError(f"field {where} must be > {above:g}, got {_shown(v)}")
    return v


def _numbers(value, where: str) -> list:
    """A number or a list of numbers, each checked by ``_number``."""
    return [_number(v, where) for v in (value if isinstance(value, list) else [value])]


def _out_dir(raw: dict, override) -> str:
    """``override`` unless it is None, else ``raw``'s out_dir or "out"."""
    out_dir = raw.get("out_dir", "out") if override is None else override
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("field out_dir must be a non-empty string")
    return out_dir


_REQUIRED = object()


class _Block:
    """The reader of one top-level config object (empty when absent).

    Each field is named once, by its key: the reader reports it as
    ``<block>.<key>``, applies its default, and raises "missing required
    field" for an absent field that has none.  A field whose default is
    None reads null as absent.
    """

    def __init__(self, raw: dict, name: str):
        self.data, self.name = raw.get(name, {}), name
        if not isinstance(self.data, dict):
            raise ConfigError(f"field {name} must be an object")

    def get(self, key: str, default=_REQUIRED):
        if key not in self.data and default is _REQUIRED:
            raise ConfigError(f"missing required field: {self.name}.{key}")
        return self.data.get(key, default)

    def number(self, key: str, default=_REQUIRED, kind=float, above=None):
        value = self.get(key, default)
        if value is None and default is None:
            return None
        return _number(value, f"{self.name}.{key}", kind, above)

    def count(self, key: str, default: int, above: int) -> int:
        """An integer count (of paths, of noise channels): above ``above``,
        and below the largest index an array can have, the bound the noise
        grids keep too."""
        n = self.number(key, default, int, above=above)
        if not n < np.iinfo(np.intp).max:
            raise ConfigError(f"field {self.name}.{key} must be < "
                              f"{np.iinfo(np.intp).max}, got {_shown(n)}")
        return n

    def numbers(self, key: str) -> list:
        return _numbers(self.get(key), f"{self.name}.{key}")


class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    def __init__(self, raw: dict, seed_override=None, out_override=None):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.out_dir = _out_dir(raw, out_override)

        self.model = None
        if "model" in raw:
            try:
                self.model = get_model(raw["model"])
            except ValueError as e:
                raise ConfigError(f"field model: {e}")

        self.x0 = None
        if "x0" in raw:
            self.x0 = np.array(_numbers(raw["x0"], "x0"))
            if self.model is not None and self.x0.shape != (self.model.n,):
                raise ConfigError(f"field x0: expected {self.model.n} "
                                  f"components, got {self.x0.shape}")

        self.process, h_noise = (self._parse_noise(_Block(raw, "noise"))
                                 if "noise" in raw else (None, defaults.H_NOISE))

        integrator = self._parse_integrator(_Block(raw, "integrator"))

        mc = _Block(raw, "mc")
        master_seed = mc.number("master_seed", 0, int, above=-1)
        if seed_override is not None:
            master_seed = _number(seed_override, "mc.master_seed", int, above=-1)
        n_paths = mc.count("n_paths", 100, above=1)
        # when the config has a run: x0, the noise dimension, h | h_noise
        # and the horizon grid via the integrator's own check, and the noise
        # on the run's grid via the noise grid rule, as noise-check's below
        try:
            self.mc = McConfig(n_paths=n_paths, master_seed=master_seed,
                               integrator=integrator, h_noise=h_noise)
            if (self.model is not None and self.x0 is not None
                    and self.process is not None):
                check_run(self.model, self.x0, self.process.dimension,
                          h_noise, integrator)
                grid_points(self.process, integrator.horizon, h_noise)
        except ValueError as e:
            raise ConfigError(str(e))

        self.certificate = (self._parse_certificate(_Block(raw, "certificate"))
                            if "certificate" in raw else None)

        nc = _Block(raw, "noise_check")
        self.nc_paths = nc.count("n_paths", defaults.NOISE_CHECK_PATHS, above=1)
        self.nc_horizon = nc.number("horizon", defaults.NOISE_CHECK_HORIZON, above=0)
        self.nc_delta = nc.number("delta", defaults.WLLN_DELTA, above=0)
        times = nc.get("check_times", [self.nc_horizon])
        if not isinstance(times, list) or not times:
            raise ConfigError("field noise_check.check_times must be a non-empty list")
        self.nc_times = sorted(_number(t, "noise_check.check_times", above=0)
                               for t in times)
        self.nc_k_bound = nc.number("k_bound", None, above=0)
        self.nc_t_min = nc.number("t_min", defaults.L1_T_MIN, above=0)
        if self.nc_t_min > self.nc_horizon:    # no grid time would be checked
            raise ConfigError(f"field noise_check.t_min = {self.nc_t_min:g} must not "
                              f"exceed noise_check.horizon = {self.nc_horizon:g}")
        span = max(self.nc_horizon, *self.nc_times)    # noise-check's grid
        try:
            grid_points(self.process or zero_process(), span, h_noise)
        except ValueError as e:
            field = "horizon" if span == self.nc_horizon else "check_times"
            raise ConfigError(f"field noise_check.{field} = {span:g}: {e}")
        try:    # a horizon within float jitter past a grid time ends there
            l1_window(h_noise, grid_points(self.process or zero_process(),
                                           self.nc_horizon, h_noise), self.nc_t_min)
        except ValueError as e:
            raise ConfigError(f"field noise_check.t_min: {e}")

        self.settled_threshold = _Block(raw, "settle").number(
            "settled_fraction_threshold", defaults.SETTLED_FRACTION_THRESHOLD)
        if not 0.0 <= self.settled_threshold <= 1.0:
            raise ConfigError("field settle.settled_fraction_threshold must lie "
                              f"in [0, 1], got {self.settled_threshold}")

    @staticmethod
    def _parse_noise(noise: _Block):
        kind = noise.get("kind")
        h_noise = noise.number("h_noise", defaults.H_NOISE, above=0)
        if kind == "random-phase-cosine":
            make, args = make_random_phase_cosine, (noise.numbers("amplitudes"),
                                                    noise.numbers("omegas"))
        elif kind == "filtered-white-noise":
            make, args = make_filtered_white_noise, (
                noise.number("intensity", above=0), noise.number("tau_f", above=0),
                noise.count("dimension", 1, above=0))
        elif kind == "zero":
            make, args = zero_process, (noise.count("dimension", 1, above=0),)
        else:
            raise ConfigError(f"field noise.kind: unknown kind {kind!r}")
        try:
            return make(*args), h_noise
        except (TypeError, ValueError) as e:
            raise ConfigError(f"field noise: {e}")

    @staticmethod
    def _parse_integrator(integrator: _Block):
        absorb = integrator.get("absorb_at_origin", True)
        if not isinstance(absorb, bool):
            raise ConfigError("field integrator.absorb_at_origin must be "
                              f"true or false, got {absorb!r}")
        fields = {key: integrator.number(key, default) for key, default in (
            ("h", defaults.STEP), ("horizon", 10.0),
            ("eps_settle", defaults.EPS_SETTLE), ("eps_absorb", None))}
        try:
            return IntegratorConfig(absorb_at_origin=absorb, **fields)
        except ValueError as e:
            raise ConfigError(f"field integrator: {e}")

    def _parse_certificate(self, cert: _Block):
        if self.model is None:
            raise ConfigError("field certificate requires a model")
        # every field is read before the try, as ConfigError is a ValueError
        gamma, c1, c2, noise_bound = map(cert.number, ("gamma", "c1", "c2", "K"))
        # the alphas are checked, not converted: certify_report.json echoes
        # their JSON values
        alpha = {}
        for key in ("alpha1", "alpha2"):
            alpha[key] = cert.get(key)
            for k, v in (alpha[key].items() if isinstance(alpha[key], dict) else ()):
                _number(v, f"certificate.{key}.{k}")
        name = cert.get("V", "half-square-arctan" if self.model.n == 1
                        else "half-square-norm")
        try:
            if name not in LYAPUNOV_FUNCTIONS:
                raise ValueError(f"unknown Lyapunov function name: {name!r} "
                                 f"(known: {sorted(LYAPUNOV_FUNCTIONS)})")
            v_fn, grad_fn = LYAPUNOV_FUNCTIONS[name]
            return Certificate(
                state_dim=self.model.n, V=v_fn, gradV=grad_fn, c1=c1, c2=c2,
                noise_bound=noise_bound, alpha1=PowerLaw(**alpha["alpha1"]),
                alpha2=PowerLaw(**alpha["alpha2"]), gamma=gamma, lyapunov_name=name)
        except ConstantConditionError:
            raise
        except (ValueError, TypeError) as e:
            raise ConfigError(f"field certificate: {e}")


def load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return ExperimentConfig(raw, seed_override, out_override)


def cmd_noise_check(cfg: ExperimentConfig, jobs: int):
    """The moment, WLLN and L1 checks of the noise, decided here from the
    numbers ``check_noise`` measured: the moment estimate's lower 95%
    limit against K, the WLLN violation fraction at the last check time
    against ``WLLN_FRACTION_THRESHOLD`` and the largest L1 ratio against 1.
    K is ``noise_check.k_bound``, else the process's declared mean square.
    """
    k = cfg.nc_k_bound or cfg.process.declared_mean_square
    est, hw, fractions, max_ratio = check_noise(
        cfg.process, cfg.nc_paths, cfg.nc_horizon, cfg.mc.h_noise,
        cfg.mc.master_seed, cfg.nc_times, cfg.nc_delta, k, cfg.nc_t_min, jobs)
    # an estimate or half-width that overflowed decides nothing: it fails
    passed = {"moment": math.isfinite(est) and math.isfinite(hw) and est - hw <= k,
              "wlln": bool(fractions[-1] <= defaults.WLLN_FRACTION_THRESHOLD),
              "l1": max_ratio <= 1.0}
    report = {
        "moment": {"estimate": est, "half_width": hw, "n_paths": cfg.nc_paths,
                   "k_bound": k, "passed": passed["moment"]},
        "wlln": {"times": cfg.nc_times, "fractions": fractions,
                 "delta": cfg.nc_delta, "passed": passed["wlln"]},
        "l1": {"max_ratio": max_ratio, "t_min": cfg.nc_t_min, "passed": passed["l1"]},
    }
    verdicts = " ".join(f"{name}={'pass' if ok else 'FAIL'}"
                        for name, ok in passed.items())
    return ({"noise_check.json": report}, all(passed.values()),
            f"noise-check: {verdicts}")


def cmd_certify(cfg: ExperimentConfig, jobs: int):
    cert = cfg.certificate
    sampled = dict(box_radius=defaults.CERTIFY_BOX_RADIUS, n=defaults.CERTIFY_SAMPLES,
                   tol=defaults.SAMPLED_INEQUALITY_TOL, seed=cfg.mc.master_seed)
    lower, upper = verify_sandwich(cert, **sampled)
    drift, gain = verify_drift(cert, cfg.model, t_grid=[0.0], **sampled)
    sandwich_ok = lower.passed and upper.passed
    drift_ok = drift.passed and gain.passed
    bound = settling_bound_at(cert, cfg.x0)
    report = {
        "constant_condition": {"c1": cert.c1,
                               "two_c2_sqrt_k": 2.0 * cert.c2 * cert.noise_bound ** 0.5,
                               "passed": True},
        "sandwich": {"lower": lower.to_dict(), "upper": upper.to_dict(),
                     "passed": sandwich_ok},
        "drift": {"drift": drift.to_dict(), "gain": gain.to_dict(),
                  "passed": drift_ok},
        "settling_bound_at_x0": bound,
        "certificate": cert.to_dict(),
    }
    # a bound that is not finite (V(x0) overflowed) certifies nothing
    return ({"certify_report.json": report},
            sandwich_ok and drift_ok and math.isfinite(bound),
            f"certify: sandwich={'pass' if sandwich_ok else 'FAIL'} "
            f"drift={'pass' if drift_ok else 'FAIL'} "
            f"settling bound at x0 = {fmt(bound)}")


def run_single_path(cfg: ExperimentConfig):
    """Sample path 0 of the master seed and integrate it from x0; returns
    the noise path and the trajectory."""
    path = sample_path(cfg.process, 0.0, cfg.mc.integrator.horizon, cfg.mc.h_noise,
                       path_seed(cfg.mc.master_seed, 0))
    return path, integrate_path(cfg.model, path, cfg.x0, cfg.mc.integrator)


def _trajectory_csv(traj) -> tuple:
    """The ``t,x_1,...,x_n`` CSV pair of a trajectory."""
    return ["t"] + [f"x_{i + 1}" for i in range(traj.n)], [traj.times(), *traj.states.T]


def cmd_simulate(cfg: ExperimentConfig, jobs: int):
    traj = run_single_path(cfg)[1]
    outputs = {"trajectory.csv": _trajectory_csv(traj), "trajectory.json": {
        "settled": traj.settled, "settle_time": traj.settle_time, "seed": traj.seed,
        "blowup": traj.blowup, "blowup_time": traj.blowup_time}}
    if traj.blowup:
        return outputs, False, f"simulate: blow-up at t = {fmt(traj.blowup_time)}"
    return outputs, True, (f"simulate: settled={traj.settled}" + (
        f" settle_time={fmt(traj.settle_time)}" if traj.settled else ""))


def cmd_settle(cfg: ExperimentConfig, jobs: int):
    """Settle's two verdicts, decided here from the numbers
    ``estimate_settling`` measured: the settled fraction against
    ``settle.settled_fraction_threshold`` and, with a certificate, the
    settle times against the expected-settling-time bound at V(x0), as
    ``certify`` evaluates it.  The bound check is one-sided (mean -
    half_width <= bound), as the certificate bounds the expectation from
    above; a bound that is not finite, or a mean that was not measured,
    fails it.  It needs at least ``MIN_PATHS_FOR_BOUND`` paths.
    """
    cert = cfg.certificate
    if cert is not None and cfg.mc.n_paths < defaults.MIN_PATHS_FOR_BOUND:
        raise ConfigError(
            f"field mc.n_paths: bound checks need at least "
            f"{defaults.MIN_PATHS_FOR_BOUND} paths, got {cfg.mc.n_paths}")
    stats = estimate_settling(cfg.model, cfg.process, cfg.x0, cfg.mc, jobs=jobs)
    bound = bound_ok = None
    if cert is not None:
        bound = settling_bound_at(cert, cfg.x0)
        bound_ok = (stats.mean is not None and math.isfinite(bound)
                    and stats.mean - stats.half_width <= bound)
    ok = stats.settled_fraction >= cfg.settled_threshold and bound_ok is not False
    report = dict(stats.to_dict(), bound_from_certificate=bound,
                  bound_satisfied=bound_ok)
    outputs = {"settle_stats.json": report, "settle_paths.csv": (
        ["path_index", "seed", "settled", "settle_time"],
        [np.arange(stats.n_paths), stats.seeds, stats.settled_mask,
         stats.settle_times])}
    return outputs, ok, (
        f"settle: fraction={stats.settled_fraction:.4f} "
        f"mean={stats.mean if stats.mean is None else fmt(stats.mean)} "
        f"bound={bound if bound is None else fmt(bound)}")


# each config command's handler and the top-level config blocks it needs
COMMANDS = {
    "noise-check": (cmd_noise_check, ("noise",)),
    "certify": (cmd_certify, ("certificate", "model", "x0")),
    "simulate": (cmd_simulate, ("model", "x0", "noise")),
    "settle": (cmd_settle, ("model", "x0", "noise", "mc")),
}


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
    if name == "fig3":
        # each integration step holds the noise value of its cell
        m = steps_per_cell(cfg.mc.integrator.h, cfg.mc.h_noise)
        times = traj.times()
        pair = (["t", "u", "xi_1"],
                [times, stabilizing_controller(traj.states[:, 0]),
                 path.values[np.arange(times.size) // m, 0]])
    else:
        pair = _trajectory_csv(traj)
    return write_outputs(out_dir, {f"{name}.csv": pair})


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to the JSON experiment config")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (overrides config out_dir)")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the master seed")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for the paths of noise-check "
                             "and settle, >= 1 (default: the usable CPUs); "
                             "the results do not depend on it")
    parser = argparse.ArgumentParser(
        prog="settlekit", parents=[shared],
        description="Simulate randomly forced nonlinear systems and check "
                    "finite-time settling certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    rep = sub.add_parser("reproduce", parents=[shared])
    rep.add_argument("figure", help="fig1, fig2, or fig3")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = getattr(args, "config", None)
    out_dir = getattr(args, "out", None)
    seed = getattr(args, "seed", None)
    jobs = getattr(args, "jobs", usable_cpus())
    try:
        # checked for every command, though reproduce uses neither value
        if jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if args.command == "reproduce":
            paths = reproduce_figure(args.figure, _out_dir({}, out_dir))
            print("reproduce: wrote " + ", ".join(paths))
            return 0
        if not config_path:
            raise ConfigError("--config is required for this command")
        cfg = load_config(config_path, seed_override=seed, out_override=out_dir)
        handler, needs = COMMANDS[args.command]
        for block in needs:
            if block not in cfg.raw:
                raise ConfigError(f"missing required field: {block}")
        outputs, ok, line = handler(cfg, jobs)
        write_outputs(cfg.out_dir, outputs)
        print(line)
        return 0 if ok else 1
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ConstantConditionError as e:
        print(f"certificate rejected: {e}", file=sys.stderr)
        return 1
    except EvaluatorError as e:
        print(f"evaluator error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
