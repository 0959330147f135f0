"""The four benchmark workloads: one CLI invocation each, built from one config.

Every config starts from the README config.  The workload seed reaches the
program only through the CLI's ``--seed`` flag; the config keeps the
README's ``master_seed``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

README_CONFIG = {
    "model": "example1",
    "x0": [1.0, 1.0],
    "noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
              "omegas": [1.0, 2.0], "h_noise": 0.01},
    "integrator": {"h": 0.001, "horizon": 20.0, "eps_settle": 1e-4,
                   "eps_absorb": None, "absorb_at_origin": True},
    "certificate": {"gamma": 0.6666666666666666,
                    "c1": 1.5874010519681994, "c2": 1.5874010519681994,
                    "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                    "alpha2": {"a": 0.5, "b": 2}, "V": "half-square-norm"},
    "mc": {"n_paths": 500, "master_seed": 2024},
    "noise_check": {"n_paths": 200, "horizon": 50.0, "delta": 0.1,
                    "check_times": [50.0], "k_bound": None, "t_min": 1.0},
    "settle": {"settled_fraction_threshold": 0.99},
    "out_dir": "out",
}


def _variant(**changes) -> dict:
    """README config with whole top-level blocks or dotted fields replaced."""
    cfg = copy.deepcopy(README_CONFIG)
    for key, value in changes.items():
        block, _, leaf = key.partition("__")
        if leaf:
            cfg[block][leaf] = value
        else:
            cfg[block] = value
    return cfg


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                # CLI subcommand
    config: dict
    outputs: tuple              # files the command writes into --out
    work_name: str              # what one unit of work_per_s counts
    jobs: int | None = None     # --jobs, None for the CLI default

    def cli_args(self, config_path: str, out_dir: str, seed: int) -> list:
        args = ["--config", config_path, "--out", out_dir, "--seed", str(seed)]
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        return args + [self.command]

    @property
    def work(self) -> int:
        """Nominal work units of one invocation (independent of the seed)."""
        cfg = self.config
        integ = cfg["integrator"]
        n_steps = round(integ["horizon"] / integ["h"])
        if self.command == "settle":
            return cfg["mc"]["n_paths"] * n_steps
        if self.command == "simulate":
            return n_steps
        nc = cfg["noise_check"]
        grid_points = round(nc["horizon"] / cfg["noise"]["h_noise"]) + 1
        return nc["n_paths"] * grid_points * len(cfg["noise"]["amplitudes"])


# Exact example2 certificate (README, "The stabilizing feedback for example2").
EX2_CERTIFICATE = {
    "gamma": 2.0 / 3.0, "c1": 2.0 ** (2.0 / 3.0), "c2": 2.0 ** (-1.0 / 3.0),
    "K": 0.25, "alpha1": {"a": 1.0 / 32.0, "b": 2}, "alpha2": {"a": 0.5, "b": 2},
    "V": "half-square-arctan",
}

WORKLOADS = {w.name: w for w in [
    Workload(
        name="settle-readme", command="settle", config=_variant(),
        outputs=("settle_stats.json", "settle_paths.csv"),
        work_name="path_steps"),
    Workload(
        name="settle-ex2-live", command="settle", jobs=2,
        config=_variant(
            model="example2-closed", x0=[3.0],
            noise={"kind": "filtered-white-noise", "intensity": 0.5,
                   "tau_f": 1.0, "dimension": 1, "h_noise": 0.01},
            certificate=EX2_CERTIFICATE,
            integrator__absorb_at_origin=False, integrator__horizon=10.0,
            mc__n_paths=1000),
        outputs=("settle_stats.json", "settle_paths.csv"),
        work_name="path_steps"),
    Workload(
        name="noise-check-scaled", command="noise-check",
        config=_variant(noise_check__n_paths=2000),
        outputs=("noise_check.json",),
        work_name="noise_samples"),
    Workload(
        name="simulate-live", command="simulate",
        config=_variant(integrator__absorb_at_origin=False),
        outputs=("trajectory.csv", "trajectory.json"),
        work_name="traj_steps"),
]}
