"""Tests for the CLI: exit codes, outputs, and reproducibility."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import settlekit as sk
from settlekit import defaults, noise, parallel
from settlekit.certify import LYAPUNOV_FUNCTIONS, Certificate, PowerLaw
from settlekit.cli import cmd_settle, load_config, main
from settlekit.fileio import write_json, write_outputs
from test_imports import readme_config

TWO_23 = 2.0 ** (2.0 / 3.0)


def base_config(out_dir, n_paths=60, horizon=5.0):
    return {
        "model": "example1",
        "x0": [1.0, 1.0],
        "noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
                  "omegas": [1.0, 2.0], "h_noise": 0.01},
        "integrator": {"h": 0.002, "horizon": horizon},
        "mc": {"n_paths": n_paths, "master_seed": 31415},
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def file_digests(out_dir, *names) -> list:
    """SHA-256 of each named output file; the pins were taken before the
    writers formatted whole columns by dtype."""
    return [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names]


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "simulate"]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["--config", str(p), "simulate"]) == 2

    def test_unknown_model(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["model"] = "example99"
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 2

    def test_wrong_x0_length(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["x0"] = [1.0]
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 2

    def test_incomplete_noise_block(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["noise"] = {"kind": "random-phase-cosine"}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 2

    def test_empty_certificate_block(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["certificate"] = {}
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == 2

    def test_unknown_lyapunov_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["certificate"] = {"V": "mystery", "gamma": 0.5, "c1": 1, "c2": 0.1,
                              "K": 0.0, "alpha1": {"a": 1, "b": 2},
                              "alpha2": {"a": 1, "b": 2}}
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: field certificate: unknown "
                              "Lyapunov function name: 'mystery'")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_no_partial_outputs_on_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["noise"] = {"kind": "banana"}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 2
        assert not out.exists()

    def test_step_must_divide_noise_grid(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["integrator"]["h"] = 0.003
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 2

    def test_noise_alone_has_no_step_to_divide(self, tmp_path):
        # h | h_noise is a rule of a run's grid; noise-check samples no run
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "zero", "h_noise": 0.0015},
               "noise_check": {"n_paths": 4, "horizon": 3.0}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 0
        assert (out / "noise_check.json").is_file()

    @pytest.mark.parametrize("noise_block", [
        {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0},
        {"kind": "zero"}], ids=["filtered", "zero"])
    def test_noise_dimension_follows_the_count_rule(self, tmp_path, capsys,
                                                    noise_block):
        out = tmp_path / "out"
        cfg = {"noise": dict(noise_block, dimension=10 ** 400), "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: field noise.dimension")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_horizon_must_be_multiple_of_step(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["integrator"]["horizon"] = 5.001     # h = 0.002
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert "multiple of h" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_horizon_below_one_step_is_a_config_error(self, tmp_path, capsys,
                                                      command):
        # 1e-12 is within the multiple-of-h tolerance of 0 steps of 0.002
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=4)
        cfg["integrator"]["horizon"] = 1e-12
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            "configuration error: integrator.horizon = 1e-12 is less than one "
            "step of h=0.002; a run takes at least one step\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle", "reproduce"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = (["reproduce", "fig1", "--out", str(out)] if command == "reproduce"
                else ["--config", write_config(tmp_path, base_config(out)), command])
        assert main(["--jobs", "0"] + args) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduce_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--seed", "-1", "reproduce", "fig1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: seed must be >= 0")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,field,value", [
        ("settle", "mc.n_paths", "ten"),
        ("simulate", "x0", ["a", 1]),
        ("simulate", "mc.master_seed", "x"),
        ("settle", "settle.settled_fraction_threshold", "x"),
        ("settle", "settle.settled_fraction_threshold", 1.5),
        ("settle", "settle.settled_fraction_threshold", -0.1),
        ("noise-check", "noise_check.n_paths", 1),
        ("noise-check", "noise_check.n_paths", "x"),
        ("noise-check", "noise_check.check_times", []),
        ("noise-check", "noise_check.check_times", [0.0]),
        ("noise-check", "noise_check.t_min", 60.0),    # above horizon 50
        ("simulate", "integrator.absorb_at_origin", "false"),
        ("simulate", "integrator.absorb_at_origin", "true"),
        ("settle", "integrator.absorb_at_origin", 0),
        ("settle", "integrator.absorb_at_origin", None),
        ("settle", "mc", 3),
        ("simulate", "integrator.h", None),
        ("simulate", "integrator.horizon", math.inf),
        ("noise-check", "noise.h_noise", math.inf),
        ("noise-check", "noise.amplitudes", None),
        ("simulate", "noise.amplitudes", [math.nan, 0.3]),
        ("simulate", "mc.master_seed", -1),
        ("simulate", "model", ["example1"]),
        ("simulate", "out_dir", ""),
        ("settle", "mc.n_paths", 500.7),
        ("simulate", "mc.master_seed", 2024.5),
        ("noise-check", "noise_check.n_paths", "200"),
        ("simulate", "mc.master_seed", True),
        ("simulate", "integrator.horizon", True),
        ("simulate", "integrator.horizon", "20"),
        ("simulate", "x0", ["1", 1.0]),
        ("noise-check", "noise.amplitudes", [0.3, "0.3"]),
        ("certify", "certificate.K", "0.09"),
        ("certify", "certificate.gamma", False),
        ("certify", "certificate.alpha1.a", "0.5"),
        ("settle", "mc.n_paths", 1),
        ("simulate", "integrator.horizon", 10 ** 400),
        ("settle", "mc.n_paths", -10 ** 400),
        ("noise-check", "noise_check.n_paths", 1e300),
        ("simulate", "mc.n_paths", 1e300),
        ("certify", "mc.n_paths", 2 ** 63 - 1),
    ], ids=["n_paths-ten", "x0-string", "master_seed-x", "threshold-x",
            "threshold-above-1", "threshold-below-0",
            "nc_paths-1", "nc_paths-x", "check_times-empty", "check_times-0",
            "t_min-above-horizon", "absorb-string-false", "absorb-string-true",
            "absorb-0", "absorb-null", "mc-not-object", "h-null", "horizon-inf",
            "h_noise-inf", "amplitudes-null", "amplitudes-nan",
            "master_seed-negative",
            "model-list", "out_dir-empty", "int-fraction", "seed-fraction",
            "int-string", "int-bool", "float-bool", "float-string",
            "x0-numeric-string", "amplitudes-numeric-string",
            "K-numeric-string", "gamma-bool", "alpha-numeric-string",
            "n_paths-1", "horizon-int-overflow", "n_paths-long-negative",
            "nc_paths-unindexable", "n_paths-unindexable", "n_paths-intp-max"])
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, command,
                                               field, value):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["noise_check"] = {"n_paths": 5, "horizon": 50.0}
        cfg["certificate"] = {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                              "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                              "alpha2": {"a": 0.5, "b": 2}}
        *blocks, key = field.split(".")
        node = cfg
        for block in blocks:
            node = node.setdefault(block, {})
        node[key] = value
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: field {field}")
        assert err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,field,value,message", [
        ("simulate", "noise.amplitudes", [], "amplitudes must be non-empty"),
        ("simulate", "noise.amplitudes", [0.3],
         "amplitudes and omegas must have equal length"),
        ("simulate", "integrator.h", 0, "step h must be positive"),
        ("settle", "integrator.eps_settle", 0, "eps_settle must be positive"),
    ], ids=["amplitudes-empty", "amplitudes-unequal", "h-0", "eps_settle-0"])
    def test_invalid_block_is_a_config_error(self, tmp_path, capsys, command,
                                             field, value, message):
        out = tmp_path / "out"
        cfg = base_config(out)
        block, key = field.split(".")
        cfg[block][key] = value
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: field {block}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config,command,message", [
        ("list", "simulate", "config root must be a JSON object"),
        ("no-model", "certify", "field certificate requires a model"),
        (None, "settle", "--config is required for this command"),
    ], ids=["list-root", "certificate-without-model", "settle-without-config"])
    def test_config_shape_is_checked(self, tmp_path, capsys, monkeypatch,
                                     config, command, message):
        monkeypatch.chdir(tmp_path)
        cfg = base_config("out")
        cfg["certificate"] = TestCertify().cert_block()
        del cfg["model"]
        args = [command]
        if config is not None:
            root = [cfg] if config == "list" else cfg
            args = ["--config", write_config(tmp_path, root)] + args
        assert main(args) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert os.listdir(tmp_path) == ([] if config is None else ["config.json"])

    def test_integral_floats_are_integers(self, tmp_path):
        reports = []
        for kind in (int, float):
            out = tmp_path / kind.__name__
            cfg = base_config(out)
            cfg["mc"]["master_seed"] = kind(cfg["mc"]["master_seed"])
            cfg["noise_check"] = {"n_paths": kind(5), "horizon": 5.0}
            assert main(["--config", write_config(tmp_path, cfg),
                         "noise-check"]) == 0
            reports.append((out / "noise_check.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["moment"]["n_paths"] == 5

    @pytest.mark.parametrize("command", ["simulate", "settle", "noise-check",
                                         "reproduce"])
    def test_out_dir_under_a_file(self, tmp_path, capsys, command):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "sub"
        cfg = base_config(out)
        cfg["noise_check"] = {"n_paths": 5, "horizon": 5.0}
        args = (["reproduce", "fig2", "--out", str(out)] if command == "reproduce"
                else ["--config", write_config(tmp_path, cfg), command])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["afile"] if command == "reproduce" else ["afile", "config.json"])
        assert blocker.read_text() == ""

    def test_unwritable_output_file_leaves_no_files(self, tmp_path, capsys):
        # simulate writes trajectory.csv, then fails on trajectory.json
        od = tmp_path / "od"
        (od / "trajectory.json").mkdir(parents=True)
        cfg = base_config(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, cfg), "simulate",
                     "--out", str(od)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "trajectory.json" in err and "Traceback" not in err
        assert os.listdir(od) == ["trajectory.json"]

    def test_failed_write_removes_the_truncated_file(self, tmp_path, capsys,
                                                     monkeypatch):
        # trajectory.json opens, then its write fails as on a full disk
        def dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(json, "dump", dump)
        od = tmp_path / "od"
        cfg = base_config(tmp_path / "out")
        assert main(["--config", write_config(tmp_path, cfg), "simulate",
                     "--out", str(od)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "trajectory.json" in err and "Traceback" not in err
        assert os.listdir(od) == []

    def test_bound_check_needs_enough_paths(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_paths=20)
        cfg["certificate"] = {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                              "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                              "alpha2": {"a": 0.5, "b": 2},
                              "V": "half-square-norm"}
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 2

    @pytest.mark.parametrize("command,block,key", [
        ("noise-check", "noise", "kind"),
        ("noise-check", "noise", "amplitudes"),
        ("noise-check", "noise", "intensity"),
        ("certify", "certificate", "gamma"),
        ("certify", "certificate", "alpha1"),
    ])
    def test_missing_required_field_is_named(self, tmp_path, capsys, command,
                                             block, key):
        out = tmp_path / "out"
        cfg = base_config(out)
        if key == "intensity":
            cfg["noise"] = {"kind": "filtered-white-noise", "intensity": 0.5,
                            "tau_f": 1.0}
        cfg["certificate"] = TestCertify().cert_block()
        del cfg[block][key]
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: missing required field: {block}.{key}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,block,key,outputs", [
        ("simulate", "integrator", "eps_absorb",
         ("trajectory.csv", "trajectory.json")),
        ("noise-check", "noise_check", "k_bound", ("noise_check.json",)),
    ], ids=["eps_absorb", "k_bound"])
    def test_null_default_field_reads_null_as_absent(self, tmp_path, capsys,
                                                     command, block, key,
                                                     outputs):
        runs = []
        for name in ("absent", "null"):
            out = tmp_path / name
            cfg = base_config(out)
            cfg["noise_check"] = {"n_paths": 5, "horizon": 5.0}
            if name == "null":
                cfg[block][key] = None
            code = main(["--config", write_config(tmp_path, cfg, name + ".json"),
                         command])
            runs.append((code, capsys.readouterr(),
                         [(out / f).read_bytes() for f in outputs]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    @pytest.mark.parametrize("command,field,value,named", [
        ("certify", "integrator.horizon", 1e306, "horizon = 1e+306"),
        ("simulate", "integrator.horizon", 1e300, "horizon = 1e+300"),
        ("simulate", "integrator.h", 1e-300, "h=1e-300"),
        ("noise-check", "noise_check.horizon", 1e300,
         "field noise_check.horizon = 1e+300"),
        ("noise-check", "noise_check.check_times", [1e300],
         "field noise_check.check_times = 1e+300"),
        ("certify", "noise.h_noise", 1e307, "h_noise=1e+307 is inf steps"),
    ], ids=["horizon-overflow", "horizon-unindexable", "h-unindexable",
            "nc_horizon-unindexable", "check_times-unindexable",
            "h_noise-overflow"])
    def test_unindexable_grid_is_a_config_error(self, tmp_path, capsys, command,
                                                field, value, named):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["noise_check"] = {"n_paths": 5, "horizon": 5.0}
        cfg["certificate"] = TestCertify().cert_block()
        block, key = field.split(".")
        cfg[block][key] = value
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err
        assert "than an array can index" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_cosine_phase_overflow_is_a_config_error(self, tmp_path, capsys,
                                                     command):
        # omega t overflows at t = 4.49; every settle path is absorbed by 1.6
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=4)
        cfg["noise"]["omegas"] = [1.0, 4e307]
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            "configuration error: noise omega 4e+307 times the noise grid's "
            "last time 5 overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["noise-check", "certify", "simulate",
                                         "settle"])
    def test_noise_check_grid_phase_overflow_is_a_config_error(
            self, tmp_path, capsys, command):
        # omega t overflows past t = 17.98: on noise-check's grid to 50, not
        # on the run's grid to 10, so every command rejects it at load
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=4, horizon=10.0)
        cfg["noise"]["omegas"] = [1e307, 1.0]
        cfg["noise_check"] = {"n_paths": 5, "horizon": 50.0}
        if command == "certify":
            cfg["certificate"] = TestCertify().cert_block()
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            "configuration error: field noise_check.horizon = 50: noise omega "
            "1e+307 times the noise grid's last time 50 overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,noise_block,message", [
        (command, {"kind": "filtered-white-noise", "intensity": 1e308,
                   "tau_f": 1e-10, "h_noise": 0.01},
         "dimension*intensity/(2 tau_f) = inf")
        for command in ("noise-check", "simulate", "settle")] + [
        ("noise-check", {"kind": "random-phase-cosine", "h_noise": 0.01,
                         "amplitudes": [1e308, 1e308], "omegas": [1.0, 2.0]},
         "sum a_i^2/2 = inf")],
        ids=["filtered-noise-check", "filtered-simulate", "filtered-settle",
             "cosine-noise-check"])
    def test_mean_square_that_is_not_finite_is_a_config_error(
            self, tmp_path, capsys, command, noise_block, message):
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=4)
        if noise_block["kind"] == "filtered-white-noise":
            cfg.update(model="example2-closed", x0=[1.0])
        cfg["noise"] = noise_block
        cfg["noise_check"] = {"n_paths": 5, "horizon": 5.0}
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: field noise: mean square {message} "
            "is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_empty_out_override(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)      # reproduce's default is ./out
        cfg = base_config(tmp_path / "out")
        args = (["reproduce", "fig1"] if command == "reproduce"
                else ["--config", write_config(tmp_path, cfg), command])
        assert main(args + ["--out", ""]) == 2
        assert capsys.readouterr().err == (
            "configuration error: field out_dir must be a non-empty string\n")
        assert not (tmp_path / "out").exists()


class TestNoiseCheck:
    def test_zero_noise_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "zero", "dimension": 2, "h_noise": 0.01},
               "mc": {"master_seed": 1, "n_paths": 10}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 0
        report = json.loads((out / "noise_check.json").read_text())
        assert report["moment"]["estimate"] == 0.0

    def test_cosine_reports_declared_bound(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
                         "omegas": [1.0, 2.0], "h_noise": 0.01},
               "noise_check": {"n_paths": 30, "horizon": 20.0},
               "mc": {"master_seed": 4, "n_paths": 10}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 0
        report = json.loads((out / "noise_check.json").read_text())
        assert report["moment"]["k_bound"] == pytest.approx(0.09)

    def test_each_path_is_sampled_once(self, tmp_path, monkeypatch):
        # the 12 paths split across 3 worker processes; each sampler, in
        # whichever process, appends its seeds as one line of a file
        log = tmp_path / "seeds.txt"
        init = noise.BatchSampler.__init__

        def counted(self, process, h_noise, seeds):
            with open(log, "a") as fh:
                fh.write(" ".join(str(int(s)) for s in seeds) + "\n")
            init(self, process, h_noise, seeds)

        monkeypatch.setattr(noise.BatchSampler, "__init__", counted)
        monkeypatch.setattr(parallel, "MIN_PATHS_PER_WORKER", 4)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        cfg = base_config(tmp_path / "out")
        cfg["noise_check"] = {"n_paths": 12, "horizon": 10.0,
                              "check_times": [4.0, 15.0]}
        main(["--config", write_config(tmp_path, cfg), "--jobs", "3",
              "noise-check"])
        samplers = log.read_text().splitlines()
        drawn = [int(s) for line in samplers for s in line.split()]
        assert sorted(drawn) == sorted(sk.path_seed(31415, i) for i in range(12))
        assert len(samplers) < len(drawn)       # paths are drawn in batches

    @pytest.mark.parametrize("check_times", [[3.0, 12.5], [7.5, 30.0]],
                             ids=["below-horizon", "above-horizon"])
    @pytest.mark.parametrize("noise_block", [
        {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
         "omegas": [1.0, 2.0], "h_noise": 0.01},
        {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0,
         "dimension": 2, "h_noise": 0.01},
    ], ids=["cosine", "filtered"])
    def test_report_matches_separate_statistics(self, tmp_path, noise_block,
                                                check_times):
        out = tmp_path / "out"
        cfg = {"noise": noise_block, "mc": {"master_seed": 8}, "out_dir": str(out),
               "noise_check": {"n_paths": 15, "horizon": 20.0, "delta": 0.05,
                               "check_times": check_times, "t_min": 2.0}}
        main(["--config", write_config(tmp_path, cfg), "noise-check"])
        process = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0]) \
            if noise_block["kind"] == "random-phase-cosine" \
            else sk.make_filtered_white_noise(0.5, 1.0, 2)
        k = process.declared_mean_square
        est, hw = sk.estimate_mean_square(process, 15, 20.0, 0.01, 8)
        fractions = sk.check_wlln(process, check_times, 0.05, 15, 0.01, 8)
        max_ratio = max(
            sk.check_l1_bound(sk.sample_path(process, 0.0, 20.0, 0.01,
                                             sk.path_seed(8, i)), k, 2.0)
            for i in range(15))
        expected = {
            "moment": {"estimate": est, "half_width": hw, "n_paths": 15,
                       "k_bound": k, "passed": est - hw <= k},
            "wlln": {"times": sorted(check_times), "fractions": fractions,
                     "delta": 0.05, "passed": bool(
                         fractions[-1] <= defaults.WLLN_FRACTION_THRESHOLD)},
            "l1": {"max_ratio": max_ratio, "t_min": 2.0,
                   "passed": max_ratio <= 1.0},
        }
        write_json(tmp_path / "expected.json", expected)
        assert ((out / "noise_check.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())

    def test_low_declared_bound_fails(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
                         "omegas": [1.0, 2.0], "h_noise": 0.01},
               "noise_check": {"n_paths": 20, "horizon": 20.0, "k_bound": 0.01},
               "mc": {"master_seed": 5, "n_paths": 10}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 1

    def test_overflowing_half_width_fails(self, tmp_path, capsys):
        # K = 5e159: the estimate is finite, its half-width overflows to inf
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "random-phase-cosine", "amplitudes": [1e80],
                         "omegas": [1.3], "h_noise": 0.01},
               "noise_check": {"n_paths": 20, "horizon": 50.0},
               "mc": {"master_seed": 0}, "out_dir": str(out)}
        code = main(["--config", write_config(tmp_path, cfg), "noise-check"])
        assert code == 1
        assert "moment=FAIL" in capsys.readouterr().out
        report = json.loads((out / "noise_check.json").read_text())
        assert report["moment"]["half_width"] is None
        assert report["moment"]["passed"] is False

    def test_overflowing_statistics_warn_nothing(self, tmp_path, capsys):
        # |xi|^2 of 1e154-sized values overflows: inf and NaN statistics
        # fail their checks, and numpy is told to keep quiet about them
        out = tmp_path / "out"
        cfg = {"noise": {"kind": "filtered-white-noise", "intensity": 1e308,
                         "tau_f": 1.0, "h_noise": 0.01},
               "noise_check": {"n_paths": 20}, "mc": {"master_seed": 0},
               "out_dir": str(out)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", write_config(tmp_path, cfg), "noise-check"])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("noise_cfg", [
        {"kind": "filtered-white-noise", "intensity": 1e308, "tau_f": 1.0},
        {"kind": "random-phase-cosine", "amplitudes": [1e80], "omegas": [1.3]}],
        ids=["filtered", "cosine"])
    def test_overflowing_statistics_write_strict_json(self, tmp_path, noise_cfg):
        # a non-finite statistic is written as null, never as Infinity or NaN
        out = tmp_path / "out"
        cfg = {"noise": {**noise_cfg, "h_noise": 0.01},
               "noise_check": {"n_paths": 20, "horizon": 50.0},
               "mc": {"master_seed": 0}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "noise-check"]) == 1

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        report = json.loads((out / "noise_check.json").read_text(),
                            parse_constant=reject)
        assert report["moment"]["passed"] is False


class TestCertify:
    def cert_block(self, k=0.09):
        return {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23, "K": k,
                "alpha1": {"a": 0.5, "b": 2}, "alpha2": {"a": 0.5, "b": 2},
                "V": "half-square-norm"}

    def test_example1_certificate_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["certificate"] = self.cert_block()
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == 0
        report = json.loads((out / "certify_report.json").read_text())
        assert report["settling_bound_at_x0"] == pytest.approx(3.0 / (0.4 * TWO_23))

    def test_constant_condition_violation_exits_one(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["certificate"] = self.cert_block(k=1.0)
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == 1
        assert not out.exists()


    @pytest.mark.parametrize("changes,code,digest", [
        ({}, 0, "8ab803af8001b121b63cce3df101ce9462dd8e520bc0fcc1df709d4ceb9061cb"),
        ({"c1": 3.0, "c2": 0.5, "alpha1": {"a": 0.55, "b": 2},
          "alpha2": {"a": 0.6, "b": 2}}, 1,
         "91edad96b8db1b76552a50b2049b1b380a1bb579244bad441bdcaa2d4daca13c"),
    ], ids=["readme", "violating"])
    def test_report_bytes_are_pinned(self, tmp_path, changes, code, digest):
        out = tmp_path / "out"
        cfg = readme_config()
        cfg["certificate"].update(changes)
        cfg["out_dir"] = str(out)
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == code
        data = (out / "certify_report.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        if code:
            report = json.loads(data)
            assert len(report["sandwich"]["lower"]["violations"]) == 10
            assert len(report["drift"]["drift"]["violations"]) == 10

    def test_default_lyapunov_report_bytes_are_pinned(self, tmp_path):
        # no V key: the one-state example2 reads half-square-arctan
        out = tmp_path / "out"
        cfg = {"model": "example2-closed", "x0": [3],
               "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                         "tau_f": 1.0, "h_noise": 0.01},
               "certificate": {"gamma": 2.0 / 3.0, "c1": 2.0 ** (2.0 / 3.0),
                               "c2": 2.0 ** (-1.0 / 3.0), "K": 0.25,
                               "alpha1": {"a": 1.0 / 32.0, "b": 2},
                               "alpha2": {"a": 0.5, "b": 2}},
               "mc": {"master_seed": 2024}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "certify"]) == 0
        assert file_digests(out, "certify_report.json") == [
            "711a7d97d8069c5f1375ced8eea0bc12a998651c243ab3231d4dafe9f71b6b00"]

    @pytest.mark.parametrize("x0,alphas,code,line,err", [
        ([1e200, 0], {}, 1, "settling bound at x0 = inf", ""),
        ([1.0, 1.0], {"alpha1": {"a": 0.5, "b": 200},
                      "alpha2": {"a": 0.5, "b": 200}}, 1, "sandwich=FAIL", ""),
        ([1.0, 1.0], {"alpha1": {"a": 1e308, "b": 2}}, 2, "",
         "configuration error: field certificate: alpha1 must not exceed alpha2\n"),
    ], ids=["x0-1e200", "alpha-b-200", "alpha1-a-1e308"])
    def test_overflow_warns_nothing(self, tmp_path, capsys, x0, alphas, code,
                                    line, err):
        # V(x0) overflows to an infinite bound, which fails; the sampled
        # margins and the alpha ordering check read an overflow as inf
        out = tmp_path / "out"
        cfg = readme_config()
        cfg["x0"] = x0
        cfg["certificate"].update(alphas)
        cfg["out_dir"] = str(out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", write_config(tmp_path, cfg), "certify"]) == code
        captured = capsys.readouterr()
        assert line in captured.out and captured.err == err
        if code == 1 and not alphas:
            report = json.loads((out / "certify_report.json").read_text())
            assert report["settling_bound_at_x0"] is None


class TestSimulate:
    def test_zero_initial_state(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["x0"] = [0.0, 0.0]
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 0
        side = json.loads((out / "trajectory.json").read_text())
        assert side["settled"] and side["settle_time"] == 0.0

    def test_blowup_exits_one(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"model": "unstable-cubic", "x0": [2.0],
               "noise": {"kind": "zero", "dimension": 1, "h_noise": 0.01},
               "integrator": {"h": 0.001, "horizon": 1.0,
                              "absorb_at_origin": False},
               "mc": {"master_seed": 3, "n_paths": 2}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 1
        side = json.loads((out / "trajectory.json").read_text())
        assert side["blowup"] and abs(side["blowup_time"] - 0.125) < 0.02

    @pytest.mark.parametrize("command,model,x0", [
        ("simulate", "example2-closed", 1e50), ("settle", "example2-open", 1e100)])
    def test_evaluator_nan_exits_one(self, tmp_path, capsys, command, model, x0):
        out = tmp_path / "out"
        cfg = {"model": model, "x0": [x0],
               "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                         "tau_f": 1.0, "h_noise": 0.01},
               "integrator": {"h": 0.001, "horizon": 0.5},
               "mc": {"n_paths": 4, "master_seed": 2024}, "out_dir": str(out)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", write_config(tmp_path, cfg), command])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "evaluator error: evaluator returned NaN at t=0.001\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_overflowing_blowup_warns_nothing(self, tmp_path, capsys, command):
        # x' = x^3 from 1e6 overflows to inf in the first step: the kernel
        # marks the blow-up itself, and numpy is told to keep quiet about it
        out = tmp_path / "out"
        cfg = {"model": "unstable-cubic", "x0": [1e6],
               "noise": {"kind": "zero", "dimension": 1},
               "integrator": {"h": 0.001, "horizon": 1.0},
               "mc": {"n_paths": 10, "master_seed": 0}, "out_dir": str(out)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", write_config(tmp_path, cfg), command])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("h_noise", [1e20, 1e300])
    @pytest.mark.parametrize("command,output", [
        ("simulate", "trajectory.csv"), ("settle", "settle_paths.csv")])
    def test_noise_cell_past_the_horizon_is_one_cell(self, tmp_path, command,
                                                     output, h_noise):
        # the horizon is 5 / h_noise noise cells: one cell, held from t = 0
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=4)
        cfg["noise"]["h_noise"] = h_noise
        assert main(["--config", write_config(tmp_path, cfg), command]) == 0
        assert (out / output).exists()

    def test_path_holding_every_cell_read_runs(self, tmp_path, capsys):
        # 50 steps of 1e5, 10 to a cell, read cells 0..4; the noise grid's
        # 5 cells end 1e-7 short of the horizon, inside its 1e-12-cell jitter
        out = tmp_path / "out"
        cfg = {"model": "example2-closed", "x0": [3.0],
               "noise": {"kind": "zero", "dimension": 1, "h_noise": 1e6},
               "integrator": {"h": 1e5, "horizon": 5000000.0000001,
                              "eps_settle": 1e9},
               "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "trajectory.csv").exists()

    def test_example1_run_settles(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, horizon=10.0)
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 0
        side = json.loads((out / "trajectory.json").read_text())
        assert side["settled"] is True and not side["blowup"]

    def test_trajectory_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"model": "example1", "x0": [0.3, 0.1],
               "noise": {"kind": "zero", "dimension": 2, "h_noise": 0.01},
               "integrator": {"h": 1e-3, "horizon": 1.0}, "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 0
        traj = sk.integrate_path(
            sk.make_example1(), sk.sample_path(sk.zero_process(2), 0.0, 1.0, 0.01, 0),
            np.array([0.3, 0.1]), sk.IntegratorConfig(h=1e-3, horizon=1.0))
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,x_2"
        side = json.loads((out / "trajectory.json").read_text())
        assert set(side) >= {"settled", "settle_time", "seed", "blowup"}
        assert side["settled"] == traj.settled

    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", write_config(tmp_path, base_config(out)),
                     "simulate"]) == 0
        assert file_digests(out, "trajectory.csv", "trajectory.json") == [
            "3ef7e8ef08d7874c7888fd62f54e3fa1390d9da45e53ab603c69ae3b184a3137",
            "c39aea05ceaab9283000f370af04758c6c7f5bd8760da974edbd6becf241bd5f"]


class TestSettle:
    def test_settles_and_reports(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 0
        stats = json.loads((out / "settle_stats.json").read_text())
        assert stats["settled_fraction"] == 1.0
        assert (out / "settle_paths.csv").exists()

    def test_short_horizon_fails_threshold(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, horizon=0.5)
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 1

    def test_settle_csv_format(self, tmp_path):
        # no path settles by t = 0.5, so path 0 is censored
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=3, horizon=0.5)
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 1
        lines = (out / "settle_paths.csv").read_text().splitlines()
        assert lines[0] == "path_index,seed,settled,settle_time"
        assert lines[1].endswith(",false,")   # censored -> empty settle time

    def test_censored_output_bytes_are_pinned(self, tmp_path):
        # 24 of the 60 paths are censored at the 1.5-s horizon; their
        # settle_time cell is empty
        out = tmp_path / "out"
        cfg = base_config(out, horizon=1.5)
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 1
        rows = (out / "settle_paths.csv").read_text().splitlines()
        assert sum(row.endswith(",false,") for row in rows) == 24
        assert rows[1] == "0,7078657708328402307,true,1.4079999999999999"
        assert file_digests(out, "settle_paths.csv", "settle_stats.json") == [
            "861bc543f02b12d0a8c12f2eee0777dfb641931961adf8818382bd9208b20501",
            "943cd65bb4704f3554b888e74d9c30548f3cb52ab896ba9b59740f7a1be2a32e"]

    # kernel cases the other pins do not reach: rows live to the horizon
    # under AR(1) noise (at two master seeds; the second leaves 3 of 40
    # paths unsettled, so settle exits 1), a two-channel AR(1) process with
    # absorption, and a batch in which every row blows up.  The ex2-live
    # digests were taken while example2-closed integrated the unreduced
    # field: the reduced one moves trajectories in the last bits, not
    # settle outputs.
    KERNEL_CASES = {
        "ex2-live": ({
            "model": "example2-closed", "x0": [3.0],
            "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                      "tau_f": 1.0, "dimension": 1, "h_noise": 0.01},
            "integrator": {"h": 0.001, "horizon": 2.5, "absorb_at_origin": False},
            "mc": {"n_paths": 40, "master_seed": 2024}}, 0, [
            "85fb244f964753883d41756d2637b53d5eb27da1fa5af85c8fd2c9b97c04b63a",
            "18ba127afdde047471f7e4360cf7915a513e35b7e93ce4750ac8ba99455fe84a"]),
        "ex2-live-seed7": ({
            "model": "example2-closed", "x0": [3.0],
            "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                      "tau_f": 1.0, "dimension": 1, "h_noise": 0.01},
            "integrator": {"h": 0.001, "horizon": 2.5, "absorb_at_origin": False},
            "mc": {"n_paths": 40, "master_seed": 7}}, 1, [
            "18310e8848ccc10bb097ae44ad5601ea26c4bfc06fdac3affe1002eb60733d81",
            "3fe296ec7331fe4b52604ccfa9731ce8f5622f37d5eadd5b4b0de93a7e835401"]),
        "ex1-filtered-2ch": ({
            "model": "example1", "x0": [1.0, 1.0],
            "noise": {"kind": "filtered-white-noise", "intensity": 0.18,
                      "tau_f": 1.0, "dimension": 2, "h_noise": 0.01},
            "integrator": {"h": 0.002, "horizon": 5.0},
            "mc": {"n_paths": 30, "master_seed": 77}}, 0, [
            "c0cf1bbcbce30ca5f60360d7f9de51cb641a90b0e920bfa5415ae4df4a453072",
            "09e4a1e1eb555bd89f60aafe993936143f69b8b99878c7e30df098b4f95cfefc"]),
        "cubic-blowup": ({
            "model": "unstable-cubic", "x0": [2.0],
            "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                      "tau_f": 1.0, "dimension": 1, "h_noise": 0.01},
            "integrator": {"h": 0.001, "horizon": 1.0, "absorb_at_origin": False},
            "mc": {"n_paths": 5, "master_seed": 3}}, 1, [
            "6fb62dd219e0587d2ebaf5c89342662a1990977c42f0b8a509048c13af327736",
            "b8eb8b182a5c1393920bcc8cf05f0e719c791b0f37c4a66636afd1233abc205b"]),
    }

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_kernel_case_bytes_are_pinned(self, tmp_path, case):
        cfg, code, digests = self.KERNEL_CASES[case]
        out = tmp_path / "out"
        cfg = dict(cfg, out_dir=str(out))
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == code
        assert file_digests(out, "settle_paths.csv", "settle_stats.json") == digests

    def test_with_certificate_checks_bound(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=100, horizon=10.0)
        cfg["certificate"] = {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                              "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                              "alpha2": {"a": 0.5, "b": 2},
                              "V": "half-square-norm"}
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 0
        stats = json.loads((out / "settle_stats.json").read_text())
        assert stats["bound_satisfied"] is True
        assert stats["bound_from_certificate"] == pytest.approx(3.0 / (0.4 * TWO_23))

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
        cfg = base_config(out_a, n_paths=20)
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "settle"]) == 0
        assert main(["--config", path, "settle", "--out", str(out_b),
                     "--seed", "31415"]) == 0
        assert main(["--config", path, "settle", "--out", str(out_c),
                     "--seed", "999"]) == 0
        a = (out_a / "settle_paths.csv").read_bytes()
        b = (out_b / "settle_paths.csv").read_bytes()
        c = (out_c / "settle_paths.csv").read_bytes()
        assert a == b
        assert a != c

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        # split even 30 paths across 4 processes, whatever the host
        monkeypatch.setattr(parallel, "MIN_PATHS_PER_WORKER", 2)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = base_config(out_a, n_paths=30)
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "settle", "--jobs", "1"]) == 0
        assert not forks
        assert main(["--config", path, "settle", "--out", str(out_b),
                     "--jobs", "4"]) == 0
        assert forks
        for name in ("settle_stats.json", "settle_paths.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bound_requires_enough_paths(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, n_paths=10)
        cfg["certificate"] = {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                              "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                              "alpha2": {"a": 0.5, "b": 2},
                              "V": "half-square-norm"}
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 2
        err = capsys.readouterr().err
        assert "mc.n_paths" in err and "100" in err
        assert not out.exists()

    def test_non_finite_bound_is_not_satisfied(self, tmp_path):
        # V(x0) = 1e308 |x0|^2 / 2 overflows at x0 = (2, 2): every path
        # settles, and the infinite bound still fails, without a numpy
        # warning, and is written as null
        cfg = base_config(tmp_path / "out", n_paths=100, horizon=10.0)
        cfg.update(x0=[2.0, 2.0], noise={"kind": "zero", "dimension": 2,
                                         "h_noise": 0.01})
        cfg = load_config(write_config(tmp_path, cfg))
        v_norm, grad_norm = LYAPUNOV_FUNCTIONS["half-square-norm"]
        cfg.certificate = Certificate(
            state_dim=2, V=lambda x: 1e308 * v_norm(x), gradV=grad_norm,
            gamma=2.0 / 3.0, c1=TWO_23, c2=TWO_23, noise_bound=0.0,
            alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))
        outputs, ok, line = cmd_settle(cfg, 1)
        write_outputs(cfg.out_dir, outputs)
        stats = json.loads((tmp_path / "out" / "settle_stats.json").read_text())
        assert stats["n_settled"] == 100
        assert stats["bound_satisfied"] is False
        assert stats["bound_from_certificate"] is None
        assert not ok and line.endswith("bound=inf")


class TestReproduce:
    def test_fig2(self, tmp_path):
        assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.csv").exists()

    def test_unknown_figure(self, tmp_path):
        assert main(["reproduce", "fig9", "--out", str(tmp_path)]) == 2


# what each command reads from the config, as ExperimentConfig attributes
COMMAND_NEEDS = {"settle": ("model", "x0", "process", "certificate"),
                 "simulate": ("model", "x0", "process"),
                 "noise-check": ("process",)}


def test_benchmark_configs_load(tmp_path, monkeypatch):
    """Each benchmark config loads the way the harness's set-up probe loads
    it, with the blocks its command needs set and its fields read."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    from workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        raw = workload.config
        cfg = load_config(write_config(tmp_path, raw, name + ".json"))
        for attr in COMMAND_NEEDS[workload.command]:
            assert getattr(cfg, attr) is not None, (name, attr)
        integ, nc = raw["integrator"], raw["noise_check"]
        assert (cfg.mc.integrator.h, cfg.mc.integrator.horizon,
                cfg.mc.integrator.absorb_at_origin) == (
            integ["h"], integ["horizon"], integ["absorb_at_origin"]), name
        assert (cfg.mc.n_paths, cfg.mc.master_seed, cfg.mc.h_noise) == (
            raw["mc"]["n_paths"], raw["mc"]["master_seed"],
            raw["noise"]["h_noise"]), name
        assert (cfg.nc_paths, cfg.nc_horizon, cfg.nc_times) == (
            nc["n_paths"], nc["horizon"], nc["check_times"]), name


def _field_paths(block, prefix=()):
    """Every key path of a config, blocks as well as leaves."""
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def reduced_readme_config() -> dict:
    """README's config cut to 4 paths and short horizons."""
    cfg = readme_config()
    cfg["integrator"]["horizon"] = 0.5
    cfg["mc"]["n_paths"] = 4
    cfg["noise_check"].update(n_paths=4, horizon=1.0, check_times=[1.0], t_min=0.5)
    return cfg


FIELD_PATHS = list(_field_paths(reduced_readme_config()))
# small magnitudes keep every run short; the odd values are the point
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from([0.0, -0.0, -1.0, 1e-3, 0.5, 2.5, math.nan, math.inf,
                     -math.inf]),
    st.text(max_size=3), st.lists(st.sampled_from([0, 1.0, "a"]), max_size=3),
    st.just({}))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["noise-check", "certify", "simulate", "settle"]),
       field=st.sampled_from(FIELD_PATHS), value=ODD_VALUES,
       delete=st.booleans(), jobs=st.sampled_from([-1, 0, 1, 4]))
def test_one_mutated_field_keeps_the_cli_contract(command, field, value, delete,
                                                  jobs):
    """One field of the README config changed or deleted, with a valid or
    invalid --jobs: exit 0, 1 or 2, no traceback, and no file on exit 2."""
    cfg = reduced_readme_config()
    if command == "settle":
        assume(field[0] != "certificate")
        del cfg["certificate"]    # a bound check needs 100 paths
    *blocks, key = field
    parent = cfg
    for name in blocks:
        parent = parent[name]
    if delete:
        parent.pop(key, None)
    else:
        parent[key] = value
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)     # a mutated relative out_dir lands in tmp
        try:
            with open("config.json", "w") as fh:
                json.dump(cfg, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["--config", "config.json", "--jobs", str(jobs),
                             command])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert os.listdir(".") == ["config.json"]
        finally:
            os.chdir(cwd)
