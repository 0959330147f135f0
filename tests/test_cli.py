"""Tests for the CLI: exit codes, outputs, and reproducibility."""

import json
import math
import os

import pytest

import settlekit as sk
from settlekit import defaults, noise
from settlekit.cli import main
from settlekit.fileio import write_json

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

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_horizon_must_be_multiple_of_step(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["integrator"]["horizon"] = 5.001     # h = 0.002
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        assert "multiple of h" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "settle"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["--config", path, "--jobs", "0", command]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,field,value", [
        ("settle", "mc.n_paths", "ten"),
        ("simulate", "x0", ["a", 1]),
        ("simulate", "mc.master_seed", "x"),
        ("settle", "settle.settled_fraction_threshold", "x"),
        ("noise-check", "noise_check.n_paths", 1),
        ("noise-check", "noise_check.n_paths", "x"),
        ("noise-check", "noise_check.check_times", []),
        ("noise-check", "noise_check.check_times", [0.0]),
        ("noise-check", "noise_check.t_min", 60.0),    # above horizon 50
    ], ids=["n_paths-ten", "x0-string", "master_seed-x", "threshold-x",
            "nc_paths-1", "nc_paths-x", "check_times-empty", "check_times-0",
            "t_min-above-horizon"])
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, command,
                                               field, value):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["noise_check"] = {"n_paths": 5, "horizon": 50.0}
        block, _, key = field.rpartition(".")
        (cfg.setdefault(block, {}) if block else cfg)[key] = value
        assert main(["--config", write_config(tmp_path, cfg), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: field ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bound_check_needs_enough_paths(self, tmp_path):
        cfg = base_config(tmp_path / "out", n_paths=20)
        cfg["certificate"] = {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                              "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                              "alpha2": {"a": 0.5, "b": 2},
                              "V": "half-square-norm"}
        assert main(["--config", write_config(tmp_path, cfg), "settle"]) == 2


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
        calls = []
        sample_path = noise.sample_path

        def counted(*args, **kwargs):
            calls.append(1)
            return sample_path(*args, **kwargs)

        monkeypatch.setattr(noise, "sample_path", counted)
        cfg = base_config(tmp_path / "out")
        cfg["noise_check"] = {"n_paths": 12, "horizon": 10.0,
                              "check_times": [4.0, 15.0]}
        main(["--config", write_config(tmp_path, cfg), "noise-check"])
        assert len(calls) == 12

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
        moment = sk.estimate_mean_square(process, 15, 20.0, 0.01, 8)
        wlln = sk.check_wlln(process, check_times, 0.05, 15, 0.01, 8)
        max_ratio = max(
            sk.check_l1_bound(sk.sample_path(process, 0.0, 20.0, 0.01,
                                             sk.path_seed(8, i)), k, 2.0)
            for i in range(15))
        expected = {
            "moment": {"estimate": moment.estimate,
                       "half_width": moment.half_width, "n_paths": 15,
                       "k_bound": k, "passed": moment.passed},
            "wlln": {"times": list(wlln.times), "fractions": list(wlln.fractions),
                     "delta": 0.05, "passed": bool(
                         wlln.fractions[-1] <= defaults.WLLN_FRACTION_THRESHOLD)},
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

    def test_example1_run_settles(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, horizon=10.0)
        assert main(["--config", write_config(tmp_path, cfg), "simulate"]) == 0
        side = json.loads((out / "trajectory.json").read_text())
        assert side["settled"] is True and not side["blowup"]


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

    def test_jobs_do_not_change_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = base_config(out_a, n_paths=30)
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "settle", "--jobs", "1"]) == 0
        assert main(["--config", path, "settle", "--out", str(out_b),
                     "--jobs", "4"]) == 0
        for name in ("settle_stats.json", "settle_paths.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestReproduce:
    def test_fig2(self, tmp_path):
        assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.csv").exists()

    def test_unknown_figure(self, tmp_path):
        assert main(["reproduce", "fig9", "--out", str(tmp_path)]) == 2
