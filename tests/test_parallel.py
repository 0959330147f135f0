"""Tests for the fan-out of independent path slices across forked worker
processes: outputs keep their bytes for every ``--jobs``, a failing slice
raises what one process would raise, and no worker outlives a call."""

import json
import os
import pickle
import time

import numpy as np
import pytest

import settlekit as sk
from settlekit import noise, parallel
from settlekit.cli import main

TWO_23 = 2.0 ** (2.0 / 3.0)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def three_workers(monkeypatch):
    """Split even a few paths across up to 3 processes, whatever the host."""
    monkeypatch.setattr(parallel, "MIN_PATHS_PER_WORKER", 2)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)


def run_cli(tmp_path, cfg, command, jobs):
    """Exit code and {file name: bytes} of ``command`` under ``--jobs jobs``."""
    out = tmp_path / f"out-{command}-{jobs}"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["--config", str(path), "--out", str(out), "--jobs", str(jobs),
                 command])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestWorkerCount:
    def test_rule_starts_no_process(self, monkeypatch):
        def fork():
            raise AssertionError("the worker-count rule forked")

        monkeypatch.setattr(os, "fork", fork)
        cpus = parallel.usable_cpus()
        assert 1 <= parallel.worker_count(10 ** 6, 10 ** 9) <= cpus
        assert parallel.worker_count(10 ** 6, 4) == 1
        assert parallel.worker_count(1, 10 ** 9) == 1
        assert parallel.worker_count(2, 2 * parallel.MIN_PATHS_PER_WORKER) \
            == min(2, cpus)

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel.usable_cpus() == 1


class TestFanOut:
    def test_slices_are_joined_in_order(self, three_workers):
        parts = parallel.fan_out(lambda rows: (os.getpid(), list(range(10)[rows])),
                                 10, 3)
        assert [i for _, part in parts for i in part] == list(range(10))
        pids = [pid for pid, _ in parts]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_first_failing_slice_in_path_order_is_raised(self, three_workers):
        def fn(rows):
            if rows.start:
                raise ValueError(f"slice from {rows.start}")
            return rows

        with pytest.raises(ValueError, match="slice from 3"):
            parallel.fan_out(fn, 10, 3)

    def test_least_failure_by_order_wins_ties_to_the_lowest_slice(
            self, three_workers):
        # slices start at paths 0, 3 and 6; each raises at the step time given
        def failing(times, plain=()):
            def fn(rows):
                if rows.start in plain:
                    raise ValueError(f"plain from {rows.start}")
                raise sk.EvaluatorError(f"slice from {rows.start}", x=rows.start,
                                        t=times[rows.start])
            return fn

        # a later slice that fails at an earlier step time wins
        with pytest.raises(sk.EvaluatorError, match="slice from 6"):
            parallel.fan_out(failing({0: 2.0, 3: 1.0, 6: 0.5}), 10, 3)
        # a tie goes to the lowest slice
        with pytest.raises(sk.EvaluatorError, match="slice from 3"):
            parallel.fan_out(failing({0: 2.0, 3: 0.5, 6: 0.5}), 10, 3)
        # any other exception stops a serial pass before every step
        with pytest.raises(ValueError, match="plain from 6"):
            parallel.fan_out(failing({0: 0.0, 3: 0.0}, plain=(6,)), 10, 3)

    def test_worker_without_a_result_raises(self, three_workers):
        def fn(rows):
            if rows.start:
                os._exit(3)
            return rows

        with pytest.raises(ChildProcessError, match="paths 3..5 ended without"):
            parallel.fan_out(fn, 10, 3)

    def test_failing_caller_kills_its_workers(self, three_workers):
        def fn(rows):
            if rows.start:
                time.sleep(60)
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            parallel.fan_out(fn, 10, 3)
        assert time.perf_counter() - t0 < 30

    def test_failed_fork_runs_the_slice_here(self, three_workers, monkeypatch):
        def fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", fork)
        parts = parallel.fan_out(lambda rows: (os.getpid(), rows), 10, 3)
        assert [p for p, _ in parts] == [os.getpid()] * 3
        assert [rows for _, rows in parts] == [slice(0, 3), slice(3, 6), slice(6, 10)]


NOISE_CONFIGS = {
    "cosine": {"kind": "random-phase-cosine", "amplitudes": [0.3, 0.3],
               "omegas": [1.0, 2.0], "h_noise": 0.01},
    "filtered": {"kind": "filtered-white-noise", "intensity": 0.5, "tau_f": 1.0,
                 "dimension": 2, "h_noise": 0.01},
    "zero": {"kind": "zero", "dimension": 2, "h_noise": 0.01},
    # the half-width overflows and is written as null
    "overflow": {"kind": "random-phase-cosine", "amplitudes": [1e80],
                 "omegas": [1.3], "h_noise": 0.01},
}


@pytest.mark.parametrize("noise_cfg", list(NOISE_CONFIGS))
def test_noise_check_bytes_do_not_depend_on_jobs(tmp_path, three_workers,
                                                 noise_cfg):
    # 7 paths: slices of 2, 2 and 3; the last check time lies past the horizon
    cfg = {"noise": NOISE_CONFIGS[noise_cfg], "mc": {"master_seed": 8},
           "noise_check": {"n_paths": 7, "horizon": 10.0,
                           "check_times": [4.0, 12.5], "t_min": 2.0}}
    code, serial = run_cli(tmp_path, cfg, "noise-check", 1)
    for jobs in (2, 3):
        assert run_cli(tmp_path, cfg, "noise-check", jobs) == (code, serial)
    report = json.loads(serial["noise_check.json"])
    assert (report["moment"]["half_width"] is None) == (noise_cfg == "overflow")


SETTLE_CONFIGS = {
    # a certificate's bound check needs 100 paths; some are censored at 1.5 s
    "certificate-censored": {
        "model": "example1", "x0": [1.0, 1.0],
        "noise": NOISE_CONFIGS["cosine"],
        "integrator": {"h": 0.002, "horizon": 1.5},
        "mc": {"n_paths": 100, "master_seed": 31415},
        "certificate": {"gamma": 2.0 / 3.0, "c1": TWO_23, "c2": TWO_23,
                        "K": 0.09, "alpha1": {"a": 0.5, "b": 2},
                        "alpha2": {"a": 0.5, "b": 2}, "V": "half-square-norm"}},
    "cubic-blowup": {
        "model": "unstable-cubic", "x0": [2.0],
        "noise": {"kind": "filtered-white-noise", "intensity": 0.5,
                  "tau_f": 1.0, "dimension": 1, "h_noise": 0.01},
        "integrator": {"h": 0.001, "horizon": 1.0, "absorb_at_origin": False},
        "mc": {"n_paths": 7, "master_seed": 3}},
}


@pytest.mark.parametrize("case", list(SETTLE_CONFIGS))
def test_settle_bytes_do_not_depend_on_jobs(tmp_path, three_workers, case):
    cfg = SETTLE_CONFIGS[case]
    code, serial = run_cli(tmp_path, cfg, "settle", 1)
    for jobs in (2, 3):
        assert run_cli(tmp_path, cfg, "settle", jobs) == (code, serial)
    stats = json.loads(serial["settle_stats.json"])
    assert stats["n_censored"] > 0
    assert (stats["n_blowups"] == stats["n_paths"]) == (case == "cubic-blowup")


class TestSettleFailure:
    # x' = xi, NaN once x > 1.5: under a cosine of nearly zero frequency,
    # x(t) ~ 1 + c t with c = -cos(phase), so the path with the largest c
    # fails first.  At master seed 6 that is path 8, in slice 2 of 12 paths
    # split in 3; slices 0 and 1 fail at later steps.
    MODEL = sk.SystemModel(n=1, l=1, f=lambda x, t: np.where(x > 1.5, np.nan, 0.0),
                           g=lambda x, t: np.ones(x.shape + (1,)), name="nan")
    PROCESS = sk.make_random_phase_cosine([1.0], [1e-6])
    CFG = sk.McConfig(n_paths=12, master_seed=6,
                      integrator=sk.IntegratorConfig(h=1e-3, horizon=2.0),
                      h_noise=0.01)

    def error(self, jobs):
        with pytest.raises(sk.EvaluatorError) as err:
            sk.estimate_settling(self.MODEL, self.PROCESS, [1.0], self.CFG,
                                 jobs=jobs)
        return err.value

    def test_earliest_step_wins(self, three_workers):
        seeds = [sk.path_seed(6, i) for i in range(12)]
        phases = noise.BatchSampler(self.PROCESS, 0.01, seeds).phases
        c = -np.cos(phases[:, 0, 0])
        assert int(np.argmax(c)) == 8
        assert 0.25 < c[:4].max() < c[4:8].max() < c[8:].max()
        serial = self.error(1)
        for jobs in (2, 3):
            err = self.error(jobs)
            assert str(err) == str(serial)
            assert err.t == serial.t
            assert err.x.tobytes() == serial.x.tobytes()


def test_failed_forks_keep_the_bytes(three_workers, monkeypatch):
    process = sk.make_random_phase_cosine([0.3, 0.3], [1.0, 2.0])
    cfg = sk.McConfig(n_paths=9, master_seed=5,
                      integrator=sk.IntegratorConfig(h=2e-3, horizon=3.0),
                      h_noise=0.01)

    def results():
        stats = sk.estimate_settling(sk.make_example1(), process, [1.0, 1.0],
                                     cfg, jobs=3)
        checked = noise.check_noise(process, 9, 10.0, 0.01, 5, [4.0, 12.5],
                                    0.1, 0.09, 2.0, jobs=3)
        return pickle.dumps((stats.to_dict(), stats.settle_times, checked))

    def fork():
        raise OSError("no fork")

    forked = results()
    monkeypatch.setattr(os, "fork", fork)
    assert results() == forked
