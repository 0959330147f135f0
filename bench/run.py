"""settlekit benchmark: end-to-end and per-layer metrics of four CLI workloads.

Run from the repository root:

    python3 bench/run.py --workload settle-readme --seed 2024 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --trace 0   # table of all four

Every measured process is a fresh ``python3 -m settlekit`` (``PYTHONPATH=src``)
on a config written from ``workloads.py``; the seed reaches the program only
through ``--seed``.  With ``--trace 0`` a run alternates two timed launches
until ``--seconds`` are used (at least ``MIN_PAIRS`` pairs):

* a set-up probe: interpreter start, ``import settlekit.cli`` and
  ``load_config`` on the workload's config (``setup_s``);
* the workload's CLI command (``wall_s``, ``peak_rss_mb`` from ``wait4``).

It reports host-speed-normalized times: the mean over the run's commands
(``wall_s``) and the median over its set-up probes (``setup_s``).  With three
to six commands in a run, the mean uses every launch where the median drops
most of them.  On a shared 2-vCPU VM the speed of each vCPU swings by up to
2x within seconds and stays slow for minutes, so raw medians of 30-s runs
spread 20-50% between runs.  Before and after every launch the harness
times a fixed pure-Python loop on each CPU (``spin_s``); a launch's time is
scaled by ``REF_SPIN_S`` over the mean of the loop times either side of it,
raised to ``SPIN_EXPONENT``.  The raw medians are printed in the table as ``raw_wall_s`` and ``raw_setup_s``, the
per-launch times on the ``samples`` line.  The table also prints the work
rate under the workload's own name (``path_steps_per_s``,
``noise_samples_per_s``, ``traj_steps_per_s``): nominal work
(``Workload.work``) over normalized ``wall_s - setup_s``, taken per pair.

With ``--trace 1`` a run alternates a plain launch with one under
``traced_cli.py`` (at least ``MIN_TRACED`` each) and reports the per-layer
metrics, the plain launches' CPU use and the tracing overhead (traced minus
plain wall time, not normalized).

Every launch is checked: exit code, no traceback on stderr, the workload's
invariants (``outputs.check_invariants``), the same outputs as the run's
first launch and, when the reference file has the seed, exactly the stored
outputs.  ``references.json`` holds seed 2024 at the seed commit; to
recheck a claim on another seed, run the parent commit with that seed and
pass its ``.bench_work/records/<workload>-seed<n>.json`` as ``--reference``.
Traced launches of one run must repeat each other's ``EXACT_COUNTS``.

A launch still running at the run's deadline (``RUN_DEADLINE_S`` after the
run began) is killed and reported as a timeout, not a failure: its time
counts as a lower bound and its outputs are not checked.  No new pair is
started that would, at the pace of the slowest so far, pass the deadline.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import outputs
import tracing
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 2024
MIN_PAIRS = 3           # untraced: set-up probe + command pairs per run
MIN_TRACED = 2          # traced launches per run (exact counts must repeat)
RUN_DEADLINE_S = 150    # launches still running this long after the run began are killed

PROBE = "import sys, settlekit.cli as c; c.load_config(sys.argv[1])"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]  # name, unit
# Printed in the table only: the work rate is wall_s - setup_s in other
# units and too noisy to carry a bound; the raw times are not normalized.
TABLE_ONLY = {"work_per_s": "1/s", "raw_wall_s": "s", "raw_setup_s": "s"}
SPIN_LOOPS = 800_000    # host speed probe, about 40 ms of pure Python
REF_SPIN_S = 0.040      # probe time that defines a reference-speed second
# The CLI slows down less than the probe loop, in log terms.  Over four sets
# of ten runs of each workload (seeds 1-10, slow and fast host periods), the
# run-to-run spread (IQR over median) of wall_s was at most 0.16 with the
# mean and exponent 0.75, against 0.19 with 0.5 and 0.17 with 1.0, and 0.24
# with the median and 0.5; with no scaling it reached 0.35.
SPIN_EXPONENT = 0.75

# name, unit, the span it needs (left out when that layer is absent)
PER_LAYER = [
    ("cli.load_config.s", "s", "cli.load_config"),
    ("noise.sample_path.calls", "count", "noise.sample_path"),
    ("noise.sample_path.s", "s", "noise.sample_path"),
    ("noise.path_seed.s", "s", "noise.path_seed"),
    ("noise.resample_ratio", "ratio", "noise.sample_path"),
    ("noise.stats.self_s", "s", "noise.estimate_mean_square"),
    ("systems.field.calls", "count", "systems.field"),
    ("systems.field.rows", "count", "systems.field"),
    ("systems.field.s", "s", "systems.field"),
    ("systems.field.ns_per_row", "ns", "systems.field"),
    ("integrate.rk4_step.calls", "count", "integrate.rk4_step"),
    ("integrate.rk4_step.self_s", "s", "integrate.rk4_step"),
    ("integrate.integrate_path.self_s", "s", "integrate.integrate_path"),
    ("montecarlo.sweep.self_s", "s", "montecarlo.sweep"),
    ("montecarlo.chunks", "count", "montecarlo.sweep"),
    ("montecarlo.path_steps", "count", "integrate.rk4_step"),
    ("montecarlo.live_path_steps", "count", "integrate.rk4_step"),
    ("montecarlo.useful_step_ratio", "ratio", "integrate.rk4_step"),
    ("montecarlo.ns_per_live_path_step", "ns", "montecarlo.sweep"),
    ("montecarlo.reduce.self_s", "s", "montecarlo.estimate_settling"),
    ("certify.settling_bound.s", "s", "certify.settling_bound"),
    ("fileio.write_csv.s", "s", "fileio.write_csv"),
    ("fileio.write_csv.rows", "count", "fileio.write_csv"),
    ("fileio.write_json.s", "s", "fileio.write_json"),
    ("process.cpu_s", "s", None),
    ("process.cpu_util", "ratio", None),
    ("trace.wall_s", "s", None),
    ("trace.overhead_s", "s", None),
]

LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Counts that must repeat exactly between traced launches of one run.
EXACT_COUNTS = ["montecarlo.path_steps", "montecarlo.live_path_steps",
                "systems.field.rows", "noise.sample_path.calls",
                "integrate.rk4_step.calls"]


@dataclass(frozen=True)
class Launch:
    """One finished child process: timings, resources and captured output."""

    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool = False


def launch(argv, run_dir: str, timeout: float) -> Launch:
    """Run argv to completion (killed after ``timeout`` s, then ``timed_out``);
    wall time from launch to exit, resource use via wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path = os.path.join(run_dir, "stdout.txt")
    err_path = os.path.join(run_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=out, stderr=err)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  os.waitstatus_to_exitcode(status), stdout, stderr, killed.is_set())


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def host_state() -> dict:
    """Load average and steal ticks, read from /proc."""
    cpu = _read("/proc/stat").split("\n", 1)[0].split()
    return {"loadavg": [float(v) for v in _read("/proc/loadavg").split()[:3]],
            "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None}


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def host_info() -> dict:
    """nproc and CPU model from /proc, the interpreter's Python, numpy and
    scipy versions, the commit if the tree has .git."""
    cpuinfo = _read("/proc/cpuinfo").splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo
              if line.startswith("model name")]
    info = {"nproc": sum(line.startswith("processor") for line in cpuinfo),
            "cpu_model": models[0] if models else None, "commit": None,
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy")}
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        ref = _read(head).strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            ref = _read(ref_path).strip() if os.path.exists(ref_path) else ref
        info["commit"] = ref
    return info


class Run:
    """State of one benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, reference_file: str):
        self.workload = workload
        self.seed = seed
        self.run_dir = os.path.join(WORK, f"{workload.name}-s{seed}-{os.getpid()}")
        os.makedirs(self.run_dir, exist_ok=True)
        self.config_path = os.path.join(self.run_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workload.config, fh, indent=2)
        self.reference = self._load_reference(reference_file)
        self.first_record = None
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures = []

    def _load_reference(self, path: str):
        with open(path) as fh:
            entry = json.load(fh).get(self.workload.name)
        return entry if entry and entry.get("seed") == self.seed else None

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {self.workload.name} seed={self.seed}: {what}", file=sys.stderr)

    def _launch(self, argv) -> Launch:
        self.attempted += 1
        res = launch(argv, self.run_dir, max(1.0, self.deadline - time.monotonic()))
        if res.timed_out:
            print(f"TIMEOUT {self.workload.name} seed={self.seed}: launch killed at "
                  f"the run deadline after {res.wall:.1f} s; its time is a lower "
                  "bound", file=sys.stderr)
        return res

    def probe(self) -> Launch:
        """Set-up probe: interpreter start, import the CLI, load the config."""
        res = self._launch([sys.executable, "-c", PROBE, self.config_path])
        if not res.timed_out and (res.exit_code != 0 or outputs.TRACEBACK in res.stderr):
            self.fail(f"set-up probe exit {res.exit_code}: "
                      f"{res.stderr.decode(errors='replace')[-500:]}")
        return res

    def command(self, spans_path: str | None = None) -> Launch:
        """The workload's CLI command, traced when spans_path is given."""
        out_dir = os.path.join(self.run_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        cli = self.workload.cli_args(self.config_path, out_dir, self.seed)
        if spans_path is None:
            argv = [sys.executable, "-m", "settlekit"] + cli
        else:
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans_path,
                    f"{self.workload.name}-s{self.seed}"] + cli
        res = self._launch(argv)
        if not res.timed_out:
            self._check(res, out_dir)
        return res

    def _check(self, res: Launch, out_dir: str) -> None:
        problems = []
        if outputs.TRACEBACK in res.stderr:
            problems.append("traceback on stderr: "
                            + res.stderr.decode(errors="replace")[-500:])
        rec = outputs.record(out_dir, self.workload.outputs, res.exit_code)
        if self.first_record is None:
            self.first_record = rec
        elif rec != self.first_record:
            problems.append("outputs differ from the run's first launch: "
                            + "; ".join(outputs.compare(self.first_record, rec)))
        if self.reference is not None:
            problems += outputs.compare(self.reference["record"], rec)
        problems += outputs.check_invariants(self.workload, self.seed, out_dir,
                                             res.exit_code)
        if problems:
            self.fail("; ".join(problems))

    def save_record(self) -> None:
        """Write this run's record, usable as another commit's --reference."""
        if self.first_record is None:
            return
        path = os.path.join(WORK, "records", f"{self.workload.name}-seed{self.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"seed": self.seed, "record": self.first_record}
        with open(path, "w") as fh:
            json.dump({self.workload.name: entry}, fh, indent=1, sort_keys=True)

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def spin_s() -> float:
    """Host speed probe: mean time of a fixed Python loop on each usable CPU.

    The harness pins itself to one CPU at a time for the loop and restores
    its affinity before any launch, so the launched program is not pinned.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            x = 0
            for j in range(SPIN_LOOPS):
                x += j & 7
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def measure_end_to_end(run: Run, seconds: float) -> dict:
    run.probe()                        # warm-up: bytecode and file caches
    setups, commands = [], []
    spins = [spin_s()]                 # before and after every launch
    for _ in _pairs(seconds, MIN_PAIRS, run.deadline):
        setups.append(run.probe())
        spins.append(spin_s())
        commands.append(run.command())
        spins.append(spin_s())
    run.save_record()
    # A launch's host speed is taken from the spins either side of it.
    scale = [(REF_SPIN_S / statistics.fmean(pair)) ** SPIN_EXPONENT
             for pair in zip(spins, spins[1:])]
    setup_n = [s.wall * f for s, f in zip(setups, scale[0::2])]
    wall_n = [c.wall * f for c, f in zip(commands, scale[1::2])]
    print("samples " + json.dumps({"wall_s": [round(c.wall, 4) for c in commands],
                                   "setup_s": [round(s.wall, 4) for s in setups],
                                   "spin_s": [round(v, 5) for v in spins]}))
    return {"wall_s": statistics.fmean(wall_n),
            "setup_s": statistics.median(setup_n),
            "peak_rss_mb": statistics.median(c.rss_mb for c in commands),
            "raw_wall_s": statistics.median(c.wall for c in commands),
            "raw_setup_s": statistics.median(s.wall for s in setups),
            "work_per_s": statistics.median(
                run.workload.work / (w - s) for s, w in zip(setup_n, wall_n))}


def _pairs(seconds: float, minimum: int, deadline: float):
    """Yield until ``seconds`` would be overrun by one more typical pair (after
    at least ``minimum`` pairs), or the run's deadline by one more pair as slow
    as the slowest so far (always)."""
    t_start = time.perf_counter()
    durations = []
    while True:
        t_pair = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - t_pair)
        if time.monotonic() + max(durations) > deadline:
            return
        elapsed = time.perf_counter() - t_start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced launch (spans summary + counters)."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    seeds = counts.get("noise.distinct_seeds", 0)
    rows = counts.get("systems.field.rows", 0)
    steps = counts.get("montecarlo.path_steps", 0)
    live = counts.get("montecarlo.live_path_steps", 0)
    return {
        "cli.load_config.s": get("cli.load_config", "s"),
        "noise.sample_path.calls": get("noise.sample_path", "calls"),
        "noise.sample_path.s": get("noise.sample_path", "s"),
        "noise.path_seed.s": get("noise.path_seed", "s"),
        "noise.resample_ratio": ratio(get("noise.sample_path", "calls"), seeds),
        "noise.stats.self_s": sum(get(n, "self_s") for n in (
            "noise.estimate_mean_square", "noise.check_wlln", "noise.check_l1_bound")),
        "systems.field.calls": get("systems.field", "calls"),
        "systems.field.rows": rows,
        "systems.field.s": get("systems.field", "s"),
        "systems.field.ns_per_row": ratio(1e9 * get("systems.field", "s"), rows),
        "integrate.rk4_step.calls": get("integrate.rk4_step", "calls"),
        "integrate.rk4_step.self_s": get("integrate.rk4_step", "self_s"),
        "integrate.integrate_path.self_s": get("integrate.integrate_path", "self_s"),
        "montecarlo.sweep.self_s": get("montecarlo.sweep", "self_s"),
        "montecarlo.chunks": get("montecarlo.sweep", "calls"),
        "montecarlo.path_steps": steps,
        "montecarlo.live_path_steps": live,
        "montecarlo.useful_step_ratio": ratio(live, steps),
        "montecarlo.ns_per_live_path_step": ratio(1e9 * get("montecarlo.sweep", "s"), live),
        "montecarlo.reduce.self_s": get("montecarlo.estimate_settling", "self_s"),
        "certify.settling_bound.s": get("certify.settling_bound", "s"),
        "fileio.write_csv.s": get("fileio.write_csv", "s"),
        "fileio.write_csv.rows": counts.get("fileio.write_csv.rows", 0),
        "fileio.write_json.s": get("fileio.write_json", "s"),
    }


def measure_layers(run: Run, seconds: float):
    """Alternate plain and traced launches; per-layer metrics of the run."""
    run.probe()                        # warm-up: bytecode and file caches
    spans_path = os.path.join(run.run_dir, "spans.json")
    plain, traced, layers = [], [], []
    absent, counts = set(), None
    for _ in _pairs(seconds, MIN_TRACED, run.deadline):
        plain.append(run.command())
        traced.append(run.command(spans_path))
        if traced[-1].timed_out:
            continue
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
            os.replace(spans_path, os.path.join(WORK, f"spans-{run.workload.name}.json"))
            absent.update(spans["absent"])
            layers.append(layer_metrics(tracing.summarize(spans), spans["counts"]))
            exact = {k: layers[-1][k] for k in EXACT_COUNTS}
            if counts is None:
                counts = exact
            elif exact != counts:
                run.fail(f"exact counts changed between traced launches: {counts} -> {exact}")
        else:
            run.fail("traced launch wrote no spans")
    if len(layers) < MIN_TRACED:
        print(f"NOTE {run.workload.name}: {len(layers)} traced launch(es) finished "
              "before the run deadline; exact counts not repeated", file=sys.stderr)
    run.save_record()

    metrics = {name: (value if LAYER_UNITS[name] == "count"
                      else statistics.median(m[name] for m in layers))
               for name, value in (layers[0] if layers else {}).items()}
    traced_wall = statistics.median(t.wall for t in traced)
    metrics.update({
        "process.cpu_s": statistics.median(p.cpu for p in plain),
        "process.cpu_util": statistics.median(p.cpu / p.wall for p in plain),
        "trace.wall_s": traced_wall,
    })
    # The overhead needs finished launches on both sides, not lower bounds.
    pairs = [(p, t) for p, t in zip(plain, traced) if not (p.timed_out or t.timed_out)]
    if pairs:
        metrics["trace.overhead_s"] = (statistics.median(t.wall for _, t in pairs)
                                       - statistics.median(p.wall for p, _ in pairs))
    for name, _unit, layer in PER_LAYER:
        if layer in absent:
            metrics.pop(name, None)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference_file: str) -> dict:
    workload = WORKLOADS[name]
    host = host_info()
    before = host_state()
    run = Run(workload, seed, reference_file)
    try:
        if trace:
            values = measure_layers(run, seconds)
            units = LAYER_UNITS
        else:
            values = measure_end_to_end(run, seconds)
            units = dict(END_TO_END, **TABLE_ONLY)
        if run.first_record is None:
            run.fail("no command launch finished before the run deadline")
    finally:
        run.close()
    host.update(before=before, after=host_state())
    print("host " + json.dumps(host, sort_keys=True))
    failed = min(len(run.failures), run.attempted)
    _print_table(workload, seed, values, units, run.attempted, failed)
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()
                        if k not in TABLE_ONLY}}


def _print_table(workload, seed, values, units, attempted, failed) -> None:
    print(f"{workload.name} seed={seed}: {attempted} launches, {failed} failed")
    labels = {"work_per_s": f"{workload.work_name}_per_s"}
    rows = dict(values)
    rows["error_rate"] = failed / attempted if attempted else 0.0
    units = dict(units, error_rate="ratio")
    for key, value in rows.items():
        print(f"  {labels.get(key, key):34s} {value:16.6g} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=os.path.join(BENCH, "references.json"),
                        help="records to match exactly (default: seed 2024 at "
                             "the seed commit)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "settlekit", "cli.py")):
        print(f"bench: no settlekit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                               args.reference) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
