"""Correctness of one CLI invocation: output records, references, invariants.

A *record* holds what a run must reproduce exactly: the exit code, the
SHA-256 of every CSV output and every scalar field of every JSON output.
Comparison is one-sided, so a newer program may write extra keys or files.
The invariants hold for any seed and recompute what they can from the
written files, so seeds without a stored reference are still checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

TRACEBACK = b"Traceback (most recent call last)"


def flatten(obj, prefix: str = "") -> dict:
    """Scalar leaves of a JSON document keyed by dotted path."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record(out_dir: str, files, exit_code: int) -> dict:
    """Exit code plus a digest of each expected output file (None if absent)."""
    rec = {"exit_code": exit_code, "files": {}}
    for name in files:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            rec["files"][name] = None
        elif name.endswith(".csv"):
            rec["files"][name] = {"sha256": sha256(path)}
        else:
            with open(path) as fh:
                rec["files"][name] = {"fields": flatten(json.load(fh))}
    return rec


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def compare(reference: dict, observed: dict) -> list:
    """Differences of ``observed`` from ``reference``; extra keys are allowed."""
    problems = []
    if observed["exit_code"] != reference["exit_code"]:
        problems.append(f"exit code {observed['exit_code']}, "
                        f"expected {reference['exit_code']}")
    for name, ref in reference["files"].items():
        got = observed["files"].get(name)
        if ref is None or got is None:
            if ref is not got:
                problems.append(f"{name}: present {got is not None}, "
                                f"expected {ref is not None}")
            continue
        if "sha256" in ref and got.get("sha256") != ref["sha256"]:
            problems.append(f"{name}: sha256 differs")
        for key, value in ref.get("fields", {}).items():
            if key not in got.get("fields", {}):
                problems.append(f"{name}: field {key} missing")
            elif not _same(got["fields"][key], value):
                problems.append(f"{name}: field {key} = {got['fields'][key]!r}, "
                                f"expected {value!r}")
    return problems


def _path_seed(master_seed: int, index: int) -> int:
    # The README's derivation of a path's randomness from (seed, index).
    import numpy as np
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_settle(workload, seed, out_dir, exit_code) -> list:
    problems = []
    n_paths = workload.config["mc"]["n_paths"]
    header, rows = _read_csv(os.path.join(out_dir, "settle_paths.csv"))
    stats = _load(os.path.join(out_dir, "settle_stats.json"))
    if header != ["path_index", "seed", "settled", "settle_time"]:
        return [f"settle_paths.csv: header {header}"]
    if len(rows) != n_paths:
        return [f"settle_paths.csv: {len(rows)} rows, expected {n_paths}"]
    times = []
    for i, (index, path_seed, settled, settle_time) in enumerate(rows):
        if int(index) != i or int(path_seed) != _path_seed(seed, i):
            problems.append(f"settle_paths.csv row {i}: index/seed {index},{path_seed}")
            break
        if (settled == "true") != (settle_time != ""):
            problems.append(f"settle_paths.csv row {i}: settled={settled} "
                            f"settle_time={settle_time!r}")
            break
        if settle_time:
            times.append(float(settle_time))
    n_settled = len(times)
    expect = {"n_paths": n_paths, "n_settled": n_settled,
              "n_censored": n_paths - n_settled,
              "settled_fraction": n_settled / n_paths}
    if n_settled:
        expect.update({"min": min(times), "max": max(times)})
    for key, value in expect.items():
        if stats.get(key) != value:
            problems.append(f"settle_stats.json: {key}={stats.get(key)!r}, "
                            f"files give {value!r}")
    if n_settled >= 2 and stats.get("mean") is not None:
        mean = math.fsum(times) / n_settled
        if abs(stats["mean"] - mean) > 1e-12 * abs(mean):
            problems.append(f"settle_stats.json: mean {stats['mean']!r}, "
                            f"files give {mean!r}")
    threshold = workload.config["settle"]["settled_fraction_threshold"]
    ok = n_settled / n_paths >= threshold and stats.get("bound_satisfied") is not False
    if exit_code != (0 if ok else 1):
        problems.append(f"exit code {exit_code} contradicts settle_stats.json")
    return problems


def _check_noise(workload, seed, out_dir, exit_code) -> list:
    problems = []
    report = _load(os.path.join(out_dir, "noise_check.json"))
    if report["moment"]["n_paths"] != workload.config["noise_check"]["n_paths"]:
        problems.append(f"noise_check.json: moment.n_paths {report['moment']['n_paths']}")
    if not all(0.0 <= f <= 1.0 for f in report["wlln"]["fractions"]):
        problems.append("noise_check.json: wlln fraction outside [0, 1]")
    if not report["l1"]["max_ratio"] > 0.0:
        problems.append("noise_check.json: l1.max_ratio is not positive")
    ok = all(report[k]["passed"] for k in ("moment", "wlln", "l1"))
    if exit_code != (0 if ok else 1):
        problems.append(f"exit code {exit_code} contradicts noise_check.json")
    return problems


def _check_simulate(workload, seed, out_dir, exit_code) -> list:
    import numpy as np
    integ = workload.config["integrator"]
    h = integ["h"]
    n_steps = round(integ["horizon"] / h)
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    meta = _load(os.path.join(out_dir, "trajectory.json"))
    n = len(workload.config["x0"])
    if header != ["t"] + [f"x_{i + 1}" for i in range(n)]:
        return [f"trajectory.csv: header {header}"]
    if meta["seed"] != _path_seed(seed, 0):
        return [f"trajectory.json: seed {meta['seed']}"]
    if meta["blowup"]:
        return [] if exit_code == 1 else [f"exit code {exit_code} after a blow-up"]
    if len(rows) != n_steps + 1:
        return [f"trajectory.csv: {len(rows)} rows, expected {n_steps + 1}"]
    data = np.array(rows, dtype=float)
    if not np.array_equal(data[:, 0], h * np.arange(n_steps + 1)):
        return ["trajectory.csv: time column is not the step grid"]
    outside = np.nonzero(np.linalg.norm(data[:, 1:], axis=1) > integ["eps_settle"])[0]
    if len(outside) == 0:
        settle_time = 0.0
    elif outside[-1] == n_steps:
        settle_time = None
    else:
        settle_time = float(0.0 + (int(outside[-1]) + 1) * h)
    problems = []
    if meta["settled"] != (settle_time is not None) or meta["settle_time"] != settle_time:
        problems.append(f"trajectory.json: settled={meta['settled']} "
                        f"settle_time={meta['settle_time']!r}, csv gives {settle_time!r}")
    if exit_code != 0:
        problems.append(f"exit code {exit_code} without a blow-up")
    return problems


_INVARIANTS = {"settle": _check_settle, "noise-check": _check_noise,
               "simulate": _check_simulate}


def check_invariants(workload, seed: int, out_dir: str, exit_code: int) -> list:
    """Seed-independent consistency checks of one invocation's outputs."""
    missing = [f for f in workload.outputs
               if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        return [f"missing output {f}" for f in missing]
    try:
        return _INVARIANTS[workload.command](workload, seed, out_dir, exit_code)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
