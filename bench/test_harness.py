"""Self-tests of the benchmark harness (not of settlekit itself)."""

import json
import math
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


STUB_PACKAGE = {
    "__init__.py": "",
    "core.py": (
        "class Model:\n"
        "    def field(self, x, t):\n"
        "        return x\n"
        "\n"
        "\n"
        "def step(model, x, t):\n"
        "    return model.field(x, t)\n"),
    "user.py": (
        "from stubkit.core import step\n"
        "\n"
        "\n"
        "def run(model, x, n):\n"
        "    for t in range(n):\n"
        "        x = step(model, x, t)\n"
        "    return x\n"),
}

STUB_LAYERS = [("user.run", "stubkit.user", "run"),
               ("core.step", "stubkit.core", "step"),
               ("systems.field", "stubkit.core", "Model.field")]


@pytest.fixture
def stubkit(tmp_path, monkeypatch):
    """A two-module package shaped like settlekit: ``user`` imports ``step``
    from ``core`` by name, and ``step`` calls a method."""
    package = tmp_path / "stubkit"
    package.mkdir()
    for name, text in STUB_PACKAGE.items():
        (package / name).write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    from stubkit import core, user
    yield core, user
    for name in [m for m in sys.modules if m == "stubkit" or m.startswith("stubkit.")]:
        del sys.modules[name]


def test_wrappers_trace_calls_and_restore_originals(stubkit, tmp_path):
    core, user = stubkit

    def lookups():
        return [core.step, user.step, user.run, core.Model.__dict__["field"]]

    before = lookups()
    tracer = tracing.Tracer("test")
    tracer.install(STUB_LAYERS)
    try:
        wrapped = lookups()
        for fn, original in zip(wrapped, before):
            assert fn is not original and fn.__wrapped__ is original
        user.run(core.Model(), np.ones((4, 2)), 3)
    finally:
        tracer.restore()
    assert lookups() == before
    assert tracer.absent == []
    assert tracer.counts["systems.field.rows"] == 3 * 4

    tracer.dump(str(tmp_path / "spans.json"))
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["run_id"] == "test"
    summary = tracing.summarize(spans)
    assert {name: summary[name]["calls"] for name in ("user.run", "core.step",
                                                      "systems.field")} == \
        {"user.run": 1, "core.step": 3, "systems.field": 3}
    names = [spans["names"][i] for i in spans["name"]]
    parent_names = {names[p] if p >= 0 else None
                    for n, p in zip(names, spans["parent"]) if n == "systems.field"}
    assert parent_names == {"core.step"}


def test_install_on_settlekit_wraps_and_restores_every_present_layer():
    import settlekit.cli  # noqa: F401  (imports every module that looks layers up)

    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert owner.__dict__[attr].__wrapped__ is original
        modules = {getattr(owner, "__module__", getattr(owner, "__name__", None))
                   for owner, _attr, _original in patched}
        for name, module_name, _attr in tracing.LAYERS:
            if name not in tracer.absent:
                assert module_name in modules, name
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_live_rows_are_counted_in_the_monte_carlo_sweep_only():
    tracer = tracing.Tracer("test")
    x = np.array([[0.0, 0.0], [1e-300, 0.0], [0.0, -2.0], [0.0, 0.0]])
    count = tracing.COUNTERS["integrate.rk4_step"]
    count(tracer, "settlekit.montecarlo", (None, x), {})
    count(tracer, "settlekit.integrate", (None, x), {})
    assert tracer.counts["montecarlo.path_steps"] == 4
    assert tracer.counts["montecarlo.live_path_steps"] == 2
    tracing.COUNTERS["noise.sample_path"](tracer, "", (), {"seed": 5})
    tracing.COUNTERS["noise.sample_path"](tracer, "", (0, 0, 0, 0, 5), {})
    assert tracer.seeds == {5}


def test_missing_layer_is_reported_absent():
    tracer = tracing.Tracer("test")
    tracer.install([("noise.gone", "settlekit.noise", "no_such_function"),
                    ("systems.gone", "settlekit.systems", "SystemModel.no_such_method")])
    assert tracer.absent == ["noise.gone", "systems.gone"]
    assert tracer._patched == []


def test_self_time_of_nested_spans():
    #   0 root [0, 100]
    #   1   a  [10, 40]   -> 2 inside it
    #   2     a1 [20, 30]
    #   3   b  [50, 90]   -> 4 and 5 overlap, 5 runs past b's end
    #   4     b1 [55, 70]
    #   5     b2 [65, 95]
    starts = [0, 10, 20, 50, 55, 65]
    ends = [100, 40, 30, 90, 70, 95]
    parents = [-1, 0, 1, 0, 3, 3]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 5, 15, 30]

    spans = {"names": ["a", "root"], "name": [1, 0, 0, 0, 0, 0],
             "start": starts, "end": ends, "parent": parents}
    summary = tracing.summarize(spans)
    assert summary["root"] == {"calls": 1, "s": pytest.approx(100e-9),
                               "self_s": pytest.approx(30e-9)}
    assert summary["a"]["calls"] == 5
    assert summary["a"]["self_s"] == pytest.approx((20 + 10 + 5 + 15 + 30) * 1e-9)


def test_one_ulp_change_is_flagged(tmp_path):
    value = 1.4877340000000001
    nudged = math.nextafter(value, math.inf)
    assert outputs.flatten({"a": [1, {"b": value}]}) == {"a.0": 1, "a.1.b": value}

    def write(directory, x):
        directory.mkdir()
        (directory / "settle_paths.csv").write_text(
            f"path_index,seed,settled,settle_time\n0,1,true,{x:.17g}\n")
        (directory / "settle_stats.json").write_text(json.dumps({"mean": x, "n": 1}))
        return outputs.record(str(directory), ["settle_paths.csv", "settle_stats.json"], 0)

    reference = write(tmp_path / "ref", value)
    assert outputs.compare(reference, write(tmp_path / "same", value)) == []
    problems = outputs.compare(reference, write(tmp_path / "ulp", nudged))
    assert problems == ["settle_paths.csv: sha256 differs",
                        f"settle_stats.json: field mean = {nudged!r}, "
                        f"expected {value!r}"]

    extra = dict(reference, files=dict(reference["files"]))
    extra["files"]["run.json"] = {"fields": {"stage.s": 0.1}}
    assert outputs.compare(reference, extra) == []
    assert outputs.compare(extra, reference) == ["run.json: present False, expected True"]
    assert outputs.compare(reference, dict(reference, exit_code=1)) == [
        "exit code 1, expected 0"]


def test_launch_kills_a_hung_process(tmp_path):
    res = run.launch([sys.executable, "-c", "import time; time.sleep(30)"],
                     str(tmp_path), timeout=0.5)
    assert res.exit_code == -9 and res.timed_out and res.wall < 10
    assert not run.launch([sys.executable, "-c", "pass"], str(tmp_path),
                          timeout=60).timed_out


def test_pairs_stop_before_the_run_deadline():
    deadline = time.monotonic() + 0.5
    pairs = 0
    for _ in run._pairs(seconds=100, minimum=10, deadline=deadline):
        time.sleep(0.2)
        pairs += 1
    assert 1 <= pairs <= 2


def test_speed_probe_restores_affinity():
    cpus = os.sched_getaffinity(0)
    assert run.spin_s() > 0
    assert os.sched_getaffinity(0) == cpus


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    process_metrics = {"process.cpu_s", "process.cpu_util", "trace.wall_s",
                       "trace.overhead_s"}
    assert set(run.layer_metrics({}, {})) | process_metrics == set(run.LAYER_UNITS)
    with open(os.path.join(BENCH, "references.json")) as fh:
        references = json.load(fh)
    assert sorted(references) == sorted(WORKLOADS)
    for entry in references.values():
        assert entry["seed"] == run.DEFAULT_SEED
