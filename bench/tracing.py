"""Spans around settlekit's public layer boundaries, installed from outside.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper in every settlekit module that looks it up by name (and methods on
their class), so ``src/`` stays untouched.  Spans are kept in memory as
parallel lists and written out once; ``summarize`` turns them into per-name
call counts, total time and self time (duration minus the part of the span
covered by its children), in seconds.  A layer whose function no longer exists is
listed in ``absent`` and its metrics are left out, not reported as zero.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute in that module)
LAYERS = [
    ("cli.load_config", "settlekit.cli", "load_config"),
    ("noise.sample_path", "settlekit.noise", "sample_path"),
    ("noise.path_seed", "settlekit.noise", "path_seed"),
    ("noise.estimate_mean_square", "settlekit.noise", "estimate_mean_square"),
    ("noise.check_wlln", "settlekit.noise", "check_wlln"),
    ("noise.check_l1_bound", "settlekit.noise", "check_l1_bound"),
    ("systems.field", "settlekit.systems", "SystemModel.field"),
    ("integrate.rk4_step", "settlekit.integrate", "rk4_step"),
    ("integrate.integrate_path", "settlekit.integrate", "integrate_path"),
    ("montecarlo.sweep", "settlekit.montecarlo", "_BatchRun.sweep"),
    ("montecarlo.estimate_settling", "settlekit.montecarlo", "estimate_settling"),
    ("certify.settling_bound", "settlekit.certify", "settling_bound"),
    ("fileio.write_csv", "settlekit.fileio", "write_csv"),
    ("fileio.write_json", "settlekit.fileio", "write_json"),
]

COUNT_SPAN = "trace.count"   # time the tracer spends counting rows


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_field(tracer, module, args, kwargs):
    tracer.counts["systems.field.rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _count_rk4(tracer, module, args, kwargs):
    # Rows stepped by the Monte Carlo sweep; absorbed and blown rows are
    # held at exactly 0, so a row with any nonzero entry is live.
    if module == "settlekit.montecarlo":
        x = _arg(args, kwargs, 1, "x")
        tracer.counts["montecarlo.path_steps"] += _rows(x)
        tracer.counts["montecarlo.live_path_steps"] += int((x != 0).any(axis=-1).sum())


def _count_sample_path(tracer, module, args, kwargs):
    tracer.seeds.add(int(_arg(args, kwargs, 4, "seed")))


def _count_write_csv(tracer, module, args, kwargs):
    tracer.counts["fileio.write_csv.rows"] += len(_arg(args, kwargs, 2, "columns")[0])


COUNTERS = {"systems.field": _count_field, "integrate.rk4_step": _count_rk4,
            "noise.sample_path": _count_sample_path,
            "fileio.write_csv": _count_write_csv}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = [-1]
        self.counts = Counter()
        self.seeds = set()
        self.absent = []
        self._patched = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, module: str = ""):
        """``fn`` recorded as a span ``name``; counters see the call args."""
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                c = self._open(COUNT_SPAN)
                counter(self, module, args, kwargs)
                self._close(c)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, getattr(owner, "__name__", "")))
        self._patched.append((owner, attr, original))

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer function wherever the modules of its package look
        it up; a method is wrapped on its class."""
        import importlib
        for name, module_name, attr in layers:
            module = importlib.import_module(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                if cls is None or method not in cls.__dict__:
                    self.absent.append(name)
                else:
                    self.patch(cls, method, name)
                continue
            original = module.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                continue
            package = module_name.partition(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == package or mod_name.startswith(package + ".")) \
                        and getattr(mod, "__dict__", {}).get(attr) is original:
                    self.patch(mod, attr, name)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        counts = dict(self.counts, **{"noise.distinct_seeds": len(self.seeds)})
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": table,
                       "name": [code[n] for n in self.names],
                       "start": self.starts, "end": self.ends,
                       "parent": self.parents, "counts": counts,
                       "absent": self.absent}, fh)


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (lo, hi) in enumerate(zip(starts, ends)):
        covered, cursor = 0.0, lo
        for c in sorted(children.get(idx, ()), key=starts.__getitem__):
            a, b = max(starts[c], cursor), min(ends[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


def summarize(spans: dict) -> dict:
    """Per span name: calls, total seconds and self seconds.

    ``spans`` is what ``Tracer.dump`` writes: span start and end times in
    integer nanoseconds and each span's parent index (-1 for a root).
    """
    names = [spans["names"][i] for i in spans["name"]]
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, lo, hi, own in zip(names, spans["start"], spans["end"], selfs):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += (hi - lo) * 1e-9
        entry["self_s"] += own * 1e-9
    return dict(out)
