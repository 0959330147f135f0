"""The benchmark's traced runs wrap settlekit's layer functions by name and
read some of their arguments by position (``bench/tracing.py``).  A layer
that disappears or a counted parameter that moves silently drops metrics
from a traced run, so the contract is checked here against the package."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# counter span -> (the counted parameter, its position in the signature)
COUNTED = {"systems.field": ("x", 1), "integrate.rk4_step": ("x", 1),
           "noise.sample_path": ("seed", 4), "fileio.write_csv": ("columns", 2)}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def holders(layers) -> dict:
    """(owner, attribute) -> function for every settlekit module or class
    that holds a layer function under the layer's name."""
    out = {}
    for _name, module_name, attr in layers:
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            cls = getattr(importlib.import_module(module_name), cls_name)
            out[cls, attr] = cls.__dict__[attr]
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "settlekit" and attr in vars(mod):
                out[mod, attr] = vars(mod)[attr]
    return out


def test_every_layer_is_wrapped_with_its_counted_parameter(tracing):
    import settlekit.cli  # noqa: F401  (imports every module that looks layers up)

    before = holders(tracing.LAYERS)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert tracer.absent == []
        for name, (param, pos) in COUNTED.items():
            assert name in tracing.COUNTERS
            layer = [entry for entry in tracing.LAYERS if entry[0] == name]
            # every holder is wrapped, and all of them wrap one function
            (original,) = {fn.__wrapped__ for fn in holders(layer).values()}
            assert list(inspect.signature(original).parameters)[pos] == param, name
    finally:
        tracer.restore()
    assert holders(tracing.LAYERS) == before
