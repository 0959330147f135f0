"""The CLI runs on numpy alone: importing it and running any command loads
no scipy module.  Only the general-rate theta, the Osgood divergence probe
and the integral-form check import scipy, when they are called.

Each case runs in a fresh interpreter, so modules that other tests loaded
into this one do not count.

The library modules below the CLI write no files: none of them imports
``settlekit.fileio``, so the file formats live in ``cli`` and ``fileio``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import settlekit

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(settlekit.__file__)))

PROBE = """
import json, sys
import settlekit, settlekit.cli
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def readme_config() -> dict:
    """The JSON block of README's "Config schema" section."""
    section = README.read_text().split("### Config schema", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def readme_library_use() -> str:
    """The python block of README's "Library use" section."""
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def scipy_modules_after(body: str, cwd) -> list:
    """Names of the scipy modules loaded after running ``body`` in a fresh
    interpreter that has imported settlekit and settlekit.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def small_config(out_dir) -> dict:
    """The README config cut to a few paths and a short horizon."""
    cfg = readme_config()
    cfg["integrator"]["horizon"] = 4.0
    cfg["mc"]["n_paths"] = 10
    cfg["noise_check"].update(n_paths=10, horizon=10.0, check_times=[10.0])
    cfg["out_dir"] = str(out_dir)
    return cfg


def example2_filtered_config(out_dir) -> dict:
    """example2-closed under filtered noise, with no certificate block (a
    bound check needs at least 100 paths)."""
    cfg = small_config(out_dir)
    del cfg["certificate"]
    cfg.update(model="example2-closed", x0=[3.0])
    cfg["noise"] = {"kind": "filtered-white-noise", "intensity": 0.5,
                    "tau_f": 1.0, "dimension": 1, "h_noise": 0.01}
    cfg["integrator"]["horizon"] = 10.0
    return cfg


def test_readme_library_use_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", readme_library_use()],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("4.7247")


def test_import_and_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(readme_config()))
    body = f"settlekit.cli.load_config({str(path)!r})"
    assert scipy_modules_after(body, tmp_path) == []


@pytest.mark.parametrize("config,command", [
    (example2_filtered_config, "settle"),
    (small_config, "noise-check"),
    (small_config, "simulate"),
    (small_config, "certify"),
    (None, "reproduce"),
], ids=["settle-example2-filtered", "noise-check", "simulate", "certify",
        "reproduce-fig2"])
def test_cli_command_loads_no_scipy(tmp_path, config, command):
    out = tmp_path / "out"
    if config is None:
        argv = ["reproduce", "fig2", "--out", str(out)]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config(out)))
        argv = ["--config", str(path), command]
    body = f"assert settlekit.cli.main({argv!r}) == 0"
    assert scipy_modules_after(body, tmp_path) == []
    assert any(out.iterdir())


@pytest.mark.parametrize("body,module", [
    ("import numpy as np\n"
     "from settlekit.certify import Certificate, PowerLaw\n"
     "cert = Certificate(state_dim=1, V=lambda x: 0.5 * np.sum(np.square(x), axis=-1),\n"
     "                   gradV=lambda x: np.asarray(x, dtype=float),\n"
     "                   rate_fn=lambda v: np.asarray(v, dtype=float) ** 0.5,\n"
     "                   c1=1.0, c2=0.1, noise_bound=0.0,\n"
     "                   alpha1=PowerLaw(0.5, 2), alpha2=PowerLaw(0.5, 2))\n"
     "settlekit.theta_inverse(cert, 1.0)",
     "scipy.optimize"),
    ("from settlekit.systems import Modulus\n"
     "settlekit.check_osgood_divergence(Modulus.linear(1.0), Modulus.linear(1.0), 1.0)",
     "scipy.integrate"),
    ("import numpy as np\n"
     "m = settlekit.make_example1()\n"
     "path = settlekit.sample_path(settlekit.zero_process(2), 0.0, 0.1, 0.01, 0)\n"
     "traj = settlekit.integrate_path(m, path, np.ones(2),\n"
     "                                settlekit.IntegratorConfig(h=1e-3, horizon=0.1))\n"
     "settlekit.check_integral_form(traj, m, path, tol=1e-6)",
     "scipy.integrate"),
], ids=["theta_inverse-rate_fn", "check_osgood_divergence",
        "check_integral_form"])
def test_scipy_users_import_it_when_called(tmp_path, body, module):
    # the control for the tests above: the probe does see a lazy import
    assert module in scipy_modules_after(body, tmp_path)


def imported_modules(source: str) -> set:
    """Absolute names of the modules a ``settlekit`` module's source
    imports, the names a ``from`` import takes from a package included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["settlekit" if node.level else "",
                                          node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_library_modules_write_no_files():
    package = Path(settlekit.__file__).parent
    importers = [name for name in ("noise", "integrate", "montecarlo", "certify",
                                   "systems")
                 if "settlekit.fileio" in imported_modules(
                     (package / f"{name}.py").read_text())]
    assert importers == []


@pytest.mark.parametrize("source", [
    "from .fileio import write_csv", "from . import fileio",
    "from settlekit import fileio", "import settlekit.fileio"])
def test_every_import_form_is_seen(source):
    # the control for the test above
    assert "settlekit.fileio" in imported_modules(source)
