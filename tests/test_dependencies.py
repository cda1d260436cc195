"""The package depends on numpy alone.

scipy and Hypothesis may be installed next to it, but no module of
``adapts`` may import them. A fresh interpreter imports every module,
replays a small series and runs ``adapts bench``, then lists the modules
of either package that it holds.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib
import pkgutil
import sys

import numpy as np

import adapts
from adapts.cli import main
from adapts.config import RollingConfig
from adapts.harness import NaiveSeasonalBase, run

for module in pkgutil.iter_modules(adapts.__path__):
    if module.name != "__main__":
        importlib.import_module(f"adapts.{module.name}")
t = np.arange(200.0)
data = np.stack([np.sin(2 * np.pi * t / 8), np.cos(2 * np.pi * t / 8) + 0.01 * t], axis=1)
report = run(data, NaiveSeasonalBase(8, 4), RollingConfig(
    context_length=16, horizon=4, update_period=8, seasonality=8, warmup=1))
assert report.update_steps > 0
assert main(["bench", "--set", "context_length=16", "--set", "horizon=4",
             "--set", "seasonality=4", "--update-period", "4", "--updates", "2"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "hypothesis")))
"""


def test_package_imports_neither_scipy_nor_hypothesis():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
