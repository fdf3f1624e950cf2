"""The package depends on numpy alone."""

import os
import subprocess
import sys

CHILD = """
import importlib, pkgutil, sys
import catent
names = [m.name for m in pkgutil.iter_modules(catent.__path__, "catent.")]
for name in names:
    importlib.import_module(name)
print(len(names), sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_module_imports_scipy():
    # a fresh interpreter, so nothing imported by another test is counted
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.split(" ", 1)
    assert int(count) >= 9
    assert loaded.strip() == "[]"
