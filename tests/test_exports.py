"""The package's public names, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import sdakit

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_exactly_what_star_import_binds():
    assert len(set(sdakit.__all__)) == len(sdakit.__all__)
    missing = [name for name in sdakit.__all__ if not hasattr(sdakit, name)]
    assert not missing, f"stale exports: {missing}"
    namespace = {}
    exec("from sdakit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sdakit.__all__)


def test_importing_the_cli_loads_no_scipy_stats():
    """scipy.stats takes most of the CLI's import time and sdakit needs none
    of it: a fresh process that imports sdakit.cli has not loaded it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sdakit.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
