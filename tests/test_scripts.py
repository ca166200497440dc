"""Smoke tests for scripts/: each script runs as its own process against
the checkout's src/ and exits 0, so a script that imports a name sdakit no
longer has fails here."""

import os
import subprocess
import sys
from pathlib import Path

from sdakit.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_semi_supervised_sweep_runs(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    proc = run_script("semi_supervised_sweep.py", "--n", "300", "--seeds", "1",
                      "--budgets", "5", "--csv", str(csv_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert csv_path.read_text().startswith("labels_per_class,")


def test_make_synthetic_dataset_feeds_train(tmp_path):
    out = tmp_path / "demo"
    proc = run_script("make_synthetic_dataset.py", "--kind", "chains", "--n", "300",
                      "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code = main(["train", "--data", f"{out}.data", "--labels", f"{out}.labels",
                 "--graph", "knn", "--k", "5", "--algorithm", "fsda",
                 "--output", str(tmp_path / "run")])
    assert code == EXIT_OK
    assert (tmp_path / "run.ratings.bin").is_file()
