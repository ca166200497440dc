"""Smoke tests for scripts/: each script runs as its own process against
the checkout's src/ and exits 0, so a script that imports a name sdakit no
longer has fails here."""

import json
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


def fake_run(work, name, workload, seed, op_s, setup_s, rss):
    run = work / name
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps({"workload": workload, "seed": seed}))
    env = {"nproc": 2, "numpy": "2.0", "seed": seed}
    (run / "result.json").write_text(json.dumps(
        {"environment": env, "setup_s": setup_s, "op_s": op_s, "peak_rss_mb": rss}))


def test_collect_bench_summarizes_runs_per_workload_and_seed(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    work = tmp_path / ".perfbench_work"
    for r, (op, setup, rss) in enumerate([(1.0, 0.3, 100.0), (2.0, 0.1, 104.0),
                                          (3.0, 0.2, 102.0), (4.0, 0.4, 106.0)]):
        fake_run(work, f"chains-cv-seed1-trace0.r{r}", "chains-cv", 1,
                 [op, op + 1.0, op + 9.0], [setup, setup], rss)
    fake_run(work, "fp-knn-seed2-trace0", "fp-knn", 2, [0.5], [0.7], 90.0)
    (work / "fp-knn-seed2-trace1").mkdir()
    (work / "fp-knn-seed2-trace1" / "result.json").write_text(json.dumps({"op_s": [9.0]}))
    proc = run_script("collect_bench.py", "--out", "BENCH_1.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_1.json").read_text())
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert bench["commit"] == head and bench["uncommitted_changes"] is False
    assert bench["environment"] == {"nproc": 2, "numpy": "2.0"}
    chains = bench["workloads"]["chains-cv"]["1"]
    # One value per run: the medians of its samples (2, 3, 4, 5 s of op_s).
    assert chains["op_s"] == {"median": 3.5, "q1": 2.25, "q3": 4.75, "n": 4}
    assert chains["setup_s"]["median"] == 0.25
    assert chains["peak_rss_mb"] == {"median": 103.0, "q1": 100.5, "q3": 105.5, "n": 4}
    assert bench["workloads"]["fp-knn"] == {"2": {
        "op_s": {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1},
        "setup_s": {"median": 0.7, "q1": 0.7, "q3": 0.7, "n": 1},
        "peak_rss_mb": {"median": 90.0, "q1": 90.0, "q3": 90.0, "n": 1}}}


def fake_traced_run(work, name, workload, seed, layers):
    run = work / name
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps({"workload": workload, "seed": seed}))
    env = {"nproc": 2, "numpy": "2.0", "seed": seed}
    (run / "result.json").write_text(json.dumps(
        {"environment": env, "op_s": [0.3], "traced_op_s": [0.4], "layers": layers}))


def test_collect_bench_takes_the_median_of_each_traced_layer_metric(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    work = tmp_path / ".perfbench_work"
    fake_run(work, "fp-knn-seed1-trace0", "fp-knn", 1, [0.3], [0.7], 90.0)
    for r, layers in enumerate([{"io.read_s": 0.27, "io.calls": 9.0, "sda.solve_s": 0.08},
                                {"io.read_s": 0.21, "io.calls": 9.0, "sda.solve_s": 0.10},
                                {"io.read_s": 0.25, "io.calls": 9.0}]):
        fake_traced_run(work, f"fp-knn-seed1-trace1.r{r}", "fp-knn", 1, layers)
    fake_traced_run(work, "big-solve-seed2-trace1", "big-solve", 2, {"sparse.lz_n": 139.0})
    proc = run_script("collect_bench.py", "--out", "BENCH_1.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_1.json").read_text())
    fp = bench["workloads"]["fp-knn"]["1"]
    assert fp["op_s"]["median"] == 0.3 and fp["op_s"]["n"] == 1
    # A metric that a run lacks counts as 0 there, as perfbench reports it.
    assert fp["layers"] == {"n": 3, "median": {
        "io.calls": 9.0, "io.read_s": 0.25, "sda.solve_s": 0.08}}
    assert bench["workloads"]["big-solve"] == {
        "2": {"layers": {"n": 1, "median": {"sparse.lz_n": 139.0}}}}
