"""perfbench's measured client against the current package, on tiny inputs.

The client calls sdakit directly: `cli.main` with each workload's argv,
`SdaProblem(...)`, `sda.solve`, a report's ratings and directions, and
`RunConfig().n_threads`. A change to any of them fails here and not only
in a benchmark run. Each workload's setup and steps run once through
`client.Runner`, with the client's own output checks.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sdakit.synthetic import label_subset, two_chain_fingerprints

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run.py imports workloads by that name; client.py imports tracer from the
# directory that run.py puts on sys.path.
MODULES = (("workloads", "workloads"), ("perfbench_run", "run"), ("perfbench_client", "client"))


@pytest.fixture(scope="module")
def perfbench():
    saved_path = list(sys.path)
    loaded = {}
    try:
        for name, stem in MODULES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
            module = importlib.util.module_from_spec(spec)
            # Dataclasses look their module up in sys.modules while being built.
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[stem] = module
        yield loaded
    finally:
        sys.path[:] = saved_path
        for name in [n for n, _ in MODULES] + ["tracer"]:
            sys.modules.pop(name, None)


def csr(workloads, n_rows, n_cols, keys):
    keys = np.unique(np.asarray(keys, dtype=np.int64))
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=offsets[1:])
    return workloads.Csr(n_rows, n_cols, offsets, keys % n_cols)


def fingerprints(workloads, rng, n=300, d=64, bits=8):
    picks = np.argpartition(rng.random((n, d)), bits, axis=1)[:, :bits]
    return csr(workloads, n, d, (np.arange(n)[:, None] * d + picks).ravel())


def write_workload(perfbench, name, work):
    workloads, run = perfbench["workloads"], perfbench["run"]
    rng = np.random.default_rng(7)
    graph = None
    if name == "chains-cv":
        x, truth = two_chain_fingerprints(400, seed=4)
        x = workloads.Csr(x.n_rows, x.n_cols, x.row_offsets.astype(np.int64),
                          x.col_indices.astype(np.int64))
        labels = label_subset(truth, 10, seed=5).labels
    else:
        x = fingerprints(workloads, rng)
        labels = label_subset(np.where(rng.random(x.n_rows) < 0.5, 1, -1), 10, seed=3).labels
    if name == "big-solve":
        n = x.n_rows
        src = np.repeat(np.arange(n), 3)
        dst = rng.integers(0, n - 1, src.size)
        dst += dst >= src
        graph = csr(workloads, n, n, np.concatenate([src * n + dst, dst * n + src]))
    files = workloads.write_inputs(workloads.Inputs(x, labels, graph=graph), work)
    if graph is None:
        knn = name == "fp-knn"
        keys, _ = run.tanimoto_oracle(x, k=5 if knn else None, theta=None if knn else 0.5)
        np.savez(work / "expected.npz", adjacency=keys)
    return files


@pytest.mark.parametrize("name", ["fp-knn", "chains-cv", "big-solve"])
def test_client_runs_each_workload_without_failures(perfbench, tmp_path, name):
    client = perfbench["client"]
    files = write_workload(perfbench, name, tmp_path)
    wl = client.SolveWorkload(files) if name == "big-solve" \
        else client.CliWorkload(name, tmp_path, files)
    runner = client.Runner(wl)
    try:
        runner.run([wl.setup_step()])
        runner.run(wl.steps)
    finally:
        wl.close()
    assert runner.failures == []
    assert runner.attempted == 1 + len(wl.steps)


def test_client_environment_serializes(perfbench):
    env = perfbench["client"].environment(1)
    assert json.loads(json.dumps(env))["seed"] == 1
    assert env["cli_threads"] >= 1
