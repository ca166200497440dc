"""perfbench's tracer against the current package: it patches sdakit's
functions by name and reads their results, so a change to a traced
signature or return value fails here and not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from sdakit import evaluation, sda
from sdakit.evaluation import CvPlan
from sdakit.synthetic import knn_problem_parts, label_subset, two_chain_fingerprints

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_solve_a_cv_and_a_bench(monkeypatch):
    tracer_mod = load_tracer()
    for mod_name, _ in tracer_mod.TRACED.values():
        importlib.import_module(mod_name)
    x, truth = two_chain_fingerprints(300, seed=1)
    _, lap = knn_problem_parts(x, 5)
    p = sda.SdaProblem(x=x, labels=label_subset(truth, 10, seed=2), lap=lap, alpha=0.5,
                       betas=(1e-3, 1e-1, 1.0), tol=1e-6)
    # Entry points are called through their modules, which the tracer patches.
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.cycle = "op0"
        for algorithm in ("fsda", "csr-sda", "sa-sda", "sr-sda"):
            assert sda.solve(p, algorithm).converged
        cv = evaluation.nested_cv(p, "fsda", CvPlan(n_outer=3, n_inner=3, seeds=(1,)))
        assert len(cv.records) == 3
        evaluation.bench_shifted(p)
    finally:
        tracer.uninstall()
    names = {span[tracer_mod.NAME] for span in tracer.spans}
    assert {"solve", "nested_cv", "bench_shifted", "cg", "shifted_cg", "block_cg",
            "centered_spectral_operator", "fsda_operator"} <= names
    metrics = tracer_mod.layer_metrics(tracer.spans, 1)
    assert metrics["trace.spans"] == len(tracer.spans)
    assert metrics["sda.solve_s"] > 0 and metrics["evaluation.cv_s"] > 0
    assert metrics["krylov.solves"] > 0 and metrics["krylov.unconverged"] == 0
    assert all(np.isfinite(v) for v in metrics.values())

    # Sweeps read each shifted solve's result at several budgets. A second
    # tracer counts every shift that a budget stops unconverged, as many as
    # the results themselves hold.
    plan = CvPlan(n_outer=3, n_inner=3, seeds=(1,))

    def sweeps():
        for algorithm in ("sa-sda", "fsda"):
            cv = evaluation.nested_cv(p, algorithm, plan, sweep=(2, 5))
            assert len(cv.records) == 6

    unconverged, solve = [], sda.shifted_cg

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        unconverged.append(np.count_nonzero(~out.converged))
        return out

    with monkeypatch.context() as m:
        m.setattr(sda, "shifted_cg", counted)
        sweeps()
    assert sum(unconverged) > 0  # budget 2 stops shifts unconverged
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.cycle = "op0"
        sweeps()
    finally:
        tracer.uninstall()
    metrics = tracer_mod.layer_metrics(tracer.spans, 1)
    assert metrics["krylov.solves"] == len(unconverged)
    assert metrics["krylov.unconverged"] == sum(unconverged)
