"""Config parsing and the command-line front end, run in-process.

Covers the file format and precedence rules of the flat config, every
documented exit code (0 success, 2 input/config error, 3 solver
non-convergence, 4 I/O error), and each subcommand end to end on a small
synthetic dataset.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from sdakit import io as sdio, sda
from sdakit.blas import available_cpus
from sdakit.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from sdakit.config import (
    ConfigError,
    RunConfig,
    build_config,
    parse_config_file,
)
from sdakit.graph import knn_graph, laplacian
from sdakit.krylov import SolverBreakdownError
from sdakit.sda import SdaProblem, solve
from sdakit.synthetic import clustered_binary, label_subset

# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.graph == "knn"
    assert cfg.k == 5
    assert cfg.theta == 0.4
    assert cfg.algorithm == "fsda"
    assert cfg.alpha == 0.5
    assert len(cfg.beta) == 13
    assert cfg.tol == 1e-8
    assert cfg.output == "sdakit-out"
    cfg.validate(need_data=False)


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    """threads = 0 means the CPUs the process may run on, not the machine's."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert available_cpus() == 1
    assert RunConfig().n_threads == 1
    assert RunConfig(threads=3).n_threads == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert available_cpus() == 64
    assert RunConfig().n_threads == 64


def test_config_file_both_separators_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "alpha = 0.25\n"
        "k 7\n"
        "beta = 1e-4, 1e-2 1.0\n"
        "graph threshold   # trailing comment\n"
        "text-ratings = yes\n"
        "\n"
    )
    values = parse_config_file(path)
    assert values == {
        "alpha": 0.25,
        "k": 7,
        "beta": (1e-4, 1e-2, 1.0),
        "graph": "threshold",
        "text_ratings": True,
    }


def test_config_file_unknown_key_points_at_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 0.5\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: unknown config key 'bogus'"):
        parse_config_file(path)


def test_config_file_bad_value_points_at_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("k = three\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1: bad value for 'k'"):
        parse_config_file(path)
    path.write_text("text_ratings = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_file(path)


def test_build_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.25\nk = 7\nseed = 3 4\n")
    cfg = build_config(path, {"alpha": 0.75, "beta": [1e-3, 1e-1]})
    assert cfg.alpha == 0.75  # CLI beats file
    assert cfg.k == 7  # file beats default
    assert cfg.seed == (3, 4)
    assert cfg.beta == (1e-3, 1e-1)
    assert cfg.theta == 0.4  # untouched default


def test_build_config_rejects_unknown_override():
    with pytest.raises(ConfigError):
        build_config(None, {"bogus": 1})


def test_beta_grid_is_sorted():
    cfg = RunConfig(beta=(1.0, 1e-4, 1e-2))
    assert cfg.beta_grid == (1e-4, 1e-2, 1.0)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(data=None), "field 'data'"),
        (dict(graph="mesh"), "field 'graph'"),
        (dict(graph="precomputed"), "field 'graph_file'"),
        (dict(k=0), "field 'k'"),
        (dict(theta=0.0), "field 'theta'"),
        (dict(theta=1.5), "field 'theta'"),
        (dict(algorithm="pca"), "field 'algorithm'"),
        (dict(alpha=-0.1), "field 'alpha'"),
        (dict(alpha=1.5), "field 'alpha'"),
        (dict(algorithm="sa-sda", alpha=0.0), "sa-sda requires alpha != 0"),
        (dict(algorithm="lda", alpha=0.5), "fsda at alpha = 0"),
        (dict(beta=()), "field 'beta'"),
        (dict(beta=(-1e-3,)), "non-negative"),
        (dict(beta=(1e-3, 1e-3)), "distinct"),
        (dict(tol=0.0), "field 'tol'"),
        (dict(iters_spectral=0), "iters_spectral"),
        (dict(seed=()), "field 'seed'"),
        (dict(threads=-1), "field 'threads'"),
        (dict(iters_sweep=(0,)), "iters_sweep"),
    ],
)
def test_validate_names_the_offending_field(kw, message):
    base = dict(data="x.smx", labels="y.labels")
    base.update(kw)
    with pytest.raises(ConfigError, match=message):
        RunConfig(**base).validate(need_data=True, need_labels=True)


# ----------------------------------------------------------------- CLI runs


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    x, truth = clustered_binary(60, 16, seed=21, p_own=0.45, p_other=0.02)
    labels = label_subset(truth, 12, seed=22)
    data = root / "demo.smx"
    lab = root / "demo.labels"
    sdio.write_sparse_text(data, x)
    sdio.write_labels(lab, labels)
    return {"root": root, "data": str(data), "labels": str(lab), "x": x}


def run(argv):
    return main(argv)


def test_build_graph_and_rerun_identical(dataset, tmp_path):
    out1, out2 = tmp_path / "g1.graph.txt", tmp_path / "g2.graph.txt"
    code = run(["build-graph", "--data", dataset["data"], "--graph", "knn",
                "--k", "3", "--graph-file", str(out1)])
    assert code == EXIT_OK
    assert out1.exists()
    code = run(["build-graph", "--data", dataset["data"], "--graph", "knn",
                "--k", "3", "--graph-file", str(out2)])
    assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_build_graph_threshold_variant(dataset, tmp_path):
    out = tmp_path / "t.graph.txt"
    code = run(["build-graph", "--data", dataset["data"], "--graph", "threshold",
                "--theta", "0.3", "--graph-file", str(out)])
    assert code == EXIT_OK
    assert out.exists()


def test_info_reports_checksum_match(dataset, tmp_path, capsys):
    graph = tmp_path / "g.graph.txt"
    run(["build-graph", "--data", dataset["data"], "--graph", "knn",
         "--k", "3", "--graph-file", str(graph)])
    capsys.readouterr()
    code = run(["info", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph-file", str(graph)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "data: 60 x 16" in out
    assert "+1: 12, -1: 12, unlabeled: 36" in out
    assert "checksum matches the data file" in out


def test_train_writes_ratings_and_report(dataset, tmp_path):
    prefix = str(tmp_path / "run")
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "fsda",
                "--alpha", "0.5", "--beta", "1e-4", "--beta", "1e-2",
                "--beta", "1.0", "--seed", "1", "--output", prefix,
                "--text-ratings"])
    assert code == EXIT_OK
    betas, scores = sdio.read_ratings(f"{prefix}.ratings.bin")
    np.testing.assert_allclose(betas, [1e-4, 1e-2, 1.0])
    assert scores.shape == (3, 60)
    assert np.isfinite(scores).all()
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert report["algorithm"] == "fsda"
    assert report["converged"] is True
    assert report["config"]["alpha"] == 0.5
    text = Path(f"{prefix}.ratings.txt").read_text()
    assert text.splitlines()[0].startswith("#")


def test_train_report_has_phase_times_and_blas_threads(dataset, tmp_path):
    prefix = str(tmp_path / "run")
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "csr-sda",
                "--alpha", "0.5", "--beta", "1e-2", "--seed", "1", "--output", prefix])
    assert code == EXIT_OK
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert "blas_threads" in report
    assert report["product_threads"] == 1
    for phase in ("spectral", "regression"):
        assert report[phase]["wall_time_s"] >= 0.0


def test_reports_carry_graph_threads(dataset, tmp_path):
    """train's report.json and cv's records.json name the threads of the
    pool that built the graph, and null for a graph read from a file."""
    graph = tmp_path / "g.graph.txt"
    run(["build-graph", "--data", dataset["data"], "--graph", "knn",
         "--k", "3", "--graph-file", str(graph)])
    built = knn_graph(sdio.read_sparse(dataset["data"]), 3, n_threads=RunConfig().n_threads)
    assert isinstance(built.stats.threads, int) and built.stats.threads >= 1
    base = ["--data", dataset["data"], "--labels", dataset["labels"], "--algorithm", "fsda",
            "--alpha", "0.5", "--beta", "1e-2", "--seed", "1"]
    for source, expected in ((["--graph", "knn", "--k", "3"], built.stats.threads),
                             (["--graph", "precomputed", "--graph-file", str(graph)], None)):
        prefix = str(tmp_path / "run")
        assert run(["train", *base, *source, "--output", prefix]) == EXIT_OK
        assert json.loads(Path(f"{prefix}.report.json").read_text())["graph_threads"] == expected
        assert run(["cv", *base, *source, "--iters-sweep", "5", "--output", prefix]) == EXIT_OK
        assert json.loads(Path(f"{prefix}.records.json").read_text())["graph_threads"] == expected


@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda", "sa-sda", "sr-sda"])
def test_train_on_scattered_labels_matches_solve(dataset, tmp_path, algorithm):
    """train solves in input order: the ratings it writes for a label file
    whose labeled rows are not first are those of solve on the problem as
    read."""
    x = sdio.read_sparse(dataset["data"])
    labels = sdio.read_labels(dataset["labels"])
    assert not np.all(labels.labels[: labels.n_labeled] != 0)
    prefix = str(tmp_path / "scattered")
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", algorithm, "--alpha", "0.5",
                "--beta", "1e-3", "--beta", "1.0", "--seed", "4", "--output", prefix])
    assert code == EXIT_OK
    betas, scores = sdio.read_ratings(f"{prefix}.ratings.bin")
    cfg = RunConfig()
    p = SdaProblem(x=x, labels=labels, lap=laplacian(knn_graph(x, 3)), alpha=0.5,
                   betas=(1e-3, 1.0), tol=cfg.tol, max_iter_n=cfg.iters_spectral,
                   max_iter_d=cfg.iters_regression, seed=4)
    rep = solve(p, algorithm)
    np.testing.assert_array_equal(scores, np.vstack([rep.ratings[float(b)].scores for b in betas]))


def test_train_deterministic_rerun(dataset, tmp_path):
    args = ["train", "--data", dataset["data"], "--labels", dataset["labels"],
            "--graph", "knn", "--k", "3", "--algorithm", "csr-sda",
            "--alpha", "0.3", "--beta", "1e-3", "--seed", "7"]
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--output", p1]) == EXIT_OK
    assert run(args + ["--output", p2]) == EXIT_OK
    b1, s1 = sdio.read_ratings(f"{p1}.ratings.bin")
    b2, s2 = sdio.read_ratings(f"{p2}.ratings.bin")
    np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(s1, s2)


def test_train_with_precomputed_graph(dataset, tmp_path):
    graph = tmp_path / "g.graph.txt"
    run(["build-graph", "--data", dataset["data"], "--graph", "knn",
         "--k", "3", "--graph-file", str(graph)])
    prefix = str(tmp_path / "pre")
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "precomputed", "--graph-file", str(graph),
                "--algorithm", "fsda", "--beta", "1e-2", "--seed", "1",
                "--output", prefix])
    assert code == EXIT_OK


def test_stale_graph_checksum_rejected(dataset, tmp_path, capsys):
    graph = tmp_path / "stale.graph.txt"
    run(["build-graph", "--data", dataset["data"], "--graph", "knn",
         "--k", "3", "--graph-file", str(graph)])
    other, _ = clustered_binary(60, 16, seed=99)
    other_path = tmp_path / "other.smx"
    sdio.write_sparse_text(other_path, other)
    code = run(["train", "--data", str(other_path), "--labels", dataset["labels"],
                "--graph", "precomputed", "--graph-file", str(graph),
                "--algorithm", "fsda", "--beta", "1e-2",
                "--output", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "rebuild with build-graph" in capsys.readouterr().err


def test_missing_data_file_is_io_error(tmp_path, capsys):
    code = run(["info", "--data", str(tmp_path / "absent.smx")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_malformed_data_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.smx"
    bad.write_text("this is not a matrix\n")
    code = run(["info", "--data", str(bad)])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_sa_sda_alpha_zero_is_config_error(dataset, capsys):
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--algorithm", "sa-sda", "--alpha", "0", "--beta", "1e-2",
                "--output", "unused"])
    assert code == EXIT_CONFIG
    assert "sa-sda requires alpha != 0" in capsys.readouterr().err


def test_starved_solver_reports_non_convergence(dataset, tmp_path, capsys):
    prefix = str(tmp_path / "starved")
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "csr-sda",
                "--alpha", "0.5", "--beta", "1e-3", "--tol", "1e-14",
                "--iters-spectral", "1", "--iters-regression", "1",
                "--seed", "1", "--output", prefix])
    assert code == EXIT_SOLVER
    assert "did not reach tolerance" in capsys.readouterr().err
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert report["converged"] is False


def test_sr_block_breakdown_exits_solver(dataset, tmp_path, capsys, monkeypatch):
    def broken(op, rhs, *args, **kwargs):
        raise SolverBreakdownError("block CG broke down")

    monkeypatch.setattr(sda, "block_cg", broken)
    code = run(["train", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "sr-sda",
                "--output", str(tmp_path / "broken")])
    assert code == EXIT_SOLVER
    assert "solver error: block CG broke down" in capsys.readouterr().err


def test_cv_sweep_end_to_end(dataset, tmp_path):
    prefix = str(tmp_path / "cv")
    code = run(["cv", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "fsda",
                "--alpha", "0.3", "--beta", "1e-3", "--beta", "1e-1",
                "--seed", "1", "--iters-sweep", "5", "--iters-sweep", "10",
                "--output", prefix])
    assert code == EXIT_OK
    with open(f"{prefix}.records.csv") as f:
        lines = f.read().splitlines()
    # header + 2 sweep points x 1 seed x 5 outer folds
    assert len(lines) == 1 + 2 * 5
    assert lines[0].startswith("algorithm,")
    payload = json.loads(Path(f"{prefix}.records.json").read_text())
    assert [row["iterations"] for row in payload["sweep"]] == [5, 10]
    for row in payload["sweep"]:
        matching = [r["auc"] for r in payload["records"]
                    if r["iterations"] == row["iterations"]]
        assert row["mean_auc"] == pytest.approx(np.mean(matching), abs=1e-15)


def test_bench_end_to_end(dataset, tmp_path):
    prefix = str(tmp_path / "bench")
    code = run(["bench", "--data", dataset["data"], "--labels", dataset["labels"],
                "--algorithm", "csr-sda", "--alpha", "0.5", "--tol", "1e-3",
                "--seed", "1", "--output", prefix])
    assert code == EXIT_OK
    payload = json.loads(Path(f"{prefix}.bench.json").read_text())
    assert len(payload["betas"]) == 13  # default grid
    assert payload["speedup"] > 0
    assert payload["all_converged"] is True


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
