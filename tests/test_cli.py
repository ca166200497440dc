"""Config parsing and the command-line front end, run in-process.

Covers the file format and precedence rules of the flat config, every
documented exit code (0 success, 2 input/config error, 3 solver
non-convergence, 4 I/O error), and each subcommand end to end on a small
synthetic dataset.
"""

import dataclasses
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sdakit import cli, io as sdio, sda
from sdakit.blas import available_cpus
from sdakit.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from sdakit.config import (
    SETTINGS,
    ConfigError,
    RunConfig,
    build_config,
    parse_config_file,
)
from sdakit.evaluation import CvPlan, nested_cv
from sdakit.graph import knn_graph, laplacian
from sdakit.krylov import SolverBreakdownError
from sdakit.sda import SdaProblem, solve
from sdakit.sparse import SparseMatrix
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
    assert cfg.beta == (1e-4, 1e-2, 1.0)


def test_iteration_sweep_is_sorted():
    assert RunConfig(iters_sweep=(40, 2, 10)).iters_sweep == (2, 10, 40)


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
        (dict(algorithm="lda"), "field 'algorithm'"),
        (dict(beta=()), "field 'beta'"),
        (dict(beta=(-1e-3,)), "non-negative"),
        (dict(beta=(1e-3, 1e-3)), "distinct"),
        (dict(tol=0.0), "field 'tol'"),
        (dict(iters_spectral=0), "iters_spectral"),
        (dict(seed=()), "field 'seed'"),
        (dict(threads=-1), "field 'threads'"),
        (dict(iters_sweep=(0,)), "iters_sweep"),
        (dict(algorithm="sr-sda", alpha=1.0), "sr-sda requires alpha < 1"),
        (dict(tol=float("inf")), "field 'tol'"),
        (dict(tol=float("nan")), "field 'tol'"),
        (dict(tol=-1.0), "field 'tol'"),
        (dict(iters_sweep=()), "iters_sweep"),
        (dict(beta=(1e-3, float("inf"))), "field 'beta': shifts must be finite"),
        (dict(beta=(float("nan"),)), "field 'beta': shifts must be finite"),
        (dict(iters_sweep=(10, 40, 10)), "field 'iters_sweep' must not repeat"),
        (dict(seed=(1, 2, 1)), "field 'seed' must not repeat"),
    ],
)
def test_validate_names_the_offending_field(kw, message):
    base = dict(data="x.smx", labels="y.labels")
    base.update(kw)
    with pytest.raises(ConfigError, match=message):
        RunConfig(**base).validate(need_data=True, need_labels=True)


# ------------------------------------------------- one declaration of settings

COMMANDS = ("build-graph", "train", "cv", "bench", "info")


def _sample_value(f: dataclasses.Field):
    """A valid value of setting f that differs from its default."""
    cast, is_list = SETTINGS[f.name]
    if is_list:
        return (1e-3, 1e-1) if cast is float else (3, 4)
    if f.metadata.get("choices"):
        return f.metadata["choices"][1]
    return {str: "other.path", int: 3, float: 0.25, bool: True}[cast]


def _flags(name, value) -> list[str]:
    flag = "--" + name.replace("_", "-")
    if value is True:
        return [flag]
    return [a for v in (value if isinstance(value, tuple) else (value,)) for a in (flag, str(v))]


def _captured_config(monkeypatch, argv) -> RunConfig:
    """The validated RunConfig that main hands to the command in argv."""
    seen = []
    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg) or EXIT_OK)
    assert main(argv) == EXIT_OK
    return seen[0]


@pytest.mark.parametrize("f", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_each_setting_reads_alike_from_flag_and_file(f, tmp_path, monkeypatch):
    values = {"data": "x.smx", f.name: _sample_value(f)}
    assert values[f.name] != f.default
    path = tmp_path / "run.cfg"
    path.write_text("".join(
        f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in values.items()))
    from_flags = _captured_config(
        monkeypatch, ["info", *(a for k, v in values.items() for a in _flags(k, v))])
    from_file = _captured_config(monkeypatch, ["info", "--config", str(path)])
    assert from_flags == from_file == RunConfig(**values)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_setting(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for f in dataclasses.fields(RunConfig):
        assert "--" + f.name.replace("_", "-") in out


def test_unknown_flag_or_config_key_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.smx", "--bogus", "1"])
    assert exc.value.code == 2
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_readme_config_block_matches_its_step_3_flags(tmp_path, monkeypatch):
    """The README's config file and its step-3 command describe one run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    step3 = re.search(r"^(sdakit train (?:.*\\\n)*.*)$", readme, re.M).group(1)
    argv = shlex.split(step3.replace("\\\n", " "))[1:]
    path = tmp_path / "run.cfg"
    path.write_text(ini)
    from_file = build_config(path)
    assert from_file == _captured_config(monkeypatch, argv)
    assert from_file == _captured_config(monkeypatch, ["train", "--config", str(path)])


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
                   max_iter_d=cfg.iters_regression)
    rep = solve(p, algorithm)
    np.testing.assert_array_equal(scores, np.vstack([rep.ratings[float(b)].scores for b in betas]))


def test_train_ratings_do_not_depend_on_the_seed(dataset, tmp_path):
    """seed drives only cv's fold assignment: train with --seed 1 and with
    --seed 7 writes byte-identical ratings files."""
    base = ["train", "--data", dataset["data"], "--labels", dataset["labels"],
            "--graph", "knn", "--k", "3", "--alpha", "0.3", "--beta", "1e-3", "--beta", "1.0"]
    for algorithm in ("fsda", "csr-sda", "sa-sda", "sr-sda"):
        files = []
        for seed in ("1", "7"):
            prefix = str(tmp_path / f"{algorithm}-{seed}")
            assert run([*base, "--algorithm", algorithm, "--seed", seed,
                        "--output", prefix]) == EXIT_OK
            files.append(Path(f"{prefix}.ratings.bin").read_bytes())
        assert files[0] == files[1]


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


@pytest.mark.parametrize("data, labels, where", [
    ("2 3 1\n99999999999999999999 0 1\n", "1\n-1\n", "x.smx:2"),
    ("99999999999999999999 3 1\n0 1 1\n", "1\n-1\n", "x.smx:1"),
    ("2 3 1\n0 1 1\n", "1\n99999999999999999999\n", "l.txt:2"),
], ids=["entry", "header", "label"])
def test_integer_beyond_int64_is_input_error(tmp_path, capsys, data, labels, where):
    (tmp_path / "x.smx").write_text(data)
    (tmp_path / "l.txt").write_text(labels)
    code = run(["info", "--data", str(tmp_path / "x.smx"), "--labels", str(tmp_path / "l.txt")])
    assert code == EXIT_CONFIG
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, config, message", [
    pytest.param("train", ["--algorithm", "sr-sda", "--alpha", "1"], "",
                 "field 'alpha': sr-sda requires alpha < 1", id="sr-sda-at-alpha-1"),
    pytest.param("train", ["--tol", "inf"], "", "field 'tol'", id="tol-inf"),
    pytest.param("train", ["--tol", "nan"], "", "field 'tol'", id="tol-nan"),
    pytest.param("train", ["--beta", "inf"], "", "field 'beta'", id="beta-inf"),
    pytest.param("train", ["--beta", "nan"], "", "field 'beta'", id="beta-nan"),
    pytest.param("cv", [], "iters_sweep =\n", "field 'iters_sweep'", id="empty-iters-sweep"),
    pytest.param("cv", ["--iters-sweep", "10", "--iters-sweep", "10"], "",
                 "field 'iters_sweep' must not repeat", id="repeated-iters-sweep"),
    pytest.param("cv", ["--seed", "1", "--seed", "1"], "", "field 'seed' must not repeat",
                 id="repeated-seed"),
    pytest.param("cv", [], "seed = 2, 2\n", "field 'seed' must not repeat",
                 id="repeated-seed-in-config"),
    pytest.param("train", [], "algorithm = lda\n", "field 'algorithm'", id="lda-in-config"),
])
def test_refused_before_any_file_is_read(tmp_path, capsys, command, flags, config, message):
    """These settings are refused before any work starts: the data and
    label files do not exist, yet the run exits 2, not 4."""
    path = tmp_path / "run.cfg"
    path.write_text(config)
    code = run([command, "--config", str(path), "--data", str(tmp_path / "absent.smx"),
                "--labels", str(tmp_path / "absent.labels"), *flags])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_lda_is_not_an_algorithm_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.smx", "--labels", "y.labels", "--algorithm", "lda"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'lda'" in capsys.readouterr().err


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


def test_cv_sweep_end_to_end(dataset, tmp_path, monkeypatch):
    """Two budgets of fsda's nested CV: the records and the sweep summary,
    and one X^T L X built for the whole sweep."""
    assert dataset["x"].gram_fits
    builds = []
    gram_through = SparseMatrix.gram_through
    monkeypatch.setattr(SparseMatrix, "gram_through",
                        lambda self, a: builds.append(a) or gram_through(self, a))
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
    assert len(builds) == 1
    for row in payload["sweep"]:
        matching = [r["auc"] for r in payload["records"]
                    if r["iterations"] == row["iterations"]]
        assert row["mean_auc"] == pytest.approx(np.mean(matching), abs=1e-15)


def test_cv_sweep_writes_budgets_ascending(dataset, tmp_path):
    """A sweep given as 40, 10 writes its records and its summary at 10,
    then at 40, each budget's records equal to a nested CV run at that
    budget alone in every field but wall_ms, which is the one a cv run per
    budget wrote."""
    prefix = str(tmp_path / "cv")
    code = run(["cv", "--data", dataset["data"], "--labels", dataset["labels"],
                "--graph", "knn", "--k", "3", "--algorithm", "csr-sda",
                "--alpha", "0.3", "--beta", "1e-3", "--beta", "1e-1", "--seed", "1",
                "--seed", "2", "--iters-sweep", "40", "--iters-sweep", "10",
                "--output", prefix])
    assert code == EXIT_OK
    x = sdio.read_sparse(dataset["data"])
    p = SdaProblem(x=x, labels=sdio.read_labels(dataset["labels"]),
                   lap=laplacian(knn_graph(x, 3)), alpha=0.3, betas=(1e-3, 1e-1))
    want_records, want_sweep = [], []
    for k in (10, 40):
        res = nested_cv(dataclasses.replace(p, max_iter_n=k, max_iter_d=k), "csr-sda",
                        CvPlan(seeds=(1, 2)))
        want_records += [dict(r.__dict__, wall_ms=None) for r in res.records]
        want_sweep.append({"iterations": k, "mean_auc": res.mean_auc, "std_auc": res.std_auc})
    payload = json.loads(Path(f"{prefix}.records.json").read_text())
    records = payload["records"]
    assert [dict(r, wall_ms=None) for r in records] == json.loads(json.dumps(want_records))
    assert [{k: row[k] for k in ("iterations", "mean_auc", "std_auc")}
            for row in payload["sweep"]] == want_sweep
    per_entry = len(records) // 2
    for i, row in enumerate(payload["sweep"]):
        walls = [r["wall_ms"] for r in records[i * per_entry:(i + 1) * per_entry]]
        assert row["mean_wall_ms"] == pytest.approx(np.mean(walls), rel=1e-12)
    with open(f"{prefix}.records.csv") as f:
        rows = [line.split(",") for line in f.read().splitlines()]
    wall = rows[0].index("wall_ms")
    assert [row[:wall] + row[wall + 1:] for row in rows[1:]] == [
        [str(r[c]) if c != "beta_grid" else ";".join(map(str, r[c])) for c in rows[0]
         if c != "wall_ms"] for r in want_records]


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
