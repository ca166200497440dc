"""Command-line front end.

Commands:
  build-graph  build a Tanimoto similarity graph and persist it with a
               provenance header (metric, k or theta, data checksum)
  train        solve one problem, write per-beta ratings and a JSON report
  cv           nested cross-validation over an iteration sweep, write CSV
               and JSON records
  bench        shifted-vs-sequential solver benchmark, write a JSON report
  info         describe data, labels, and graph files

Exit codes: 0 success, 2 input or configuration error, 3 solver
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import io as sdio
from .config import ConfigError, RunConfig, build_config
from .evaluation import CvPlan, bench_shifted, nested_cv, write_records_csv
from .graph import knn_graph, laplacian, load_graph, save_graph, threshold_graph, Laplacian, SimilarityGraph
from .krylov import KrylovError
from .sda import SdaProblem, solve
from .sparse import SparseFormatError, SparseMatrix, build_sparse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--data", help="sparse data matrix (text or binary)")
    sub.add_argument("--labels", help="label file, one of +1/-1/0 per line")
    sub.add_argument("--graph", choices=("knn", "threshold", "precomputed"))
    sub.add_argument("--k", type=int, help="neighbors for the k-NN graph")
    sub.add_argument("--theta", type=float, help="similarity threshold for the threshold graph")
    sub.add_argument("--graph-file", help="precomputed graph path (input) or build-graph output")
    sub.add_argument("--algorithm", choices=("fsda", "csr-sda", "sa-sda", "sr-sda", "lda"))
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float, action="append", help="shift value; repeatable")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--iters-spectral", type=int)
    sub.add_argument("--iters-regression", type=int)
    sub.add_argument("--seed", type=int, action="append", help="seed; repeatable")
    sub.add_argument("--threads", type=int)
    sub.add_argument("--output", help="output path prefix")
    sub.add_argument("--text-ratings", action="store_true", default=None,
                     help="also write a text dump of the ratings")
    sub.add_argument("--iters-sweep", type=int, action="append",
                     help="iteration budget for the cv sweep; repeatable")


def _config_from_args(args) -> RunConfig:
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "func") and v is not None
    }
    return build_config(args.config, overrides)


def _load_problem_inputs(cfg: RunConfig):
    x = sdio.read_sparse(cfg.data)
    labels = sdio.read_labels(cfg.labels)
    if labels.n != x.n_rows:
        raise ConfigError(
            f"field 'labels': {labels.n} labels for {x.n_rows} data rows"
        )
    return x, labels


def _obtain_graph(cfg: RunConfig, x: SparseMatrix) -> SimilarityGraph:
    if cfg.graph == "precomputed":
        graph, prov = load_graph(cfg.graph_file)
        if graph.n != x.n_rows:
            raise ConfigError(
                f"field 'graph_file': graph has {graph.n} nodes, data has {x.n_rows} rows"
            )
        stamp = prov.get("data-sha256")
        if stamp and stamp != sdio.matrix_checksum(x):
            raise ConfigError(
                "field 'graph_file': graph was built from different data "
                "(checksum mismatch); rebuild with build-graph"
            )
        return graph
    if cfg.graph == "knn":
        return knn_graph(x, cfg.k, n_threads=cfg.n_threads)
    return threshold_graph(x, cfg.theta, n_threads=cfg.n_threads)


def _assemble(cfg: RunConfig, x, labels, lap, *, seed, k1=None, k2=None) -> SdaProblem:
    return SdaProblem(
        x=x, labels=labels, lap=lap, alpha=cfg.alpha, betas=np.asarray(cfg.beta_grid),
        tol=cfg.tol, max_iter_n=k1 or cfg.iters_spectral, max_iter_d=k2 or cfg.iters_regression,
        seed=seed,
    )


def _graph_threads(graph: SimilarityGraph):
    """The pool threads that built the graph; None for a graph read from a file."""
    return None if graph.stats is None else graph.stats.threads


def cmd_build_graph(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(need_data=True)
    if cfg.graph == "precomputed":
        raise ConfigError("field 'graph': build-graph needs 'knn' or 'threshold'")
    out = cfg.graph_file or f"{cfg.output}.graph.txt"
    x = sdio.read_sparse(cfg.data)
    t0 = time.perf_counter()
    graph = _obtain_graph(cfg, x)
    elapsed = time.perf_counter() - t0
    detail = {"k": cfg.k} if cfg.graph == "knn" else {"theta": cfg.theta}
    provenance = {"metric": "tanimoto", "method": cfg.graph, **detail,
                  "data-sha256": sdio.matrix_checksum(x)}
    save_graph(out, graph, provenance)
    st, deg = graph.stats, graph.degrees
    print(f"graph: {graph.n} nodes, {graph.n_edges} edges, degree min/mean/max "
          f"{deg.min()}/{deg.mean():.2f}/{deg.max()}, {st.candidate_pairs} candidate pairs, "
          f"built in {elapsed:.2f}s on {st.threads} threads, {st.dense_rows} rows on the "
          f"dense route, block rows {st.block_rows[0]} dense / {st.block_rows[1]} sparse -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(need_data=True, need_labels=True)
    x, labels = _load_problem_inputs(cfg)
    graph = _obtain_graph(cfg, x)
    report = solve(_assemble(cfg, x, labels, laplacian(graph), seed=cfg.seed[0]), cfg.algorithm)

    betas = np.asarray(cfg.beta_grid)
    scores = np.vstack([report.ratings[float(b)].scores for b in betas])
    prefix = cfg.output
    sdio.write_ratings(f"{prefix}.ratings.bin", betas, scores)
    if cfg.text_ratings:
        sdio.write_ratings_text(f"{prefix}.ratings.txt", betas, scores)
    with open(f"{prefix}.report.json", "w") as f:
        json.dump({"config": _public_config(cfg), "graph_threads": _graph_threads(graph),
                   **report.to_dict()}, f, indent=2)
        f.write("\n")
    print(f"train: {cfg.algorithm} alpha={cfg.alpha} betas={len(betas)} "
          f"converged={report.converged} wall={report.wall_time_s:.3f}s -> {prefix}.ratings.bin")
    if not report.converged:
        print("train: solver did not reach tolerance within the iteration budget",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_cv(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(need_data=True, need_labels=True)
    x, labels = _load_problem_inputs(cfg)
    graph = _obtain_graph(cfg, x)
    lap = laplacian(graph)
    all_records = []
    summary = []
    for k in cfg.iters_sweep:
        problem = _assemble(cfg, x, labels, lap, seed=cfg.seed[0], k1=k, k2=k)
        plan = CvPlan(seeds=tuple(cfg.seed), sweep_label=k)
        result = nested_cv(problem, cfg.algorithm, plan)
        all_records.extend(result.records)
        summary.append({
            "iterations": k,
            "mean_auc": result.mean_auc,
            "std_auc": result.std_auc,
            "mean_wall_ms": result.mean_wall_ms,
        })
        print(f"cv: iters={k:4d} auc={result.mean_auc:.4f} +- {result.std_auc:.4f} "
              f"wall={result.mean_wall_ms:.1f}ms")
    prefix = cfg.output
    write_records_csv(f"{prefix}.records.csv", all_records)
    with open(f"{prefix}.records.json", "w") as f:
        json.dump({"config": _public_config(cfg), "graph_threads": _graph_threads(graph),
                   "sweep": summary, "records": [r.__dict__ for r in all_records]}, f, indent=2)
        f.write("\n")
    print(f"cv: {len(all_records)} records -> {prefix}.records.csv")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(need_data=True, need_labels=True)
    x, labels = _load_problem_inputs(cfg)
    # The benchmark exercises the regression-phase system, which never
    # touches the graph; an empty graph keeps setup costs out of the way.
    n = x.n_rows
    empty = build_sparse(n, n, [], [], [])
    lap = Laplacian(matrix=empty, degrees=np.zeros(n, dtype=np.int64))
    report = bench_shifted(_assemble(cfg, x, labels, lap, seed=cfg.seed[0]), tol=cfg.tol)
    print(f"bench: {report.betas.size} shifts, shifted {report.t_shifted_s:.3f}s "
          f"({report.shifted_ops} ops) vs sequential {report.t_sequential_s:.3f}s "
          f"({report.sequential_ops} ops): speedup {report.speedup:.2f}x")
    with open(f"{cfg.output}.bench.json", "w") as f:
        json.dump({"config": _public_config(cfg), **report.to_dict()}, f, indent=2)
        f.write("\n")
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = _config_from_args(args)
    cfg.validate(need_data=True)
    x = sdio.read_sparse(cfg.data)
    density = x.nnz / (x.n_rows * x.n_cols) if x.n_rows and x.n_cols else 0.0
    print(f"data: {x.n_rows} x {x.n_cols}, nnz {x.nnz} (density {density:.2e})")
    print(f"data: sha256 {sdio.matrix_checksum(x)}")
    if cfg.labels:
        labels = sdio.read_labels(cfg.labels)
        print(f"labels: {labels.n} samples, +1: {labels.n_class1}, "
              f"-1: {labels.n_class2}, unlabeled: {labels.n - labels.n_labeled}")
        if labels.n != x.n_rows:
            raise ConfigError(f"field 'labels': {labels.n} labels for {x.n_rows} rows")
    if cfg.graph_file:
        graph, prov = load_graph(cfg.graph_file)
        print(f"graph: {graph.n} nodes, {graph.n_edges} edges, "
              f"degree min/mean/max {graph.degrees.min()}/{graph.degrees.mean():.2f}/{graph.degrees.max()}")
        if prov:
            print("graph: provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
        stamp = prov.get("data-sha256")
        if stamp:
            match = "matches" if stamp == sdio.matrix_checksum(x) else "DOES NOT MATCH"
            print(f"graph: checksum {match} the data file")
    return EXIT_OK


def _public_config(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["beta"] = list(cfg.beta_grid)
    d["seed"] = list(cfg.seed)
    d["iters_sweep"] = list(cfg.iters_sweep)
    return d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdakit",
        description="Sparse semi-supervised discriminant analysis toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("build-graph", cmd_build_graph),
        ("train", cmd_train),
        ("cv", cmd_cv),
        ("bench", cmd_bench),
        ("info", cmd_info),
    ):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SparseFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except KrylovError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
