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
from .config import SETTINGS, ConfigError, RunConfig, build_config
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
    """The --config flag, then one flag per RunConfig field."""
    sub.add_argument("--config", help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        cast, is_list = SETTINGS[f.name]
        flag, help_text = "--" + f.name.replace("_", "-"), f.metadata.get("help")
        if cast is bool:
            sub.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            sub.add_argument(flag, type=cast, action="append" if is_list else "store",
                             choices=f.metadata.get("choices"), help=help_text)


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


def _assemble(cfg: RunConfig, x, labels, lap) -> SdaProblem:
    return SdaProblem(
        x=x, labels=labels, lap=lap, alpha=cfg.alpha, betas=np.asarray(cfg.beta),
        tol=cfg.tol, max_iter_n=cfg.iters_spectral, max_iter_d=cfg.iters_regression,
    )


def _write_json(path, cfg: RunConfig, /, **fields) -> None:
    """A JSON report: the run's settings under "config", then fields."""
    with open(path, "w") as f:
        json.dump({"config": dataclasses.asdict(cfg), **fields}, f, indent=2)
        f.write("\n")


def _graph_threads(graph: SimilarityGraph):
    """The pool threads that built the graph; None for a graph read from a file."""
    return None if graph.stats is None else graph.stats.threads


def cmd_build_graph(cfg: RunConfig) -> int:
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


def cmd_train(cfg: RunConfig) -> int:
    x, labels = _load_problem_inputs(cfg)
    graph = _obtain_graph(cfg, x)
    report = solve(_assemble(cfg, x, labels, laplacian(graph)), cfg.algorithm)

    betas = np.asarray(cfg.beta)
    scores = np.vstack([report.ratings[float(b)].scores for b in betas])
    prefix = cfg.output
    sdio.write_ratings(f"{prefix}.ratings.bin", betas, scores)
    if cfg.text_ratings:
        sdio.write_ratings_text(f"{prefix}.ratings.txt", betas, scores)
    _write_json(f"{prefix}.report.json", cfg, graph_threads=_graph_threads(graph),
                **report.to_dict())
    print(f"train: {cfg.algorithm} alpha={cfg.alpha} betas={len(betas)} "
          f"converged={report.converged} wall={report.wall_time_s:.3f}s -> {prefix}.ratings.bin")
    if not report.converged:
        print("train: solver did not reach tolerance within the iteration budget",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    x, labels = _load_problem_inputs(cfg)
    graph = _obtain_graph(cfg, x)
    # One run rates the whole sweep; each budget sets both k1 and k2.
    result = nested_cv(_assemble(cfg, x, labels, laplacian(graph)), cfg.algorithm,
                       CvPlan(seeds=tuple(cfg.seed)), sweep=cfg.iters_sweep)
    all_records = []
    summary = []
    for k in cfg.iters_sweep:
        part = result.at(k)
        all_records.extend(part.records)
        summary.append({
            "iterations": k,
            "mean_auc": part.mean_auc,
            "std_auc": part.std_auc,
            "mean_wall_ms": part.mean_wall_ms,
        })
        print(f"cv: iters={k:4d} auc={part.mean_auc:.4f} +- {part.std_auc:.4f} "
              f"wall={part.mean_wall_ms:.1f}ms")
    prefix = cfg.output
    write_records_csv(f"{prefix}.records.csv", all_records)
    _write_json(f"{prefix}.records.json", cfg, graph_threads=_graph_threads(graph),
                sweep=summary, records=[r.__dict__ for r in all_records])
    print(f"cv: {len(all_records)} records -> {prefix}.records.csv")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    x, labels = _load_problem_inputs(cfg)
    # The benchmark exercises the regression-phase system, which never
    # touches the graph; an empty graph keeps setup costs out of the way.
    n = x.n_rows
    empty = build_sparse(n, n, [], [], [])
    lap = Laplacian(matrix=empty, degrees=np.zeros(n, dtype=np.int64))
    report = bench_shifted(_assemble(cfg, x, labels, lap), tol=cfg.tol)
    print(f"bench: {report.betas.size} shifts, shifted {report.t_shifted_s:.3f}s "
          f"({report.shifted_ops} ops) vs sequential {report.t_sequential_s:.3f}s "
          f"({report.sequential_ops} ops): speedup {report.speedup:.2f}x")
    _write_json(f"{cfg.output}.bench.json", cfg, **report.to_dict())
    return EXIT_OK


def cmd_info(cfg: RunConfig) -> int:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdakit",
        description="Sparse semi-supervised discriminant analysis toolkit",
    )
    # Each command with whether it needs a label file.
    commands = {
        "build-graph": (cmd_build_graph, False),
        "train": (cmd_train, True),
        "cv": (cmd_cv, True),
        "bench": (cmd_bench, True),
        "info": (cmd_info, False),
    }
    subs = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)
    fn, need_labels = commands[args.command]
    try:
        cfg = build_config(args.config, {key: getattr(args, key) for key in SETTINGS})
        cfg.validate(need_data=True, need_labels=need_labels)
        return fn(cfg)
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
