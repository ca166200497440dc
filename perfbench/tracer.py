"""Per-layer tracing from outside the program.

The tracer replaces public functions of the sdakit modules with thin
wrappers that record one span per call: name, layer, start, end, parent
span and the cycle (setup or operation) it belongs to. Every module
namespace that holds a reference to a wrapped function is patched, so
`from .graph import knn_graph` call sites are seen too. Functions that
no longer exist are skipped, which keeps the tracer working as the
program loses code. Spans stay in memory until `write`.

Layers are the package modules; `config` folds into `cli`. The
Laplacian's matvec is told from the data matrix's by the matrix it is
called on: every `Laplacian` built while tracing registers its matrix.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

IO_READS = ("read_sparse", "read_sparse_text", "read_sparse_binary", "read_labels", "read_ratings")
IO_WRITES = ("write_sparse_text", "write_sparse_binary", "write_labels", "write_ratings",
             "write_ratings_text")
SOLVERS = ("cg", "shifted_cg", "block_cg")
SDA_SOLVES = ("solve", "fsda_solve", "csr_sda_solve", "sa_sda_solve", "sr_sda_solve")

# layer -> (module, public functions); "Class.method" names a method.
TRACED = {
    "io": ("sdakit.io", IO_READS + IO_WRITES + ("matrix_checksum", "parse_provenance")),
    "graph": ("sdakit.graph", ("tanimoto", "knn_graph", "threshold_graph", "laplacian",
                               "graph_from_adjacency", "save_graph", "load_graph")),
    "sparse": ("sdakit.sparse", ("SparseMatrix.matvec", "SparseMatrix.matvec_transpose",
                                 "from_scipy", "build_sparse", "labeled_mean",
                                 "centered_matvec", "centered_matvec_transpose",
                                 "labeled_first_permutation", "permute_rows",
                                 "permute_symmetric")),
    "krylov": ("sdakit.krylov", ("LinearOperator.__call__",) + SOLVERS
               + ("subspace_iteration", "rayleigh_ritz_2x2")),
    "sda": ("sdakit.sda", SDA_SOLVES + ("apply_w", "apply_smoother", "spectral_operator",
                                        "centered_spectral_operator", "fsda_operator",
                                        "regression_operator", "arrange_labeled_first",
                                        "invert_permutation")),
    "evaluation": ("sdakit.evaluation", ("nested_cv", "auc_roc", "subsample_labels",
                                         "stratified_fold_assignment", "bench_shifted",
                                         "write_records_csv", "write_result_json")),
    "cli": ("sdakit.cli", ("main", "cmd_build_graph", "cmd_train", "cmd_cv", "cmd_bench",
                           "cmd_info")),
    "config": ("sdakit.config", ("build_config", "parse_config_file")),
}
LAYERS = ("io", "graph", "sparse", "krylov", "sda", "evaluation", "cli")
_LAYER_OF = {"config": "cli"}

# Span record fields (lists, so the wrapper can fill in the end time).
ID, PARENT, LAYER, NAME, T0, T1, CYCLE, INFO = range(8)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _phase_counts(report) -> dict:
    out = {}
    for phase in ("spectral", "regression"):
        stats = getattr(report, phase, None)
        if stats is not None:
            out[f"applies.{phase}"] = int(stats.operator_applications)
            out[f"iterations.{phase}"] = int(np.max(stats.iterations))
    return out


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.spans: list[list] = []
        self.cycle = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # id -> weak reference of every Laplacian matrix built while tracing
        # (SparseMatrix defines __eq__ without __hash__, so no WeakSet).
        self._laplacians: dict[int, weakref.ref] = {}

    # -- installation -------------------------------------------------
    def install(self) -> None:
        originals = {}
        for group, (mod_name, names) in TRACED.items():
            module = sys.modules[mod_name]
            layer = _LAYER_OF.get(group, group)
            for name in names:
                owner, _, attr = name.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                fn = getattr(target, attr, None) if target is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(layer, name, fn, self._after(name, fn))
                if owner:
                    self._patch(target, attr, fn, wrapper)
                else:
                    originals[id(fn)] = (fn, wrapper)
        # Patch every sdakit namespace and module-level dict holding an original.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sdakit" and not mod_name.startswith("sdakit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(module, attr, value, originals[id(value)][1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._patch(value, key, item, originals[id(item)][1])
        lap_cls = getattr(sys.modules["sdakit.graph"], "Laplacian", None)
        if lap_cls is not None:
            init = lap_cls.__init__
            laps = self._laplacians

            def registering_init(obj, *a, **k):
                init(obj, *a, **k)
                key = id(obj.matrix)
                laps[key] = weakref.ref(obj.matrix, lambda _, key=key: laps.pop(key, None))

            self._patch(lap_cls, "__init__", init, registering_init)

    def _patch(self, owner, attr, old, new) -> None:
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- recording ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn, after):
        spans, ids, tracer = self.spans, self._ids, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = [next(ids), stack[-1][ID] if stack else None, layer, name,
                   time.perf_counter(), 0.0, tracer.cycle, None]
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = time.perf_counter()
                stack.pop()
                spans.append(rec)
            if after is not None:
                rec[INFO] = after(args, kwargs, out)
            return out

        return wrapper

    def _after(self, name, fn):
        """Per-function hook that turns arguments and result into counts."""
        if name in IO_READS + IO_WRITES:
            return lambda a, k, out: {"mb": _file_mb(a[0] if a else k["path"])}
        if name == "SparseMatrix.matvec":
            laps = self._laplacians
            return lambda a, k, out: {"lap": id(a[0]) in laps}
        if name == "SparseMatrix.matvec_transpose":
            # Computed bytes: values, indices and offsets read once, w read,
            # the result written.
            return lambda a, k, out: {"bytes": a[0].nnz * 16 + (a[0].n_rows + 1) * 8
                                      + a[0].n_rows * 8 + a[0].n_cols * 8}
        if name in ("knn_graph", "threshold_graph", "graph_from_adjacency"):
            return lambda a, k, out: {"edges": int(out.n_edges)}
        if name == "cg":
            sig = inspect.signature(fn)

            def cg_info(a, k, out):
                b = sig.bind(*a, **k)
                b.apply_defaults()
                hist = out[1]
                tol = b.arguments["tol"]
                thresh = tol if b.arguments["absolute_tol"] else tol * hist[0]
                return {"iterations": len(hist) - 1,
                        "unconverged": int(hist[0] > 0 and hist[-1] >= thresh)}

            return cg_info
        if name == "shifted_cg":
            return lambda a, k, out: {"iterations": int(np.max(out.iterations)),
                                      "unconverged": int(np.count_nonzero(~out.converged))}
        if name == "block_cg":
            return lambda a, k, out: {"columns": int(out.shape[1])}
        if name in SDA_SOLVES:
            return lambda a, k, out: _phase_counts(out)
        if name == "nested_cv":
            sig = inspect.signature(fn)

            def cv_info(a, k, out):
                b = sig.bind(*a, **k)
                plan = b.arguments.get("plan")
                n_inner = plan.n_inner if plan is not None else 5
                return {"records": len(out.records), "n_inner": n_inner}

            return cv_info
        return None

    # -- output -------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "parent", "layer", "name", "t0", "t1", "cycle", "info")
        with open(path, "w") as f:
            for rec in sorted(self.spans, key=lambda r: r[ID]):
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics for one cycle: the setup spans plus the mean over
    the `n_ops` traced operations."""
    by_id = {r[ID]: r for r in spans}
    child_time = defaultdict(float)
    child_ops = defaultdict(int)
    for r in spans:
        if r[PARENT] is not None:
            child_time[r[PARENT]] += r[T1] - r[T0]
            child_ops[r[PARENT]] += r[NAME] == "LinearOperator.__call__"

    def ancestors(r):
        p = r[PARENT]
        while p is not None:
            r = by_id[p]
            yield r
            p = r[PARENT]

    def outermost(r, names):
        return not any(a[NAME] in names for a in ancestors(r))

    in_setup, in_ops = defaultdict(float), defaultdict(float)

    def add(key, value, r):
        (in_setup if r[CYCLE] == "setup" else in_ops)[key] += value

    edges = {}
    for r in spans:
        layer, name, info = r[LAYER], r[NAME], r[INFO] or {}
        dur = r[T1] - r[T0]
        self_s = dur - child_time[r[ID]]
        add(f"{layer}.calls", 1, r)
        add("trace.spans", 1, r)
        if not (layer == "krylov" and name == "LinearOperator.__call__"):
            add(f"{layer}.self_s", self_s, r)
        if layer == "io":
            kind = ("read" if name in IO_READS else "write" if name in IO_WRITES
                    else "checksum" if name == "matrix_checksum" else None)
            if kind and outermost(r, IO_READS + IO_WRITES + ("matrix_checksum",)):
                add(f"io.{kind}_s", dur, r)
                if kind != "checksum":
                    add(f"io.{kind}_mb", info["mb"], r)
        elif name in ("knn_graph", "threshold_graph"):
            add("graph.build_s", dur, r)
            edges["build"] = info["edges"]
        elif name == "graph_from_adjacency":
            add("graph.validate_s", dur, r)
            edges.setdefault("loaded", info["edges"])
        elif name == "laplacian":
            add("graph.laplacian_s", dur, r)
        elif name == "SparseMatrix.matvec":
            kind = "lz" if info["lap"] else "xv"
            add(f"sparse.{kind}_n", 1, r)
            add(f"sparse.{kind}_s", dur, r)
        elif name == "SparseMatrix.matvec_transpose":
            add("sparse.xtw_n", 1, r)
            add("sparse.xtw_s", dur, r)
            add("sparse.xtw_bytes", info["bytes"], r)
        elif name in ("permute_rows", "permute_symmetric", "labeled_first_permutation"):
            add("sparse.permute_s", dur, r)
        elif name == "LinearOperator.__call__":
            add("krylov.op_n", 1, r)
            add("krylov.op_s", dur, r)
        elif name in SOLVERS:
            add("krylov.solves", 1, r)
            if name == "block_cg":
                # One application per column per iteration (no deflation).
                info = {"iterations": child_ops[r[ID]] / max(info["columns"], 1),
                        "unconverged": 0}
            add("krylov.iterations", info["iterations"], r)
            add("krylov.unconverged", info["unconverged"], r)
        elif name in SDA_SOLVES and outermost(r, SDA_SOLVES):
            add("sda.solve_s", dur, r)
            for key, value in info.items():
                add(f"sda.{key}", value, r)
            if any(a[NAME] == "nested_cv" for a in ancestors(r)):
                add("evaluation.solves", 1, r)
        elif name == "nested_cv":
            add("evaluation.cv_s", dur, r)
            add("evaluation.used_solves", info["records"] * (info["n_inner"] + 1), r)

    # Setup spans count once, operation spans as a mean per operation.
    out = {k: in_setup[k] + in_ops[k] / max(n_ops, 1) for k in {*in_setup, *in_ops}}
    out["graph.edges"] = float(edges.get("build", edges.get("loaded", 0)))
    xtw_bytes, xtw_s = out.pop("sparse.xtw_bytes", 0.0), out.get("sparse.xtw_s", 0.0)
    out["sparse.xtw_gbps"] = xtw_bytes / xtw_s / 1e9 if xtw_s else 0.0
    used = out.pop("evaluation.used_solves", 0.0)
    solves = out.get("evaluation.solves", 0.0)
    out["evaluation.solve_yield"] = used / solves if solves else 0.0
    return out
