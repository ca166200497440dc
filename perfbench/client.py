"""The measured client: one closed-loop process issuing one command at a time.

`run.py` starts this script after it has written the inputs, so the
process's peak RSS belongs to the program and not to input generation.
It imports sdakit from the checkout's `src`, runs the workload's setup
several times and its operation in a loop for the given seconds, checks
every output outside the timed regions, and writes `result.json` into
the work directory.

With --trace 1 it instead runs the operation untraced for half the
seconds, then installs the tracer and runs one setup and the operation
for the other half, and reports per-layer metrics and tracing overhead.

Usage: python3 perfbench/client.py --workload W --seed N --seconds S
       --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Entry points are called through their modules so the tracer sees them.
import sdakit  # noqa: E402
from sdakit import cli, graph as sdgraph, io as sdio, sda  # noqa: E402
from sdakit.config import RunConfig  # noqa: E402
from sdakit.evaluation import DEFAULT_BETA_GRID  # noqa: E402
from sdakit.sparse import LabelVector  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

# Setup runs at least SETUP_MIN_REPS times, then more while its total
# stays under a quarter of --seconds, up to SETUP_MAX_REPS.
SETUP_MIN_REPS, SETUP_MAX_REPS = 3, 11
BETAS = np.sort(DEFAULT_BETA_GRID)
CV_RECORDS = 10          # 2 sweep values x 1 seed x 5 outer folds
CV_MIN_MEAN_AUC = 0.8


class CheckFailed(Exception):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _graph_keys(path) -> np.ndarray:
    """Adjacency of a text graph file as sorted row * n + col keys."""
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    n = int(lines[0].split()[0])
    trip = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2)
    return np.sort(trip[:, 0] * n + trip[:, 1]) if trip.size else np.zeros(0, np.int64)


class Step:
    """One command of the workload; `check` inspects its output."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class CliWorkload:
    """fp-knn and chains-cv: `sdakit` commands through `cli.main`."""

    def __init__(self, name, work: Path, files: dict):
        self.work, self.log = work, open(work / "program.log", "w")
        data, graph = files["data"], str(work / "graph.txt")
        self.graph = graph
        self.expected = np.load(work / "expected.npz")["adjacency"]
        self.n = int(np.load(files["arrays"])["shape"][0])
        base = ["--data", data, "--labels", files["labels"], "--graph", "precomputed",
                "--graph-file", graph]
        if name == "fp-knn":
            self.setup_argv = ["build-graph", "--data", data, "--graph", "knn", "--k", "5",
                               "--graph-file", graph]
            self.steps = [self._train(base, alg) for alg in ("fsda", "sr-sda")]
        else:
            self.setup_argv = ["build-graph", "--data", data, "--graph", "threshold",
                               "--theta", "0.5", "--graph-file", graph]
            self.steps = [self._cv(base, alg) for alg in ("fsda", "csr-sda")]

    def close(self):
        self.log.close()

    def _main(self, argv):
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            code = cli.main(argv)
        _require(code == 0, f"sdakit {argv[0]} exited with code {code}")

    def setup_step(self) -> Step:
        def check(_):
            _require(np.array_equal(_graph_keys(self.graph), self.expected),
                     "graph adjacency differs from the exact oracle")
        return Step("build-graph", lambda: self._main(self.setup_argv), check)

    def _train(self, base, alg) -> Step:
        prefix = str(self.work / f"train-{alg}")
        argv = ["train", *base, "--algorithm", alg, "--tol", "1e-6", "--output", prefix]

        def check(_):
            with open(f"{prefix}.report.json") as f:
                _require(json.load(f)["converged"], f"train {alg}: report not converged")
            betas, scores = read_ratings(f"{prefix}.ratings.bin")
            _require(np.array_equal(betas, BETAS), f"train {alg}: beta grid")
            _require(scores.shape == (BETAS.size, self.n), f"train {alg}: ratings shape")
            _require(np.all(np.isfinite(scores)), f"train {alg}: non-finite ratings")
        return Step(f"train {alg}", lambda: self._main(argv), check)

    def _cv(self, base, alg) -> Step:
        prefix = str(self.work / f"cv-{alg}")
        argv = ["cv", *base, "--algorithm", alg, "--seed", "1", "--iters-sweep", "10",
                "--iters-sweep", "40", "--output", prefix]

        def check(_):
            with open(f"{prefix}.records.json") as f:
                records = json.load(f)["records"]
            _require(len(records) == CV_RECORDS, f"cv {alg}: {len(records)} records")
            aucs = [r["auc"] for r in records]
            _require(np.all(np.isfinite(aucs)), f"cv {alg}: non-finite AUC")
            _require(np.mean(aucs) >= CV_MIN_MEAN_AUC,
                     f"cv {alg}: mean AUC {np.mean(aucs):.3f} below {CV_MIN_MEAN_AUC}")
        return Step(f"cv {alg}", lambda: self._main(argv), check)


def read_ratings(path):
    """RATING01 reader written here, independent of sdakit.io."""
    data = Path(path).read_bytes()
    _require(data[:8] == b"RATING01", f"{path}: bad ratings magic")
    nb, ns = (int(v) for v in np.frombuffer(data, "<i8", 2, 8))
    betas = np.frombuffer(data, "<f8", nb, 24)
    return betas, np.frombuffer(data, "<f8", nb * ns, 24 + 8 * nb).reshape(nb, ns)


class SolveWorkload:
    """big-solve: sdakit.io, sdakit.graph and sdakit.sda.solve called directly."""

    ALGORITHMS = ("fsda", "csr-sda", "sa-sda", "sr-sda")

    def __init__(self, files: dict):
        self.files = files
        self.labels = np.load(files["arrays"])["labels"]
        self.problem = None
        self.steps = [self._solve(alg) for alg in self.ALGORITHMS]

    def close(self):
        pass

    def setup_step(self) -> Step:
        def run():
            x = sdio.read_sparse(self.files["data"])
            g = sdgraph.graph_from_adjacency(sdio.read_sparse(self.files["graph"]))
            self.problem = sda.SdaProblem(x=x, labels=LabelVector(self.labels),
                                          lap=sdgraph.laplacian(g), alpha=0.5,
                                          betas=DEFAULT_BETA_GRID, tol=1e-6)

        def check(_):
            _require(self.problem.n == self.labels.size, "problem size")
        return Step("load", run, check)

    def _solve(self, alg) -> Step:
        def check(report):
            _require(report.converged, f"{alg}: not converged")
            scores = np.vstack([report.ratings[float(b)].scores for b in BETAS])
            _require(scores.shape == (BETAS.size, self.labels.size), f"{alg}: ratings shape")
            _require(np.all(np.isfinite(scores)), f"{alg}: non-finite ratings")
            if report.directions is None:
                return
            a = np.load(self.files["arrays"])
            x = sp.csr_matrix((np.ones(a["cols"].size), a["cols"], a["offsets"]),
                              shape=tuple(a["shape"]))
            for row, beta in zip(scores, BETAS):
                expect = x @ report.directions[float(beta)]
                err = np.max(np.abs(row - expect))
                _require(err <= 1e-12 * max(np.max(np.abs(expect)), 1e-300),
                         f"{alg}: scores != X @ direction at beta={beta:g} (err {err:.3g})")
        return Step(alg, lambda: sda.solve(self.problem, alg), check)


class Runner:
    """Issues steps, times them, runs their checks, counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, steps) -> float:
        """Run steps back to back; returns their summed wall time. Checks
        run after the last step, outside the timed region."""
        outs, elapsed = [], 0.0
        for step in steps:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                outs.append((step, step.run(), None))
            except Exception as e:  # noqa: BLE001 -- a failed command is a data point
                outs.append((step, None, e))
            elapsed += time.perf_counter() - t0
        for step, out, err in outs:
            if err is None:
                try:
                    step.check(out)
                except CheckFailed as e:
                    err = e
            if err is not None:
                self.failures.append(f"{step.name}: {type(err).__name__}: {err}")
        return elapsed

    def loop(self, seconds: float, on_op=None, warmup=False) -> list[float]:
        """Run operations for `seconds`; a warm-up operation (checked, not
        timed) lets allocator pools and caches settle first."""
        if warmup:
            self.run(self.workload.steps)
        samples, start = [], time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            if on_op is not None:
                on_op(len(samples))
            samples.append(self.run(self.workload.steps))
        return samples


def blas_threads() -> dict[str, int | None]:
    """Read-only query of the OpenBLAS libraries bundled with numpy and scipy."""
    out = {}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = glob.glob(os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                                      f"{pkg.__name__}.libs", "*openblas*"))
        value = None
        for lib in libs:
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                value = int(fn())
        out[pkg.__name__] = value
    return out


def cache_bytes() -> dict[str, int | None]:
    libc = ctypes.CDLL(None)
    libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE.
    return {name: (int(v) if (v := libc.sysconf(code)) > 0 else None)
            for name, code in (("l2", 191), ("l3", 194))}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "cli_threads": RunConfig().n_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cache_bytes": cache_bytes(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    work = Path(args.work)
    files = json.loads((work / "manifest.json").read_text())["files"]
    if Path(sdakit.__file__).resolve().parent != ROOT / "src" / "sdakit":
        print(f"sdakit imported from {sdakit.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = SolveWorkload(files) if args.workload == "big-solve" \
        else CliWorkload(args.workload, work, files)
    runner = Runner(wl)
    result = {"environment": environment(args.seed)}
    try:
        if args.trace == 0:
            setup = []
            while len(setup) < SETUP_MIN_REPS or (
                    sum(setup) < args.seconds / 4 and len(setup) < SETUP_MAX_REPS):
                setup.append(runner.run([wl.setup_step()]))
            result["setup_s"] = setup
            result["op_s"] = runner.loop(args.seconds, warmup=True)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            runner.run([wl.setup_step()])
            untraced = runner.loop(args.seconds / 2, warmup=True)
            tracer = Tracer()
            tracer.install()
            try:
                runner.run([wl.setup_step()])
                traced = runner.loop(args.seconds / 2,
                                     on_op=lambda i: setattr(tracer, "cycle", f"op{i}"))
            finally:
                tracer.uninstall()
            tracer.write(work / "spans.jsonl")
            layers = layer_metrics(tracer.spans, len(traced))
            layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
            result.update(op_s=untraced, traced_op_s=traced, layers=layers)
    finally:
        wl.close()
    result.update(attempted=runner.attempted, failures=runner.failures)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
