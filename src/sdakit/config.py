"""Run configuration: flat key-value files plus 1:1 command-line overrides.

`RunConfig` is the one declaration of the run settings. Each field's name,
type and default, with its help text and allowed values in the field
metadata, give the config-file key, its `--flag` on every subcommand and
the entry in every report's `config` block; adding a setting is adding a
field. `SETTINGS` is the schema both parsers cast through.

A config file holds `key = value` lines ('#' starts a comment). Every key
has a same-named CLI flag (dashes and underscores are interchangeable);
flags given on the command line win over the file. List-valued keys (beta,
seed, iters_sweep) take comma or whitespace separated values in the file
and repeatable flags on the command line; none may repeat a value, and
beta and iters_sweep are kept ascending.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from .blas import available_cpus
from .evaluation import DEFAULT_BETA_GRID, DEFAULT_ITERATION_SWEEP, DEFAULT_SEEDS
from .krylov import as_shift_grid
from .sda import ALGORITHMS, check_algorithm

GRAPH_KINDS = ("knn", "threshold", "precomputed")


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


def _setting(default, help_text=None, choices=None):
    """A RunConfig field carrying its flag's help text and allowed values."""
    return field(default=default, metadata={"help": help_text, "choices": choices})


@dataclass
class RunConfig:
    """Everything a run needs; validated before any work starts."""

    data: str | None = _setting(None, "sparse data matrix (text or binary)")
    labels: str | None = _setting(None, "label file, one of +1/-1/0 per line")
    graph: str = _setting("knn", choices=GRAPH_KINDS)
    k: int = _setting(5, "neighbors for the k-NN graph")
    theta: float = _setting(0.4, "similarity threshold for the threshold graph")
    graph_file: str | None = _setting(None, "precomputed graph path (input) or build-graph output")
    algorithm: str = _setting("fsda", choices=ALGORITHMS)
    alpha: float = 0.5
    beta: tuple[float, ...] = _setting(DEFAULT_BETA_GRID, "shift value; repeatable")
    tol: float = 1e-8
    iters_spectral: int = 1000
    iters_regression: int = 1000
    seed: tuple[int, ...] = _setting(DEFAULT_SEEDS, "seed of cv's fold assignment; repeatable")
    threads: int = 0  # 0 means every CPU the process may run on
    output: str = _setting("sdakit-out", "output path prefix")
    text_ratings: bool = _setting(False, "also write a text dump of the ratings")
    iters_sweep: tuple[int, ...] = _setting(
        DEFAULT_ITERATION_SWEEP,
        "iteration budget for the cv sweep, setting both k1 and k2, so iters_spectral "
        "and iters_regression do not apply to cv; repeatable")

    def __post_init__(self):
        self.beta = tuple(sorted(self.beta))
        self.iters_sweep = tuple(sorted(self.iters_sweep))

    def validate(self, *, need_data=True, need_labels=False) -> None:
        if need_data and not self.data:
            raise ConfigError("field 'data' is required (path to the sparse data matrix)")
        if need_labels and not self.labels:
            raise ConfigError("field 'labels' is required (path to the label file)")
        if self.graph not in GRAPH_KINDS:
            raise ConfigError(f"field 'graph' must be one of {GRAPH_KINDS}, got {self.graph!r}")
        if self.graph == "precomputed" and not self.graph_file:
            raise ConfigError("field 'graph_file' is required when graph = precomputed")
        if self.k < 1:
            raise ConfigError(f"field 'k' must be a positive neighbor count, got {self.k}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"field 'theta' must lie in (0, 1], got {self.theta}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"field 'algorithm' must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"field 'alpha' must lie in [0, 1], got {self.alpha}")
        try:
            check_algorithm(self.algorithm, self.alpha)
        except ValueError as e:
            raise ConfigError(f"field 'alpha': {e}") from e
        try:
            as_shift_grid(self.beta)
        except ValueError as e:
            raise ConfigError(f"field 'beta': {e}") from e
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"field 'tol' must be finite and positive, got {self.tol}")
        if self.iters_spectral < 1 or self.iters_regression < 1:
            raise ConfigError("fields 'iters_spectral' and 'iters_regression' must be >= 1")
        if len(self.seed) == 0:
            raise ConfigError("field 'seed' must list at least one seed")
        for name in ("seed", "iters_sweep"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"field {name!r} must not repeat a value, got {values}")
        if self.threads < 0:
            raise ConfigError(f"field 'threads' must be >= 0, got {self.threads}")
        if not self.iters_sweep or min(self.iters_sweep) < 1:
            raise ConfigError("field 'iters_sweep' must list at least one budget, each >= 1")

    @property
    def n_threads(self) -> int:
        return self.threads if self.threads > 0 else available_cpus()


def _element_type(hint) -> tuple[type, bool]:
    """(element type, is-a-list) of a RunConfig annotation: `tuple[T, ...]`
    is a list of T, and `T | None` is a T."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return args[0], True
    return (args[0] if args else hint), False


SETTINGS: dict[str, tuple[type, bool]] = {
    name: _element_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()
}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"field {key!r} expects a boolean, got {raw!r}")


def parse_config_file(path) -> dict:
    """Read `key = value` lines into typed values."""
    out: dict = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, raw = line.partition("=")
            else:
                key, _, raw = line.partition(" ")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            cast, is_list = SETTINGS[key]
            try:
                vals = [_parse_bool(key, tok) if cast is bool else cast(tok)
                        for tok in (raw.replace(",", " ").split() if is_list else [raw])]
            except ConfigError:
                raise
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from e
            out[key] = tuple(vals) if is_list else vals[0]
    return out


def build_config(config_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit CLI overrides."""
    values: dict = {}
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        key = key.replace("-", "_")
        cast, is_list = SETTINGS.get(key, (None, False))
        if is_list:
            val = tuple(cast(v) for v in val)
        values[key] = val
    try:
        return RunConfig(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e
