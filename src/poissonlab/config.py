"""Strict JSON experiment configs, declared once in `SECTIONS`.

`SECTIONS` maps each top-level key to the `ExperimentConfig` attribute
it fills and the reader of its value. A `_Section` reads an object into
a domain object (such as `TrainConfig`) or a small frozen spec, with one
reader per key named after that object's field. A key is optional only
when the object has a default for it. Seed keys are read by `_seed` and
always required, so every seed a run consumes is spelled out;
`override_seeds` and `ExperimentConfig.require` read the same table.

Readers check a value's kind before using it. Numbers must be finite:
`json.loads` accepts `NaN` and `Infinity` and reads `1e309` as inf.
Unknown keys and every other rejection raise `ConfigError` with the
key's path, such as `ledger.t_dg`; a domain object's `ParameterError`
is re-raised as one with its section's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .ann import TRANSFERS, TrainConfig
from .costs import CostLedger, check_n_predictions
from .errors import ConfigError, ParameterError
from .pde import DEFAULT_N_NODES, PARAMETERS, PoissonProblem
from .surrogate import SAMPLINGS, SPLIT_TAGS, ParameterSpace, check_split_ratios


def _check_keys(obj, path: str, known, required) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {obj!r}")
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return number


def _at_least(minimum: float, maximum: float = math.inf):
    def read(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
        return value

    return read


_width = _at_least(1)
# `override_seeds` replaces the value of every key read by `_seed`.
_seed = _at_least(0)


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _one_of(*choices: str):
    def read(value, path: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
        return value

    return read


def _list_of(item, min_len: int = 0, max_len: float = math.inf):
    def read(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if not min_len <= len(value) <= max_len:
            raise ConfigError(f"{path}: expected {min_len}..{max_len} entries, got {len(value)}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


_interval = _list_of(_number, 2, 2)


class _Section:
    """Reads a JSON object into `build(**fields)`, one reader per key."""

    def __init__(self, build, **readers):
        self.build = build
        self.readers = readers
        defaults = {f.name for f in fields(build) if f.default is not MISSING}
        self.seed_keys = tuple(key for key, reader in readers.items() if reader is _seed)
        self.required = (set(readers) - defaults) | set(self.seed_keys)

    def __call__(self, value, path: str):
        _check_keys(value, path, self.readers, self.required)
        kwargs = {k: read(value[k], f"{path}.{k}") for k, read in self.readers.items() if k in value}
        try:
            return self.build(**kwargs)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RegressionSpec:
    n: int
    true_w: float
    true_b: float
    x_range: tuple
    noise_amplitude: float
    seed: int


@dataclass(frozen=True)
class AnnSpec:
    layer_sizes: tuple
    transfers: tuple | None = None
    init_weights: tuple | None = None
    init_biases: tuple | None = None

    def __post_init__(self):
        if self.transfers is not None and len(self.transfers) != len(self.layer_sizes) - 1:
            raise ParameterError("transfers: need one tag per layer")
        if (self.init_weights is None) != (self.init_biases is None):
            raise ParameterError("init_weights and init_biases must be given together")


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple
    seed: int

    def __post_init__(self):
        check_split_ratios(self.ratios)


@dataclass(frozen=True)
class ArchSpec:
    hidden: tuple
    hidden_transfer: str = "tanh"
    output_transfer: str = "purelin"

    def layer_sizes(self, n_out: int) -> tuple:
        return (len(PARAMETERS), *self.hidden, n_out)

    def transfer_tags(self) -> tuple:
        return (*([self.hidden_transfer] * len(self.hidden)), self.output_transfer)


@dataclass(frozen=True)
class DataCurveSpec:
    sizes: tuple
    seeds: tuple


@dataclass(frozen=True)
class EvalSpec:
    multipliers: tuple
    perturbations: tuple
    seed: int
    n_fresh: int = 32


@dataclass(frozen=True)
class CostSpec:
    repetitions: int
    n_predictions: int

    def __post_init__(self):
        check_n_predictions(self.n_predictions)


@dataclass(frozen=True)
class OutputSpec:
    directory: str


_transfer = _one_of(*TRANSFERS)
_problem = _Section(PoissonProblem, g=_number, x0=_number, x1=_number, y0=_number, y1=_number)

# A policy bound on memory, as costs.repetitions' is on time: an array that
# config counts size (one row of n_nodes floats, or count such rows) holds at
# most 2**28 float64 values (2 GiB), so a larger count exits 2 when parsed.
_FLOAT_BUDGET = 2**28

# Top-level key -> (ExperimentConfig attribute, reader).
SECTIONS = {
    "problems": ("problems", _list_of(_problem, min_len=1)),
    "n_nodes": ("n_nodes", _at_least(3, _FLOAT_BUDGET)),
    "regression": ("regression", _Section(
        RegressionSpec, n=_at_least(2), true_w=_number, true_b=_number, x_range=_interval,
        noise_amplitude=_number, seed=_seed)),
    "ann": ("ann_spec", _Section(
        AnnSpec, layer_sizes=_list_of(_width, min_len=2), transfers=_list_of(_transfer),
        init_weights=_list_of(_list_of(_list_of(_number))), init_biases=_list_of(_list_of(_number)))),
    "train": ("train", _Section(
        TrainConfig, learning_rate=_number, stop_tolerance=_number, max_epochs=_width,
        init_seed=_seed)),
    "space": ("space", _Section(
        ParameterSpace, **{f"{p}_range": _interval for p in PARAMETERS}, x0=_number,
        x1=_number, sampling=_one_of(*SAMPLINGS), n_samples=_width, master_seed=_seed)),
    "split": ("split", _Section(
        SplitSpec, ratios=_list_of(_number, len(SPLIT_TAGS), len(SPLIT_TAGS)), seed=_seed)),
    "arch": ("arch", _Section(
        ArchSpec, hidden=_list_of(_width), hidden_transfer=_transfer, output_transfer=_transfer)),
    "arch_sweep": ("arch_sweep", _list_of(_list_of(_width), min_len=1)),
    # data_curve.seeds are the master seeds of the curve's runs, not replaced by --seed.
    "data_curve": ("data_curve", _Section(
        DataCurveSpec, sizes=_list_of(_width, min_len=1), seeds=_list_of(_at_least(0), min_len=1))),
    "eval": ("eval_spec", _Section(
        EvalSpec, multipliers=_list_of(_positive, min_len=1),
        perturbations=_list_of(_number, min_len=1), seed=_seed, n_fresh=_width)),
    # A policy bound, not a numpy limit: costs.measure makes one timed call of
    # each method per repetition, and 10,000 take under a second on configs/.
    "costs": ("cost_spec", _Section(CostSpec, repetitions=_at_least(1, 10_000), n_predictions=_at_least(0))),
    "ledger": ("ledger", _Section(
        CostLedger, t_dg=_number, t_nt=_number, t_pr=_number, t_solve=_number,
        n_predictions=_at_least(0))),
    "output": ("output", _Section(OutputSpec, directory=_text)),
}


@dataclass
class ExperimentConfig:
    """Parsed config plus the raw document for manifests and round-trips."""

    raw: dict
    problems: tuple | None = None
    n_nodes: int = DEFAULT_N_NODES
    regression: RegressionSpec | None = None
    ann_spec: AnnSpec | None = None
    train: TrainConfig | None = None
    space: ParameterSpace | None = None
    split: SplitSpec | None = None
    arch: ArchSpec | None = None
    arch_sweep: tuple | None = None
    data_curve: DataCurveSpec | None = None
    eval_spec: EvalSpec | None = None
    cost_spec: CostSpec | None = None
    ledger: CostLedger | None = None
    output: OutputSpec | None = None

    @property
    def split_ratios(self) -> tuple | None:
        return None if self.split is None else self.split.ratios

    @property
    def split_seed(self) -> int | None:
        return None if self.split is None else self.split.seed

    def require(self, *keys: str) -> None:
        """Raise ConfigError unless every named top-level section was given."""
        for key in keys:
            if getattr(self, SECTIONS[key][0]) is None:
                raise ConfigError(f"config is missing the required `{key}` section")


# The count in each section that sizes a (count, n_nodes) float64 array;
# `SECTIONS` puts n_nodes before these sections.
_ROW_COUNTS = {"space": "n_samples", "data_curve": "sizes", "eval": "n_fresh"}


def _check_row_counts(section, key: str, n_nodes: int) -> None:
    """Reject a count whose array would hold more than _FLOAT_BUDGET floats before the section
    is built, as `ParameterSpace` takes its cube root; other kinds are left to the reader."""
    name = _ROW_COUNTS.get(key)
    value = section.get(name) if isinstance(section, dict) else None
    limit = _FLOAT_BUDGET // n_nodes
    for i, count in enumerate(value if isinstance(value, list) else [value]):
        if isinstance(count, int) and count > limit:
            path = f"{key}.{name}" + (f"[{i}]" if isinstance(value, list) else "")
            raise ConfigError(f"{path}: must be <= {limit}, the most rows of {n_nodes} floats in one array")


def parse_config(doc: dict) -> ExperimentConfig:
    _check_keys(doc, "config", SECTIONS, ())
    cfg = ExperimentConfig(raw=doc)
    for key, (attr, reader) in SECTIONS.items():
        if key in doc:
            _check_row_counts(doc[key], key, cfg.n_nodes)
            setattr(cfg, attr, reader(doc[key], key))
    # Each data-curve point samples the space at its own size.
    if cfg.data_curve is not None and cfg.space is not None:
        for i, size in enumerate(cfg.data_curve.sizes):
            try:
                replace(cfg.space, n_samples=size)
            except ParameterError as exc:
                raise ConfigError(f"data_curve.sizes[{i}]: {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise ConfigError(f"{path}: cannot read as UTF-8 text: {exc}") from exc
    except ValueError as exc:  # such as an integer literal past Python's 4,300-digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)


def override_seeds(doc: dict, seed: int) -> dict:
    """Replace every seed field in a raw config document with `seed`."""
    out = json.loads(json.dumps(doc))
    for key, (_, reader) in SECTIONS.items():
        section = out.get(key)
        if isinstance(reader, _Section) and isinstance(section, dict):
            for name in reader.seed_keys:
                if name in section:
                    section[name] = seed
    return out
