"""Experiment configuration: JSON file with a strict, fully-defaulted schema.

Every key is optional; the defaults reproduce the shipped desk-scale
non-i.i.d. profile. Unknown keys and invalid values are rejected with the
offending dotted key named in the error message. Each section's dataclass is
the one place its keys, types, defaults and bounds are declared: a value is
checked against the annotation of its field, and a number against the bound
its field declares with ``_bound`` (each element of a tuple; an unset
Optional passes) by ``check_bounds``, which the library entries that take
these values call too, failing as ``<key> must be >= <low>``, ``> <low>`` or
``finite, got <value>``. ``validate`` keeps the other rules: enumerations,
odd and divisible sizes, intervals and rules that relate two keys.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from . import modality, waveforms


def _bound(default, low=None, *, above=None, bits=None):
    """A field whose value must be >= ``low``, > ``above`` and < 2**``bits``
    (each where given); a float must also be finite, all ``_bound(x)`` asks."""
    return field(default=default, metadata={"bound": (low, above, bits)})


class ConfigError(ValueError):
    pass


@dataclass
class DatasetConfig:
    num_transmitters: int = _bound(16, 2)
    per_tx_count: int = _bound(200, 1)
    window_len: int = _bound(64, 2)
    snr_db: float = 10.0
    seed: int = _bound(7, 0)
    path: Optional[str] = None
    test_fraction: float = 0.15


@dataclass
class PartitionConfig:
    mode: str = "noniid"
    num_aps: int = _bound(4, 1)
    labels_per_ap: int = _bound(5, 1)


@dataclass
class ModelConfig:
    kind: str = "softmax_linear"
    block_channels: Tuple[int, int] = _bound((8, 16), 1)
    kernel_len: int = _bound(3, 1)
    hidden: int = _bound(32, 1)
    l2_coeff: float = _bound(1e-4, 0)


@dataclass
class TrainingConfigSection:
    rounds: int = _bound(100, 0)
    local_steps: int = _bound(20, 1)
    batch_size: int = _bound(32, 1)
    eta: float = _bound(0.01, above=0)
    modalities: Tuple[str, ...] = modality.ALL_MODALITIES
    eval_stride: int = _bound(1, 1)
    # a model file stores its seed as one 64-bit integer
    seeds: Tuple[int, ...] = _bound((1, 2, 3, 4, 5), 0, bits=64)


@dataclass
class AnalysisConfig:
    dim: int = _bound(8, 1)
    num_aps: int = _bound(4, 1)
    noise_scale: float = _bound(1.0, 0)
    drift_scale: float = _bound(1.0, 0)
    mu_target: float = _bound(1.0, above=0)
    smoothness_target: float = _bound(10.0, above=0)
    init_radius: float = _bound(0.07)
    rounds: int = _bound(40, 1)
    local_steps: int = _bound(5, 1)
    batch_size: int = _bound(8, 1)
    eta: float = _bound(0.035, above=0)
    modality_count: int = _bound(1, 1)
    mc_seeds: int = _bound(200, 1)
    seed: int = _bound(11, 0)


@dataclass
class PersonalizationConfig:
    enabled: bool = True
    fine_tune_steps: Optional[int] = _bound(None, 0)  # None -> 5 local epochs per AP


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfigSection = field(default_factory=TrainingConfigSection)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    personalization: PersonalizationConfig = field(default_factory=PersonalizationConfig)
    output_dir: Optional[str] = None

    def echo(self) -> dict:
        return asdict(self)


# what a scalar annotation accepts, and how its error message names it
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def _typed(key: str, value, tp):
    """``value`` checked against the field annotation ``tp``; errors name ``key``."""
    if tp in _SCALARS:
        accepted, expected = _SCALARS[tp]
        # bool is an int subclass: only a bool field takes true/false
        if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
        return float(value) if tp is float else value
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object")
        return _fill(tp, value, key + ".")
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[T]
        return None if value is None else _typed(key, value, args[0])
    # the remaining annotations are tuples: Tuple[T, ...], or Tuple[int, int]
    # for model.block_channels, the one fixed-length tuple
    if args[-1] is Ellipsis:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list")
        args = args[:1] * len(value)
    elif not isinstance(value, (list, tuple)) or len(value) != len(args):
        raise ConfigError(f"{key} must be a list of two integers")
    return tuple(_typed(key, x, t) for x, t in zip(value, args))


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    """Field name -> annotation; resolving the annotation strings is slow."""
    return get_type_hints(cls)


def _fill(cls, raw: dict, prefix: str):
    """An instance of ``cls`` with the keys of ``raw`` set over its defaults."""
    obj = cls()
    hints = _hints(cls)
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown key: {prefix}{key}")
        setattr(obj, key, _typed(prefix + key, value, hints[key]))
    return obj


@functools.lru_cache(maxsize=None)
def _bounds(cls) -> tuple:
    """``(name, low, above, bits)`` of every bounded field of ``cls``."""
    return tuple((f.name, *f.metadata["bound"]) for f in fields(cls) if "bound" in f.metadata)


def check_bounds(obj, cls, prefix: str) -> None:
    """Check each value of ``obj`` that a field of section class ``cls`` bounds,
    where ``obj`` has that field; errors name ``prefix + name``, so
    ``generate_dataset``, ``TrainingConfig`` and ``ModelSpec`` use ``validate``'s words."""
    for name, low, above, bits in _bounds(cls):
        value = getattr(obj, name, None)
        key = prefix + name
        for v in value if isinstance(value, tuple) else (value,):
            if v is None:  # a field ``obj`` lacks, or an unset Optional
                continue
            # NaN passes every comparison below, and an infinity overflows the runs
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {v!r}")
            if low is not None and v < low:
                raise ConfigError(f"{key} must be >= {low}")
            if above is not None and v <= above:
                raise ConfigError(f"{key} must be > {above}")
            if bits is not None and v >= 2**bits:
                raise ConfigError(f"{key} must be < 2**{bits}")


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    d, p, m, t, a = cfg.dataset, cfg.partition, cfg.model, cfg.training, cfg.analysis
    # a dataset file replaces the generation keys, so only generation checks them
    if d.path is None:
        check_bounds(d, DatasetConfig, "dataset.")
        try:
            waveforms.snr_ratio(d.snr_db)
        except ValueError as exc:
            raise ConfigError(f"dataset.{exc}") from None
    for name in ("partition", "model", "training", "analysis", "personalization"):
        section = getattr(cfg, name)
        check_bounds(section, type(section), name + ".")
    if not 0.0 < d.test_fraction < 1.0:
        raise ConfigError("dataset.test_fraction must be in (0, 1)")

    if p.mode not in ("iid", "noniid"):
        raise ConfigError(f"partition.mode must be 'iid' or 'noniid', got {p.mode!r}")
    # a dataset file brings its own label count and window length, which
    # partition_noniid and models.ModelSpec check
    if p.mode == "noniid" and d.path is None and p.num_aps * p.labels_per_ap < d.num_transmitters:
        raise ConfigError("partition.labels_per_ap too small to cover every transmitter")

    if m.kind not in ("softmax_linear", "mini_resnet"):
        raise ConfigError(f"model.kind must be softmax_linear or mini_resnet, got {m.kind!r}")
    if m.kernel_len % 2 == 0:
        raise ConfigError("model.kernel_len must be odd")
    if m.kind == "mini_resnet" and d.path is None and d.window_len % 4 != 0:
        raise ConfigError("dataset.window_len must be divisible by 4 for mini_resnet")

    for mod in t.modalities:
        if mod not in modality.ALL_MODALITIES:
            raise ConfigError(
                f"training.modalities: unknown modality {mod!r} "
                f"(choose from {list(modality.ALL_MODALITIES)})"
            )
    if len(set(t.modalities)) != len(t.modalities):
        raise ConfigError("training.modalities contains duplicates")

    if a.smoothness_target < a.mu_target:
        raise ConfigError("analysis.mu_target must be <= analysis.smoothness_target")
    return cfg


def from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "output_dir" in raw and raw["output_dir"] is None:
        # null is the unset default, so an explicit null is a mistake
        raise ConfigError("output_dir must be a string, got None")
    return validate(_fill(ExperimentConfig, raw, ""))


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return from_dict(raw)
