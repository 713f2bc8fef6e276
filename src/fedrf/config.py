"""Experiment configuration: JSON file with a strict, fully-defaulted schema.

Every key is optional; the defaults reproduce the shipped desk-scale
non-i.i.d. profile. Unknown keys and invalid values are rejected with the
offending dotted key named in the error message. Each section's dataclass is
the one place its keys, types and defaults are declared: a value is checked
against the annotation of its field.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from . import modality, waveforms


class ConfigError(ValueError):
    pass


@dataclass
class DatasetConfig:
    num_transmitters: int = 16
    per_tx_count: int = 200
    window_len: int = 64
    snr_db: float = 10.0
    seed: int = 7
    path: Optional[str] = None
    test_fraction: float = 0.15


@dataclass
class PartitionConfig:
    mode: str = "noniid"
    num_aps: int = 4
    labels_per_ap: int = 5


@dataclass
class ModelConfig:
    kind: str = "softmax_linear"
    block_channels: Tuple[int, int] = (8, 16)
    kernel_len: int = 3
    hidden: int = 32
    l2_coeff: float = 1e-4


@dataclass
class TrainingConfigSection:
    rounds: int = 100
    local_steps: int = 20
    batch_size: int = 32
    eta: float = 0.01
    modalities: Tuple[str, ...] = modality.ALL_MODALITIES
    eval_stride: int = 1
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)


@dataclass
class AnalysisConfig:
    dim: int = 8
    num_aps: int = 4
    noise_scale: float = 1.0
    drift_scale: float = 1.0
    mu_target: float = 1.0
    smoothness_target: float = 10.0
    init_radius: float = 0.07
    rounds: int = 40
    local_steps: int = 5
    batch_size: int = 8
    eta: float = 0.035
    modality_count: int = 1
    mc_seeds: int = 200
    seed: int = 11


@dataclass
class PersonalizationConfig:
    enabled: bool = True
    fine_tune_steps: Optional[int] = None  # None -> 5 local epochs per AP


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


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    d, p, m, t, a, pers = (
        cfg.dataset,
        cfg.partition,
        cfg.model,
        cfg.training,
        cfg.analysis,
        cfg.personalization,
    )
    # a dataset file replaces the generation keys, so only generation checks them
    if d.path is None:
        if d.num_transmitters < 2:
            raise ConfigError("dataset.num_transmitters must be >= 2")
        if d.per_tx_count < 1:
            raise ConfigError("dataset.per_tx_count must be >= 1")
        if d.window_len < 2:
            raise ConfigError("dataset.window_len must be >= 2")
        if d.seed < 0:
            raise ConfigError("dataset.seed must be >= 0")
        try:
            waveforms.snr_ratio(d.snr_db)
        except ValueError as exc:
            raise ConfigError(f"dataset.{exc}") from None
    if not 0.0 < d.test_fraction < 1.0:
        raise ConfigError("dataset.test_fraction must be in (0, 1)")

    if p.mode not in ("iid", "noniid"):
        raise ConfigError(f"partition.mode must be 'iid' or 'noniid', got {p.mode!r}")
    if p.num_aps < 1:
        raise ConfigError("partition.num_aps must be >= 1")
    if p.mode == "noniid":
        if p.labels_per_ap < 1:
            raise ConfigError("partition.labels_per_ap must be >= 1")
        # a dataset file brings its own label count and window length, which
        # partition_noniid and models.ModelSpec check
        if d.path is None and p.num_aps * p.labels_per_ap < d.num_transmitters:
            raise ConfigError(
                "partition.labels_per_ap too small to cover every transmitter"
            )

    if m.kind not in ("softmax_linear", "mini_resnet"):
        raise ConfigError(f"model.kind must be softmax_linear or mini_resnet")
    if not math.isfinite(m.l2_coeff):
        raise ConfigError(f"model.l2_coeff must be finite, got {m.l2_coeff!r}")
    if m.l2_coeff < 0:
        raise ConfigError("model.l2_coeff must be >= 0")
    if min(m.block_channels) < 1 or m.hidden < 1:
        raise ConfigError("model widths must be >= 1")
    if m.kernel_len < 1 or m.kernel_len % 2 == 0:
        raise ConfigError("model.kernel_len must be odd and >= 1")
    if m.kind == "mini_resnet" and d.path is None and d.window_len % 4 != 0:
        raise ConfigError("dataset.window_len must be divisible by 4 for mini_resnet")

    if t.rounds < 0:
        raise ConfigError("training.rounds must be >= 0")
    if t.local_steps < 1:
        raise ConfigError("training.local_steps must be >= 1")
    if t.batch_size < 1:
        raise ConfigError("training.batch_size must be >= 1")
    if not math.isfinite(t.eta):
        raise ConfigError(f"training.eta must be finite, got {t.eta!r}")
    if t.eta <= 0:
        raise ConfigError("training.eta must be > 0")
    for mod in t.modalities:
        if mod not in modality.ALL_MODALITIES:
            raise ConfigError(
                f"training.modalities: unknown modality {mod!r} "
                f"(choose from {list(modality.ALL_MODALITIES)})"
            )
    if len(set(t.modalities)) != len(t.modalities):
        raise ConfigError("training.modalities contains duplicates")
    if t.eval_stride < 1:
        raise ConfigError("training.eval_stride must be >= 1")
    if any(s < 0 for s in t.seeds):
        raise ConfigError("training.seeds must be >= 0")
    # a model file stores its seed as one 64-bit integer
    if any(s >= 2**64 for s in t.seeds):
        raise ConfigError("training.seeds must be < 2**64")

    # NaN passes every comparison below, and an infinity overflows the runs
    for key in ("noise_scale", "drift_scale", "mu_target", "smoothness_target",
                "init_radius", "eta"):
        if not math.isfinite(getattr(a, key)):
            raise ConfigError(f"analysis.{key} must be finite, got {getattr(a, key)!r}")
    if a.dim < 1 or a.num_aps < 1:
        raise ConfigError("analysis.dim and analysis.num_aps must be >= 1")
    if a.noise_scale < 0 or a.drift_scale < 0:
        raise ConfigError("analysis noise/drift scales must be >= 0")
    if a.mu_target <= 0 or a.smoothness_target < a.mu_target:
        raise ConfigError(
            "analysis.mu_target must be > 0 and <= analysis.smoothness_target"
        )
    if a.rounds < 1 or a.local_steps < 1 or a.batch_size < 1 or a.mc_seeds < 1:
        raise ConfigError("analysis loop counts must be >= 1")
    if a.eta <= 0:
        raise ConfigError("analysis.eta must be > 0")
    if a.modality_count < 1:
        raise ConfigError("analysis.modality_count must be >= 1")

    if pers.fine_tune_steps is not None and pers.fine_tune_steps < 0:
        raise ConfigError("personalization.fine_tune_steps must be >= 0")
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
