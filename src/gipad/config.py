"""Settings of the model, the trainer and the synthetic benchmark, declared
once as dataclasses, and the one reader and writer of `key = value` text
(config files, `config.resolved` and the checkpoint config block).

This module must not import numpy, directly or through another gipad module.
The command line resolves its whole configuration from these declarations
before anything loads numpy, because numpy sizes its BLAS thread pools when
it is first imported: a `--threads` value set after that has no effect.
"""

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import ConfigError

PLACEMENTS = ("begin", "end", "both", "none")
PRECISIONS = ("double", "single")
SPLITS = ("train", "dev", "test")

# Upper bounds of the model a configuration can describe, far above every
# documented one (width 1.0, k 5, input 512 in the flops grid): a larger
# value would only ask for more memory than a host has.
MAX_WIDTH_MULTIPLIER = 4.0
MAX_GI_KERNEL = 11
MAX_INPUT_SIZE = 2048

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class Setting(NamedTuple):
    type: type
    default: object
    choices: tuple | None = None


def settings(cls) -> dict:
    """{name: Setting} for the fields of the config dataclass `cls`."""
    return {f.name: Setting(f.type, f.default, f.metadata.get("choices")) for f in fields(cls)}


def _check(name, value, choices=None):
    """`value`, unless it is a non-finite float or outside `choices` (ConfigError)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def convert(name, raw: str, setting: Setting):
    """The typed value of setting `name` from its text `raw`."""
    if setting.type is bool:
        if raw.lower() in _TRUE:
            return True
        if raw.lower() in _FALSE:
            return False
        raise ConfigError(f"config key {name}: expected a boolean, got {raw!r}")
    try:
        value = setting.type(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}") from exc
    return _check(name, value, setting.choices)


def build(cls, text_values: dict):
    """`cls` from the text of its fields' values; other keys are ignored."""
    known = settings(cls)
    return cls(**{key: convert(key, raw, known[key])
                  for key, raw in text_values.items() if key in known})


def _check_fields(obj):
    for f in fields(obj):
        _check(f.name, getattr(obj, f.name), f.metadata.get("choices"))


@dataclass
class ModelConfig:
    groups: int = 120
    reduce: int = 4
    gi_kernel: int = 5
    placement: str = field(default="end", metadata={"choices": PLACEMENTS})
    width_multiplier: float = 1.0
    input_size: int = 256

    def __post_init__(self):
        _check_fields(self)
        if self.groups < 1 or self.reduce < 1:
            raise ConfigError(f"groups and reduce must be >= 1, got {self.groups} "
                              f"and {self.reduce}")
        if self.gi_kernel % 2 == 0 or not 1 <= self.gi_kernel <= MAX_GI_KERNEL:
            raise ConfigError(f"gi_kernel must be odd and in [1, {MAX_GI_KERNEL}], "
                              f"got {self.gi_kernel}")
        if not 0 < self.width_multiplier <= MAX_WIDTH_MULTIPLIER:
            raise ConfigError(f"width_multiplier must be in (0, {MAX_WIDTH_MULTIPLIER}], "
                              f"got {self.width_multiplier}")
        if not 32 <= self.input_size <= MAX_INPUT_SIZE:
            raise ConfigError(f"input_size must be in [32, {MAX_INPUT_SIZE}], "
                              f"got {self.input_size}")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    label_smoothing: float = 0.05
    seed: int = 0
    precision: str = field(default="double", metadata={"choices": PRECISIONS})

    def __post_init__(self):
        _check_fields(self)
        if self.lr <= 0 or self.adam_eps <= 0:
            raise ConfigError(f"lr and adam_eps must be positive, got {self.lr} and "
                              f"{self.adam_eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} and "
                              f"{self.beta2}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthSpec:
    seed: int = 0
    train: int = 512
    dev: int = 128
    test: int = 128
    size: int = 64

    def __post_init__(self):
        for split in SPLITS:
            if getattr(self, split) < 1:
                raise ConfigError(f"synthetic {split} count must be >= 1")
        # a larger frame would only be resized down to an input size
        if not 1 <= self.size <= MAX_INPUT_SIZE:
            raise ConfigError(f"synthetic patch size must be in [1, {MAX_INPUT_SIZE}], "
                              f"got {self.size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def parse(text: str, source, keys=None) -> dict:
    """{key: value text} from `key = value` lines; `#` starts a comment.

    Raises ConfigError for a line without `=` and, when `keys` is given, for
    a key outside it.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if "\0" in line:  # no path may hold one, and argv cannot carry one
            raise ConfigError(f"{source}:{lineno}: NUL character")
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if keys is not None and key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return values


def dump(values: dict, notes=None) -> str:
    """`key = value` lines for `values`, with `  # note` after each key in `notes`."""
    lines = []
    for key, value in values.items():
        text = str(value).lower() if isinstance(value, bool) else str(value)
        lines.append(f"{key} = {text}" + (f"  # {notes[key]}" if notes else ""))
    return "\n".join(lines) + "\n"
