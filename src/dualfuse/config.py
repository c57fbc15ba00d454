"""Run configuration: flat ``key = value`` text files with ``#`` comments.

Unknown and repeated keys are hard errors; every field has a typed default.
Checkpoints store the config text without the data and output directories,
so a training run is fully described by (config, seed, data) anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    """Malformed config text or invalid field combination."""


@dataclass
class RunConfig:
    channels: int = 8
    depth: int = 1                    # encoder dual-branch blocks
    crop: int = 32
    batch: int = 2
    epochs_stage1: int = 40
    epochs_stage2: int = 40
    lr: float = 7.5e-5
    lr_decay: float = 0.5
    lr_decay_every: int = 20          # epochs, counted across both stages
    seed: int = 0
    transformer_branch: bool = True
    mamba_branch: bool = True
    interaction: bool = True
    cross_modal_attention: bool = True
    mamba_as_conv: bool = False
    data_dir: str = "data"
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        if self.crop < 16:
            raise ConfigError("crop must be at least 16, got %d" % self.crop)
        if not (self.transformer_branch or self.mamba_branch):
            raise ConfigError("cannot disable both branches")
        if self.cross_modal_attention and not self.transformer_branch:
            raise ConfigError("cross_modal_attention needs the transformer branch")
        if self.mamba_as_conv and not self.mamba_branch:
            raise ConfigError("mamba_as_conv needs the mamba branch enabled")
        if not (0 < self.lr < math.inf and 0 < self.lr_decay < math.inf):
            raise ConfigError("learning rates and decay must be positive and finite")
        if self.lr_decay_every < 1:
            raise ConfigError("lr_decay_every must be >= 1")
        if self.channels < 1 or self.depth < 1 or self.batch < 1:
            raise ConfigError("channels, depth and batch must be >= 1")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ConfigError("epoch counts cannot be negative")
        if self.seed < 0:        # numpy's generators take no negative seed
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        return self

    def to_text(self) -> str:
        """Every field but the two directories, as config text: the record
        a checkpoint keeps, so where a run read and wrote leaves its bytes
        alone."""
        lines = []
        for f in fields(self):
            if f.name in ("data_dir", "out_dir"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append("%s = %s" % (f.name, value))
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ConfigError("bad boolean for %s: %r" % (key, raw))
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError("bad integer for %s: %r" % (key, raw)) from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError("bad float for %s: %r" % (key, raw)) from exc
    return raw


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    set_on: dict[str, int] = {}     # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, line))
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in set_on:
            raise ConfigError("line %d: key %r already set on line %d"
                              % (lineno, key, set_on[key]))
        set_on[key] = lineno
        setattr(cfg, key, _convert(key, raw))
    return cfg.validate()


def load_config(path: str) -> RunConfig:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 (byte offset %d)"
                          % (path, exc.start)) from exc
    return parse_config(text)
