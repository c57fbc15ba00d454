"""Config parsing: typed fields, comments, unknown keys, invariants."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuse.checkpoint import load_checkpoint, save_checkpoint
from dualfuse.config import ConfigError, RunConfig, load_config, parse_config
from dualfuse.model import build_model
from dualfuse.optim import AdamState


def without_dirs(cfg):
    """Every field but ``data_dir`` and ``out_dir``, which config text (and
    so a checkpoint) leaves out."""
    fields = dataclasses.asdict(cfg)
    del fields["data_dir"], fields["out_dir"]
    return fields


def test_parse_minimal_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()


def test_parse_full_file():
    text = """
# toy preset
channels = 4
crop = 16          # small crops
batch = 1
lr = 2e-3
mamba_as_conv = true
data_dir = /tmp/pairs
"""
    cfg = parse_config(text)
    assert cfg.channels == 4
    assert cfg.crop == 16
    assert cfg.lr == 2e-3
    assert cfg.mamba_as_conv is True
    assert cfg.data_dir == "/tmp/pairs"
    assert cfg.depth == 1            # untouched default


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("channles = 4\n")


def test_repeated_key_is_error():
    # the last line used to win silently
    with pytest.raises(ConfigError,
                       match="line 3: key 'lr' already set on line 1"):
        parse_config("lr = 1e-3\n# a comment\nlr = 5e-4\n")


def test_malformed_line_is_error():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_non_utf8_file_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"channels = 8\n\xff\xfe = 1\n")
    with pytest.raises(ConfigError, match="not UTF-8 \\(byte offset 13\\)"):
        load_config(str(path))


def test_bad_types_are_errors():
    with pytest.raises(ConfigError):
        parse_config("channels = four\n")
    with pytest.raises(ConfigError):
        parse_config("lr = fast\n")
    with pytest.raises(ConfigError):
        parse_config("interaction = maybe\n")


@pytest.mark.parametrize("text", [
    "crop = 8\n",
    "transformer_branch = false\nmamba_branch = false\n",
    "transformer_branch = false\n",     # cross-modal needs the transformer
    "mamba_branch = false\nmamba_as_conv = true\ncross_modal_attention = true\n",
    "lr = 0\n",
    "lr_decay = -0.5\n",
    "lr = nan\n",
    "lr = inf\n",
    "lr = 1e999\n",
    "lr_decay = nan\n",
    "batch = 0\n",
    "epochs_stage1 = -1\n",
    "seed = -1\n",                     # numpy's generators refuse it
])
def test_invariant_violations(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_round_trip_through_text():
    cfg = RunConfig(channels=6, crop=24, lr=1e-3, interaction=False,
                    data_dir="d", out_dir="o")
    assert without_dirs(parse_config(cfg.to_text())) == without_dirs(cfg)
    assert "_dir" not in cfg.to_text()


_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
_VALUES = st.one_of(st.floats().map(repr), st.integers().map(str),
                    st.sampled_from(["true", "off"]), st.text())
# the last branch spells non-finite floats outright: st.floats() alone rarely
# yields one in a config whose other lines all parse
_LINES = st.one_of(
    st.text(),
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUES),
    st.builds("{} = {}".format, st.sampled_from(["lr", "lr_decay"]),
              st.one_of(st.floats().map(repr), st.sampled_from(["nan", "-inf", "1e999"]))))


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINES, max_size=4).map("\n".join))
def test_parse_config_returns_finite_config_or_config_error(text):
    # on any text: a RunConfig whose floats are finite, or ConfigError
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            assert math.isfinite(value), (f.name, value)


@pytest.mark.parametrize("value", [
    "runs/#1",                  # reloaded as "runs/": the rest is a comment
    "runs\nchannels = 3",       # reloaded as out_dir "runs" and channels 3
    "runs\r", " runs", "runs\t", "a\x0cb", "a\u2028b",
])
def test_dirs_that_config_text_cannot_hold_are_rejected(value, tmp_path):
    # config text holds no directory, so these are accepted and a
    # checkpoint saved with them reloads with the same model fields
    cfg = RunConfig(channels=2, crop=16, data_dir=value,
                    out_dir=value).validate()
    path = str(tmp_path / "m.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 0, 0)
    assert without_dirs(load_checkpoint(path).config) == without_dirs(cfg)


_ANY_CONFIG = st.builds(
    RunConfig,
    channels=st.integers(-2, 64), depth=st.integers(-1, 4),
    crop=st.integers(0, 256), batch=st.integers(-1, 8),
    epochs_stage1=st.integers(-2, 10**6), epochs_stage2=st.integers(-2, 10**6),
    lr=st.floats(), lr_decay=st.floats(), lr_decay_every=st.integers(-1, 99),
    seed=st.integers(-2**63, 2**63), transformer_branch=st.booleans(),
    mamba_branch=st.booleans(), interaction=st.booleans(),
    cross_modal_attention=st.booleans(), mamba_as_conv=st.booleans(),
    data_dir=st.text(), out_dir=st.text())


@settings(max_examples=500, deadline=None)
@given(_ANY_CONFIG)
def test_valid_config_round_trips_through_text(cfg):
    # the text a checkpoint stores must reload as the same config
    try:
        cfg.validate()
    except ConfigError:
        return
    assert without_dirs(parse_config(cfg.to_text())) == without_dirs(cfg)
