"""Checkpoint format: bit-exact round trips, corruption handling."""

import os
import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuse import checkpoint as ckpt_mod
from dualfuse import params
from dualfuse.checkpoint import CheckpointError, load_checkpoint, \
    save_checkpoint
from dualfuse.config import RunConfig
from dualfuse.model import build_model, fuse_pair_arrays
from dualfuse.optim import AdamState
from dualfuse.toydata import make_toy_pairs


def small_config():
    return RunConfig(channels=4, crop=16, batch=1, seed=3)


def test_round_trip_preserves_fuse_output_bitwise(tmp_path):
    cfg = small_config()
    model = build_model(cfg)
    adam = AdamState(step_count=17)
    adam.ensure(params.named_parameters(model))
    for key in adam.m:
        adam.m[key][...] = 0.01
    pair = make_toy_pairs(1, 24)[0]
    before = fuse_pair_arrays(pair, model, cfg)

    path = str(tmp_path / "m.tmam")
    save_checkpoint(path, cfg, model, adam, stage1_steps=40, stage2_steps=9)
    loaded = load_checkpoint(path)

    assert loaded.config == cfg
    assert loaded.stage1_steps == 40
    assert loaded.stage2_steps == 9
    assert loaded.fusion_trained
    assert loaded.adam.step_count == 17
    after = fuse_pair_arrays(pair, loaded.model, loaded.config)
    assert before.tobytes() == after.tobytes()
    key = next(iter(loaded.adam.m))
    assert np.all(loaded.adam.m[key] == 0.01)


def test_round_trip_parameter_bytes(tmp_path):
    cfg = small_config()
    model = build_model(cfg)
    path = str(tmp_path / "p.tmam")
    save_checkpoint(path, cfg, model, AdamState(), 1, 0)
    loaded = load_checkpoint(path)
    orig = dict(params.named_parameters(model))
    for name, tensor in params.named_parameters(loaded.model):
        assert orig[name].data.tobytes() == tensor.data.tobytes(), name


def test_stage1_only_checkpoint_flags_untrained_fusion(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "s1.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 10, 0)
    assert not load_checkpoint(path).fusion_trained


def test_magic_header(tmp_path):
    path = str(tmp_path / "bad.tmam")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + bytes(100))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    with open(path, "rb") as fh:
        assert fh.read(4) != ckpt_mod.MAGIC


def test_truncated_file(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "t.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 1, 0)
    with open(path, "rb") as fh:
        blob = fh.read()
    for cut in (len(blob) // 2, 4, 5, 6, 7):     # mid-record, mid-version
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg = small_config()
    model = build_model(cfg)
    path = str(tmp_path / "a.tmam")
    save_checkpoint(path, cfg, model, AdamState(), 1, 0)
    with open(path, "rb") as fh:
        before = fh.read()
    real_records = ckpt_mod._records

    def failing_records(*args):
        records = real_records(*args)
        yield next(records)
        yield next(records)
        raise OSError("disk full")

    monkeypatch.setattr(ckpt_mod, "_records", failing_records)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, cfg, model, AdamState(), 2, 0)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tmam"]


def test_failed_rename_raises_original_error(tmp_path, monkeypatch):
    # the temp file is already gone when cleanup runs; the rename's error,
    # not a FileNotFoundError from the cleanup, must reach the caller
    cfg = small_config()
    model = build_model(cfg)
    path = str(tmp_path / "a.tmam")
    save_checkpoint(path, cfg, model, AdamState(), 1, 0)
    with open(path, "rb") as fh:
        before = fh.read()

    def failing_replace(src, dst):
        os.unlink(src)
        raise OSError("rename failed")

    monkeypatch.setattr(ckpt_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(path, cfg, model, AdamState(), 2, 0)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tmam"]


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    # without it the rename may not survive a power loss
    calls = []
    real_replace, real_fsync = os.replace, os.fsync

    def recording_replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    def recording_fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                     else "fsync file")
        real_fsync(fd)

    monkeypatch.setattr(ckpt_mod.os, "replace", recording_replace)
    monkeypatch.setattr(ckpt_mod.os, "fsync", recording_fsync)
    cfg = small_config()
    save_checkpoint(str(tmp_path / "a.tmam"), cfg, build_model(cfg),
                    AdamState(), 1, 0)
    assert calls == ["fsync file", "replace", "fsync dir"]


def test_unsupported_version(tmp_path):
    path = str(tmp_path / "v.tmam")
    with open(path, "wb") as fh:
        fh.write(ckpt_mod.MAGIC + (99).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_version_1_checkpoint_is_refused(tmp_path):
    # version 1 also held the fusion blocks' unread layers and their moments
    assert ckpt_mod.VERSION == 2
    cfg = small_config()
    path = str(tmp_path / "v1.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 1, 1)
    with open(path, "r+b") as fh:
        fh.seek(len(ckpt_mod.MAGIC))
        fh.write((1).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def save_adam_checkpoint(path, prefix=None, edit=None):
    """Save a checkpoint with Adam moments for every parameter and return
    the first moment's name; with ``prefix``, the record ``prefix + name``
    is saved as ``edit(payload)``, or dropped where that is None."""
    cfg = small_config()
    model = build_model(cfg)
    adam = AdamState(step_count=3)
    adam.ensure(params.named_parameters(model))
    first = sorted(adam.m)[0]
    real_records = ckpt_mod._records

    def edited_records(*args):
        for key, payload in real_records(*args):
            if prefix is not None and key == prefix + first:
                payload = edit(payload)
            if payload is not None:
                yield key, payload
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckpt_mod, "_records", edited_records)
        save_checkpoint(path, cfg, model, adam, 1, 1)
    return first


@pytest.mark.parametrize("dropped,kept", [("adam_v/", "adam_m/"),
                                          ("adam_m/", "adam_v/")])
def test_unpaired_adam_moment_is_refused(tmp_path, dropped, kept):
    path = str(tmp_path / "unpaired.tmam")
    save_adam_checkpoint(path)
    load_checkpoint(path)                    # unedited, it loads
    first = save_adam_checkpoint(path, dropped, lambda payload: None)
    with pytest.raises(CheckpointError, match=re.escape(
            "%r has no matching %r" % (kept + first, dropped + first))):
        load_checkpoint(path)


def test_adam_moments_of_different_shapes_are_refused(tmp_path):
    def flatten(payload):      # same element count, different shape
        return ckpt_mod._encode_array(ckpt_mod._decode_array(payload).ravel())
    path = str(tmp_path / "reshaped.tmam")
    first = save_adam_checkpoint(path, "adam_v/", flatten)
    with pytest.raises(CheckpointError, match=re.escape(
            "records %r and %r differ in shape" % ("adam_m/" + first,
                                                   "adam_v/" + first))):
        load_checkpoint(path)


def save_with_extra_record(path, key_for):
    """Save a checkpoint with one record more: right after the first
    ``param/`` record, a copy of its payload under ``key_for(name)``, where
    ``name`` is that record's parameter; return the added key."""
    cfg = small_config()
    real_records = ckpt_mod._records
    added = []

    def edited_records(*args):
        for key, payload in real_records(*args):
            yield key, payload
            if key.startswith("param/") and not added:
                added.append(key_for(key[len("param/"):]))
                yield added[0], payload
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckpt_mod, "_records", edited_records)
        save_checkpoint(path, cfg, build_model(cfg), AdamState(), 1, 1)
    return added[0]


@pytest.mark.parametrize("key_for,refusal", [
    (lambda name: "param/" + name, "record %r appears twice"),
    (lambda name: "param/" + name + "_stray",
     "record %r names no parameter of the config's model"),
    (lambda name: "weights/" + name, "record %r is of no known kind"),
], ids=["duplicate_key", "param_without_parameter", "unknown_kind"])
def test_a_record_the_model_cannot_place_is_refused(tmp_path, key_for,
                                                     refusal):
    # each loaded silently before: a duplicate key kept its last record,
    # and the other two were ignored
    path = str(tmp_path / "extra.tmam")
    key = save_with_extra_record(path, key_for)
    with pytest.raises(CheckpointError, match=re.escape(refusal % key)):
        load_checkpoint(path)


@pytest.mark.parametrize("prefix,value", [("param/", np.nan),
                                          ("adam_m/", np.inf),
                                          ("adam_v/", -np.inf)])
def test_non_finite_record_is_refused(tmp_path, prefix, value):
    # one NaN parameter makes every fused pixel NaN, so the record that
    # holds it is named at load, not met as a black image
    def poison(payload):
        arr = ckpt_mod._decode_array(payload)
        arr.flat[-1] = value
        return ckpt_mod._encode_array(arr)
    path = str(tmp_path / "poisoned.tmam")
    first = save_adam_checkpoint(path, prefix, poison)
    with pytest.raises(CheckpointError, match=re.escape(
            "record %r holds a non-finite value" % (prefix + first))):
        load_checkpoint(path)


def test_nan_decoder_bias_is_refused(tmp_path):
    cfg = small_config()
    model = build_model(cfg)
    model.decoder.out_b.data[...] = np.nan
    path = str(tmp_path / "nan.tmam")
    save_checkpoint(path, cfg, model, AdamState(), 1, 1)
    with pytest.raises(CheckpointError, match="'param/decoder.out_b'"):
        load_checkpoint(path)


def test_negative_seed_in_config_record_is_refused(tmp_path):
    # numpy refuses a negative seed when the model is rebuilt, so the config
    # record is refused first, as a checkpoint fault
    cfg = small_config()
    path = str(tmp_path / "seed.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 1, 1)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.count(b"seed = 3\n") == 1
    with open(path, "wb") as fh:       # same length, so no header changes
        fh.write(blob.replace(b"seed = 3\n", b"seed =-3\n"))
    with pytest.raises(CheckpointError, match="seed must be >= 0"):
        load_checkpoint(path)


def test_repeated_key_in_config_record_is_refused(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "twice.tmam")
    save_checkpoint(path, cfg, build_model(cfg), AdamState(), 1, 1)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob.count(b"seed = 3\n") == 1
    with open(path, "wb") as fh:       # same length, so no header changes
        fh.write(blob.replace(b"seed = 3\n", b"crop =16\n"))
    with pytest.raises(CheckpointError, match="key 'crop' already set"):
        load_checkpoint(path)


def test_array_record_whose_element_count_overflows_int64_is_refused(tmp_path):
    # 65536**4 = 2**64 elements wrap to 0 in int64, which matches an empty
    # data section
    path = str(tmp_path / "overflow.tmam")
    save_adam_checkpoint(path, "param/", lambda payload: struct.pack(
        "<B4I", 4, 65536, 65536, 65536, 65536))
    with pytest.raises(CheckpointError, match="size mismatch"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    cfg = RunConfig(channels=1, crop=16, batch=1, seed=3)
    model = build_model(cfg)
    adam = AdamState(step_count=2)
    adam.ensure(params.named_parameters(model))
    path = str(tmp_path_factory.mktemp("ckpt") / "tiny.tmam")
    save_checkpoint(path, cfg, model, adam, 1, 1)
    with open(path, "rb") as fh:
        return path, fh.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_raises_only_checkpoint_error(tiny_blob, data):
    path, blob = tiny_blob
    # the config text and the record headers sit near the front, so half the
    # overwrites land in the first kilobyte; two overwrites of "channels = 1"
    # give at most 91 channels, which keeps every rebuilt model small
    where = st.one_of(st.integers(0, 1023), st.integers(0, len(blob) - 1))
    edits = data.draw(st.lists(st.tuples(where, st.integers(0, 255)),
                               max_size=2))
    mutated = bytearray(blob)
    for pos, value in edits:
        mutated[pos] = value
    mutated = mutated[:data.draw(st.integers(0, len(blob)))]
    with open(path, "wb") as fh:
        fh.write(mutated)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
