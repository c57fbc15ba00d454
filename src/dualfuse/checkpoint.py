"""Checkpoint serialization.

Little-endian binary: magic ``TMAM``, a u32 format version, then
length-prefixed records (u32 key length, key bytes, u32 payload length,
payload). Parameters and optimizer moments store raw float64 arrays with an
ndim/dims header; the config snapshot stores its exact text. Loading rebuilds
the model from the embedded config and overwrites every parameter, so a
round trip reproduces forward outputs bit-for-bit. Adam moments load only
as ``adam_m/`` and ``adam_v/`` pairs of one shape, and no array record may
hold NaN or Inf. A key that appears twice, is of no known kind, or names a
parameter the config's model lacks is refused.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .model import ModelParams, build_model
from .optim import AdamState
from .params import named_parameters

MAGIC = b"TMAM"
VERSION = 2      # 2: fusion blocks hold only the layers they run


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    config: RunConfig
    model: ModelParams
    adam: AdamState
    stage1_steps: int
    stage2_steps: int

    @property
    def fusion_trained(self) -> bool:
        return self.stage2_steps > 0


def _encode_array(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)   # tobytes() serializes C-order
    head = struct.pack("<B", arr.ndim) \
        + b"".join(struct.pack("<I", d) for d in arr.shape)
    return head + arr.tobytes()


def _decode_array(payload: bytes) -> np.ndarray:
    if len(payload) < 1:
        raise CheckpointError("empty array payload")
    ndim = payload[0]
    try:
        dims = struct.unpack_from("<%dI" % ndim, payload, 1)
        data = np.frombuffer(payload, dtype="<f8", offset=1 + 4 * ndim)
    except (struct.error, ValueError) as exc:
        raise CheckpointError("malformed array payload: %s" % exc) from exc
    expected = math.prod(dims)      # Python ints: np.prod wraps past 2**63
    if data.size != expected:
        raise CheckpointError("array payload size mismatch")
    return data.reshape(dims).copy()


def _records(model: ModelParams, adam: AdamState, cfg: RunConfig,
             stage1_steps: int, stage2_steps: int):
    yield "config", cfg.to_text().encode("utf-8")
    yield "counters", struct.pack("<QQQ", stage1_steps, stage2_steps,
                                  adam.step_count)
    for name, tensor in named_parameters(model):
        yield "param/" + name, _encode_array(tensor.data)
    for name in sorted(adam.m):
        yield "adam_m/" + name, _encode_array(adam.m[name])
        yield "adam_v/" + name, _encode_array(adam.v[name])


def save_checkpoint(path: str, cfg: RunConfig, model: ModelParams,
                    adam: AdamState, stage1_steps: int,
                    stage2_steps: int) -> None:
    """Write atomically: ``path + ".tmp"`` is filled, fsynced and renamed
    over ``path``, so a failed or interrupted save leaves any previous
    checkpoint at ``path`` untouched. The directory is fsynced after the
    rename, so a save that returned survives a power loss."""
    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for key, payload in _records(model, adam, cfg, stage1_steps,
                                         stage2_steps):
                kb = key.encode("utf-8")
                fh.write(struct.pack("<I", len(kb)))
                fh.write(kb)
                fh.write(struct.pack("<I", len(payload)))
                fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    if len(blob) < 8:
        raise CheckpointError("truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError("unsupported checkpoint version %d" % version)
    pos = 8
    records: dict[str, bytes] = {}
    while pos < len(blob):
        if pos + 4 > len(blob):
            raise CheckpointError("truncated record at byte %d" % pos)
        (klen,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        try:
            key = blob[pos:pos + klen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError("record key at byte %d is not UTF-8" % pos) from exc
        pos += klen
        if pos + 4 > len(blob):
            raise CheckpointError("truncated record %r" % key)
        (plen,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        payload = blob[pos:pos + plen]
        if len(payload) != plen:
            raise CheckpointError("truncated payload for %r" % key)
        pos += plen
        if key in records:
            raise CheckpointError("record %r appears twice" % key)
        records[key] = payload

    if "config" not in records or "counters" not in records:
        raise CheckpointError("checkpoint missing config/counters records")
    try:
        cfg = parse_config(records["config"].decode("utf-8"))
        stage1_steps, stage2_steps, adam_steps = \
            struct.unpack("<QQQ", records["counters"])
    except (UnicodeDecodeError, ConfigError, struct.error) as exc:
        raise CheckpointError("malformed config/counters record: %s" % exc) from exc
    params: dict[str, np.ndarray] = {}
    adam = AdamState(step_count=adam_steps)
    kinds = {"param": params, "adam_m": adam.m, "adam_v": adam.v}
    for key, payload in records.items():
        kind, slash, name = key.partition("/")
        if slash and kind in kinds:
            arr = kinds[kind][name] = _decode_array(payload)
            if not np.isfinite(arr).all():    # a NaN weight fuses all-NaN
                raise CheckpointError("record %r holds a non-finite value" % key)
        elif key not in ("config", "counters"):
            raise CheckpointError("record %r is of no known kind" % key)

    model = build_model(cfg)
    for name, tensor in named_parameters(model):
        if name not in params:
            raise CheckpointError("checkpoint missing parameter %r" % name)
        arr = params.pop(name)
        if arr.shape != tensor.data.shape:
            raise CheckpointError("shape mismatch for %r: %r vs %r"
                                  % (name, arr.shape, tensor.data.shape))
        tensor.data = arr
    if params:
        raise CheckpointError("record %r names no parameter of the config's "
                              "model" % ("param/" + next(iter(params))))

    for name in sorted(adam.m.keys() | adam.v.keys()):
        m_key, v_key = "adam_m/" + name, "adam_v/" + name
        if name not in adam.m or name not in adam.v:
            have, lack = (m_key, v_key) if name in adam.m else (v_key, m_key)
            raise CheckpointError("record %r has no matching %r" % (have, lack))
        if adam.m[name].shape != adam.v[name].shape:
            raise CheckpointError("records %r and %r differ in shape: %r vs %r"
                                  % (m_key, v_key, adam.m[name].shape,
                                     adam.v[name].shape))
    return Checkpoint(cfg, model, adam, stage1_steps, stage2_steps)
