"""Image IO and dataset plumbing.

Binary PGM (P5) and 8-bit PNG are read natively; color PNGs convert to YCbCr
with the luma plane becoming the working image and the chroma planes retained
for recombination after fusion. Pairs live in one directory as
``<id>_a.<ext>`` / ``<id>_b.<ext>``.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ParseError(Exception):
    """Malformed image file; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__("%s (byte offset %d)" % (message, offset))
        self.offset = offset


class PairingError(Exception):
    """The two modalities of a pair do not line up."""


@dataclass
class ImagePair:
    """One aligned modality pair, values in [0, 1]."""
    pair_id: str
    a: np.ndarray                     # (H, W) float64: infrared-like modality
    b: np.ndarray                     # (H, W) float64: visible-like modality
    b_chroma: np.ndarray | None = None  # (2, H, W) Cb/Cr planes of a color b

    def __post_init__(self):
        if self.a.shape != self.b.shape:
            raise PairingError("modalities differ: %r vs %r"
                               % (self.a.shape, self.b.shape))


# ---------------------------------------------------------------------------
# PGM (binary P5)
# ---------------------------------------------------------------------------

def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("unexpected end of PGM header", start)
        return blob[start:pos]

    if token() != b"P5":
        raise ParseError("not a binary P5 PGM", 0)
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise ParseError("non-numeric PGM header field", pos)
    if width < 0 or height < 0:
        raise ParseError("negative PGM size %dx%d" % (width, height), pos)
    if maxval != 255:
        raise ParseError("only 8-bit PGM supported, maxval=%d" % maxval, pos)
    pos += 1   # single whitespace after maxval
    expected = width * height
    raster = blob[pos:pos + expected]
    if len(raster) != expected:
        raise ParseError("PGM raster truncated: want %d bytes, have %d"
                         % (expected, len(raster)), pos + len(raster))
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def _as_u8(img, writer: str) -> np.ndarray:
    """``img`` as uint8; ContractError if the cast would change a value."""
    with np.errstate(invalid="ignore"):     # NaN and Inf fail the compare
        u8 = np.asarray(img, dtype=np.uint8)
    if not np.array_equal(u8, img):
        raise ContractError("%s wants whole values in 0..255" % writer)
    return u8


def write_pgm(path: str, img: np.ndarray) -> None:
    img = _as_u8(img, "write_pgm")
    if img.ndim != 2:
        raise ContractError("write_pgm wants HxW, got %r" % (img.shape,))
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# PNG (8-bit, non-interlaced)
# ---------------------------------------------------------------------------

_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def read_png(path: str) -> np.ndarray:
    """Returns (H, W) for grayscale or (H, W, 3) for color (alpha dropped)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != PNG_SIGNATURE:
        raise ParseError("bad PNG signature", 0)
    pos = 8
    width = height = color_type = None
    idat = bytearray()
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ParseError("truncated chunk header", pos)
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        ctype = blob[pos + 4:pos + 8]
        data = blob[pos + 8:pos + 8 + length]
        if len(data) != length:
            raise ParseError("truncated chunk payload", pos + 8)
        if ctype == b"IHDR":
            if length != 13:
                raise ParseError("IHDR length %d, want 13" % length, pos)
            width, height, depth, color_type, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", data)
            if depth != 8:
                raise ParseError("only 8-bit PNG supported", pos + 8)
            if color_type not in _PNG_CHANNELS:
                raise ParseError("unsupported color type %d" % color_type,
                                 pos + 8)
            if interlace != 0:
                raise ParseError("interlaced PNG not supported", pos + 8)
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if width is None:
        raise ParseError("missing IHDR", 8)
    channels = _PNG_CHANNELS[color_type]
    stride = width * channels
    expected = (stride + 1) * height
    # inflate at most one byte past what IHDR declares, so a small file
    # cannot expand to gigabytes before the size check
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(bytes(idat), min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise ParseError("IDAT decompression failed: %s" % exc, pos) from exc
    if len(raw) > expected:
        raise ParseError("IDAT inflates past the %d bytes IHDR declares"
                         % expected, pos)
    if not inflate.eof:
        raise ParseError("IDAT stream never ends", pos)
    if len(raw) < expected:
        raise ParseError("IDAT inflates to %d bytes, IHDR declares %d"
                         % (len(raw), expected), pos)
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row in range(height):
        offset = row * (stride + 1)
        filter_type = raw[offset]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride,
                             offset=offset + 1).copy()
        out[row] = _unfilter(line, prev, filter_type, channels, offset)
        prev = out[row]
    img = out.reshape(height, width, channels)
    if color_type == 0:
        return img[:, :, 0]
    if color_type == 4:
        return img[:, :, 0]           # gray + alpha: keep gray
    return img[:, :, :3]              # RGB / RGBA: drop alpha


def _unfilter(line, prev, filter_type, bpp, offset):
    if filter_type == 0:
        return line
    if filter_type == 2:               # Up
        return (line.astype(np.int32) + prev).astype(np.uint8)
    out = np.zeros_like(line, dtype=np.int32)
    for i in range(len(line)):
        left = out[i - bpp] if i >= bpp else 0
        up = int(prev[i])
        up_left = int(prev[i - bpp]) if i >= bpp else 0
        if filter_type == 1:           # Sub
            base = left
        elif filter_type == 3:         # Average
            base = (left + up) // 2
        elif filter_type == 4:         # Paeth
            p = left + up - up_left
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - up_left)
            base = left if (pa <= pb and pa <= pc) else (up if pb <= pc
                                                         else up_left)
        else:
            raise ParseError("unknown PNG filter %d" % filter_type, offset)
        out[i] = (int(line[i]) + base) & 0xFF
    return out.astype(np.uint8)


def _chunk(ctype: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + ctype + data \
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)


def write_png(path: str, img: np.ndarray) -> None:
    """Write 8-bit grayscale (H, W) or RGB (H, W, 3)."""
    img = _as_u8(img, "write_png")
    if img.ndim == 2:
        color_type, channels = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ContractError("write_png wants HxW or HxWx3, got %r" % (img.shape,))
    height, width = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    flat = img.reshape(height, width * channels)
    raw = b"".join(b"\x00" + flat[row].tobytes() for row in range(height))
    with open(path, "wb") as fh:
        fh.write(PNG_SIGNATURE)
        fh.write(_chunk(b"IHDR", ihdr))
        fh.write(_chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(_chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# colorspace
# ---------------------------------------------------------------------------

def rgb_to_ycbcr(rgb: np.ndarray):
    """Full-range BT.601; returns (y, cb, cr) float64 planes on 0..255."""
    r = rgb[:, :, 0].astype(np.float64)
    g = rgb[:, :, 1].astype(np.float64)
    b = rgb[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return y, cb, cr


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# pairs and crops
# ---------------------------------------------------------------------------

def _read_image(path: str):
    """Returns (gray float64 in [0,1], chroma (2,H,W) or None)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        return read_pgm(path).astype(np.float64) / 255.0, None
    if ext == ".png":
        img = read_png(path)
        if img.ndim == 2:
            return img.astype(np.float64) / 255.0, None
        y, cb, cr = rgb_to_ycbcr(img)
        return y / 255.0, np.stack([cb, cr])
    raise ParseError("unsupported image extension %r" % ext, 0)


def load_pair(path_a: str, path_b: str, pair_id: str | None = None) -> ImagePair:
    """Load one aligned pair; color in the visible slot keeps its chroma."""
    gray_a, _ = _read_image(path_a)            # infrared-like: luma only
    gray_b, chroma_b = _read_image(path_b)
    if pair_id is None:
        pair_id = os.path.splitext(os.path.basename(path_a))[0]
        if pair_id.endswith("_a"):
            pair_id = pair_id[:-2]
    return ImagePair(pair_id, gray_a, gray_b, chroma_b)


def load_dataset(directory: str) -> list[ImagePair]:
    """All ``<id>_a.*`` / ``<id>_b.*`` pairs in a directory, sorted by id.

    Two files for one side of a pair (``x_a.pgm`` and ``x_a.png``) are a
    ``PairingError``."""
    stems: dict[str, dict[str, str]] = {}
    for name in sorted(os.listdir(directory)):
        stem, ext = os.path.splitext(name)
        if ext.lower() not in (".pgm", ".png") or len(stem) < 2:
            continue
        if stem.endswith("_a") or stem.endswith("_b"):
            sides = stems.setdefault(stem[:-2], {})
            path = os.path.join(directory, name)
            if stem[-1] in sides:
                raise PairingError("two files for %r: %r and %r"
                                   % (stem, sides[stem[-1]], path))
            sides[stem[-1]] = path
    pairs = []
    for pair_id in sorted(stems):
        sides = stems[pair_id]
        if "a" in sides and "b" in sides:
            pairs.append(load_pair(sides["a"], sides["b"], pair_id))
    if not pairs:
        raise PairingError("no image pairs found in %r" % directory)
    return pairs


def crop_sampler(pair: ImagePair, size: int,
                 rng: np.random.Generator) -> ImagePair:
    """One random crop window applied identically to both modalities."""
    h, w = pair.a.shape
    if size > h or size > w:
        raise ContractError("crop %d exceeds image %dx%d" % (size, h, w))
    top = int(rng.integers(0, h - size + 1))
    left = int(rng.integers(0, w - size + 1))
    chroma = pair.b_chroma[:, top:top + size, left:left + size].copy() \
        if pair.b_chroma is not None else None
    return ImagePair(pair.pair_id,
                     pair.a[top:top + size, left:left + size].copy(),
                     pair.b[top:top + size, left:left + size].copy(),
                     chroma)


def save_gray(path: str, img_u8: np.ndarray) -> None:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        write_pgm(path, img_u8)
    elif ext == ".png":
        write_png(path, img_u8)
    else:
        raise ContractError("unsupported output extension %r" % ext)
