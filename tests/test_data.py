"""Image IO: PGM/PNG codecs, pairing rules, crop sampling."""

import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuse import data
from dualfuse.autodiff import ContractError
from dualfuse.data import ImagePair, PairingError, ParseError

from conftest import assert_close


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_pgm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (13, 9)).astype(np.uint8)
    path = str(tmp_path / "x.pgm")
    data.write_pgm(path, img)
    back = data.read_pgm(path)
    assert np.array_equal(img, back)


@pytest.mark.parametrize("writer,img", [
    (data.write_pgm, np.zeros((4, 5, 3), dtype=np.uint8)),   # not 2-D
    (data.write_pgm, np.full((4, 5), 0.9)),                  # a fraction
    (data.write_png, np.full((4, 5), 300.0)),                # above 255
    (data.write_png, np.full((4, 5), -1)),                   # below 0
    (data.write_pgm, np.full((4, 5), np.nan)),               # not a number
    (data.write_png, np.full((4, 5), np.inf)),               # infinite
])
def test_writers_refuse_what_uint8_would_change(tmp_path, writer, img):
    path = str(tmp_path / "x")
    with pytest.raises(ContractError):
        writer(path, img)
    assert not os.path.exists(path)


def test_pgm_with_comment(tmp_path):
    path = str(tmp_path / "c.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n3 2\n255\n" + bytes(6))
    assert data.read_pgm(path).shape == (2, 3)


def test_pgm_truncated_raster_reports_offset(tmp_path):
    path = str(tmp_path / "t.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + bytes(7))     # 9 bytes short
    with pytest.raises(ParseError, match="byte offset"):
        data.read_pgm(path)


def test_pgm_negative_size(tmp_path):
    path = str(tmp_path / "n.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n-1 -1\n255\n" + bytes(4))
    with pytest.raises(ParseError, match="negative"):
        data.read_pgm(path)


def test_pgm_wrong_magic(tmp_path):
    path = str(tmp_path / "w.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ParseError):
        data.read_pgm(path)


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

def test_png_gray_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (11, 17)).astype(np.uint8)
    path = str(tmp_path / "g.png")
    data.write_png(path, img)
    assert np.array_equal(data.read_png(path), img)


def test_png_rgb_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (7, 5, 3)).astype(np.uint8)
    path = str(tmp_path / "c.png")
    data.write_png(path, img)
    assert np.array_equal(data.read_png(path), img)


def _filter_row(filter_type, row, prev, bpp):
    """Forward-apply a PNG filter (encoder side) for decoder testing."""
    out = np.zeros_like(row, dtype=np.int32)
    for i in range(len(row)):
        left = int(row[i - bpp]) if i >= bpp else 0
        up = int(prev[i])
        up_left = int(prev[i - bpp]) if i >= bpp else 0
        if filter_type == 0:
            base = 0
        elif filter_type == 1:
            base = left
        elif filter_type == 2:
            base = up
        elif filter_type == 3:
            base = (left + up) // 2
        else:
            p = left + up - up_left
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - up_left)
            base = left if (pa <= pb and pa <= pc) else (up if pb <= pc
                                                         else up_left)
        out[i] = (int(row[i]) - base) & 0xFF
    return out.astype(np.uint8)


def test_png_decoder_handles_all_filters(tmp_path, rng):
    # one row per filter type, gray (1 byte per pixel) and RGB (3)
    for color_type, shape in ((0, (5, 6)), (2, (5, 6, 3))):
        img = rng.integers(0, 256, shape).astype(np.uint8)
        rows = img.reshape(5, -1)
        raw = bytearray()
        prev = np.zeros(rows.shape[1], dtype=np.uint8)
        for row, filter_type in zip(rows, [0, 1, 2, 3, 4]):
            raw.append(filter_type)
            raw.extend(_filter_row(filter_type, row, prev, len(row) // 6).tobytes())
            prev = row
        ihdr = struct.pack(">IIBBBBB", 6, 5, 8, color_type, 0, 0, 0)
        path = str(tmp_path / ("f%d.png" % color_type))
        with open(path, "wb") as fh:
            fh.write(data.PNG_SIGNATURE)
            fh.write(data._chunk(b"IHDR", ihdr))
            fh.write(data._chunk(b"IDAT", zlib.compress(bytes(raw))))
            fh.write(data._chunk(b"IEND", b""))
        assert np.array_equal(data.read_png(path), img)


def test_png_short_ihdr(tmp_path):
    path = str(tmp_path / "s.png")
    data.write_png(path, np.zeros((3, 4), dtype=np.uint8))
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[11] = 12                       # IHDR length field: 13 -> 12
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(ParseError, match="IHDR"):
        data.read_png(path)


def test_png_bad_signature(tmp_path):
    path = str(tmp_path / "bad.png")
    with open(path, "wb") as fh:
        fh.write(b"NOTPNG!!rest")
    with pytest.raises(ParseError):
        data.read_png(path)


def _write_1x1_gray_png(path, idat):
    with open(path, "wb") as fh:
        fh.write(data.PNG_SIGNATURE)
        fh.write(data._chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)))
        fh.write(data._chunk(b"IDAT", idat))
        fh.write(data._chunk(b"IEND", b""))


def test_png_idat_bomb_is_rejected_without_inflating(tmp_path):
    # about 64 KB of IDAT that inflates to 64 MB; IHDR declares 2 bytes
    deflate = zlib.compressobj(9)
    block = bytes(1 << 20)
    idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
    path = str(tmp_path / "bomb.png")
    _write_1x1_gray_png(path, idat)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="past the 2 bytes"):
            data.read_png(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("idat,match", [
    (zlib.compress(b"\x00"), "inflates to 1 bytes, IHDR declares 2"),
    (zlib.compress(b"\x00\x07")[:-4], "never ends"),
], ids=["short", "unterminated"])
def test_png_idat_of_the_wrong_length_is_rejected(tmp_path, idat, match):
    path = str(tmp_path / "short.png")
    _write_1x1_gray_png(path, idat)
    with pytest.raises(ParseError, match=match):
        data.read_png(path)


# ---------------------------------------------------------------------------
# fuzzing: on any bytes a reader returns an image or raises ParseError
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def image_blobs(tmp_path_factory):
    rng = np.random.default_rng(5)
    folder = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for name, writer, img in [
            ("x.pgm", data.write_pgm, rng.integers(0, 256, (3, 4))),
            ("gray.png", data.write_png, rng.integers(0, 256, (3, 4))),
            ("rgb.png", data.write_png, rng.integers(0, 256, (2, 3, 3)))]:
        path = str(folder / name)
        writer(path, img.astype(np.uint8))
        with open(path, "rb") as fh:
            blobs[name] = path, fh.read()
    return blobs


def _decode_mutated(data_st, path, blob, reader):
    # the headers sit in the first 40 bytes (PNG: signature and IHDR), so
    # half the overwrites land there, half of them with header text bytes
    where = st.one_of(st.integers(0, min(40, len(blob) - 1)),
                      st.integers(0, len(blob) - 1))
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b"-+0123456789 \n"))
    edits = data_st.draw(st.lists(st.tuples(where, byte), max_size=3))
    mutated = bytearray(blob)
    for pos, value in edits:
        mutated[pos] = value
    cut = data_st.draw(st.one_of(st.just(len(blob)),
                                 st.integers(0, len(blob))))
    with open(path, "wb") as fh:
        fh.write(mutated[:cut])
    try:
        img = reader(path)
    except ParseError:
        return
    assert isinstance(img, np.ndarray) and img.dtype == np.uint8


@settings(max_examples=500, deadline=None)
@given(data_st=st.data())
def test_mutated_pgm_decodes_or_raises_parse_error(image_blobs, data_st):
    _decode_mutated(data_st, *image_blobs["x.pgm"], data.read_pgm)


@settings(max_examples=500, deadline=None)
@given(data_st=st.data(), name=st.sampled_from(["gray.png", "rgb.png"]))
def test_mutated_png_decodes_or_raises_parse_error(image_blobs, data_st, name):
    _decode_mutated(data_st, *image_blobs[name], data.read_png)


# ---------------------------------------------------------------------------
# colorspace
# ---------------------------------------------------------------------------

def test_ycbcr_round_trip(rng):
    rgb = rng.integers(0, 256, (9, 9, 3)).astype(np.uint8)
    y, cb, cr = data.rgb_to_ycbcr(rgb)
    back = data.ycbcr_to_rgb(y, cb, cr)
    assert np.max(np.abs(back.astype(int) - rgb.astype(int))) <= 1


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def test_load_pair_gray(tmp_path, rng):
    a = rng.integers(0, 256, (64, 64)).astype(np.uint8)
    b = rng.integers(0, 256, (64, 64)).astype(np.uint8)
    pa, pb = str(tmp_path / "x_a.pgm"), str(tmp_path / "x_b.pgm")
    data.write_pgm(pa, a)
    data.write_pgm(pb, b)
    pair = data.load_pair(pa, pb)
    assert pair.pair_id == "x"
    assert pair.a.shape == (64, 64)
    assert pair.b_chroma is None
    assert 0.0 <= pair.a.min() and pair.a.max() <= 1.0


def test_load_pair_color_visible_keeps_chroma(tmp_path, rng):
    a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    b_rgb = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
    pa, pb = str(tmp_path / "y_a.pgm"), str(tmp_path / "y_b.png")
    data.write_pgm(pa, a)
    data.write_png(pb, b_rgb)
    pair = data.load_pair(pa, pb)
    assert pair.b_chroma is not None and pair.b_chroma.shape == (2, 16, 16)
    y_expect, _, _ = data.rgb_to_ycbcr(b_rgb)
    assert_close(pair.b, y_expect / 255.0, tol=1e-12)


def test_load_pair_size_mismatch(tmp_path, rng):
    data.write_pgm(str(tmp_path / "z_a.pgm"),
                   rng.integers(0, 256, (64, 64)).astype(np.uint8))
    data.write_pgm(str(tmp_path / "z_b.pgm"),
                   rng.integers(0, 256, (32, 32)).astype(np.uint8))
    with pytest.raises(PairingError):
        data.load_pair(str(tmp_path / "z_a.pgm"), str(tmp_path / "z_b.pgm"))


def test_load_dataset(tmp_path, rng):
    for i in range(3):
        for side in "ab":
            data.write_pgm(str(tmp_path / ("p%d_%s.pgm" % (i, side))),
                           rng.integers(0, 256, (20, 20)).astype(np.uint8))
    pairs = data.load_dataset(str(tmp_path))
    assert [p.pair_id for p in pairs] == ["p0", "p1", "p2"]
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(PairingError):
        data.load_dataset(str(empty))


def test_load_dataset_rejects_two_files_for_one_side(tmp_path, rng):
    img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
    for name in ("x_a.pgm", "x_a.png", "x_b.pgm"):
        if name.endswith(".png"):
            data.write_png(str(tmp_path / name), img)
        else:
            data.write_pgm(str(tmp_path / name), img)
    with pytest.raises(PairingError) as info:
        data.load_dataset(str(tmp_path))
    assert "x_a.pgm" in str(info.value) and "x_a.png" in str(info.value)


# ---------------------------------------------------------------------------
# crops
# ---------------------------------------------------------------------------

def make_pair(rng, h=40, w=40):
    return ImagePair("p", rng.random((h, w)), rng.random((h, w)))


def test_identity_crop(rng):
    pair = make_pair(rng, 32, 32)
    crop = data.crop_sampler(pair, 32, np.random.default_rng(0))
    assert np.array_equal(crop.a, pair.a)
    assert np.array_equal(crop.b, pair.b)


def test_crop_windows_align_across_modalities(rng):
    base = rng.random((40, 40))
    pair = ImagePair("p", base, base + 0.0)
    crop = data.crop_sampler(pair, 16, np.random.default_rng(3))
    assert np.array_equal(crop.a, crop.b)


def test_crop_sequence_deterministic(rng):
    pair = make_pair(rng)

    def run(seed):
        gen = np.random.default_rng(seed)
        return [data.crop_sampler(pair, 32, gen).a.tobytes()
                for _ in range(20)]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_crop_coverage(rng):
    pair = make_pair(rng)           # 40x40, crop 32: 9x9 distinct offsets
    gen = np.random.default_rng(11)
    seen = set()
    base = pair.a
    for _ in range(1000):
        crop = data.crop_sampler(pair, 32, gen)
        # recover the offset from the corner value
        corner = crop.a[0, 0]
        pos = np.argwhere(base == corner)[0]
        seen.add((int(pos[0]), int(pos[1])))
    assert len(seen) > 0.9 * 81


def test_oversize_crop_rejected(rng):
    with pytest.raises(ContractError):
        data.crop_sampler(make_pair(rng, 20, 20), 32, np.random.default_rng(0))
