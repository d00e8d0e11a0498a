import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import fail_raster_module_writes

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    RasterError,
    TamperMask,
    read_raster,
    tile,
    write_mask_pgm,
    write_raster,
)
from sarfx.cli import main
from sarfx.raster import HEADER_SIZE, read_header


def test_write_raster_payload_equals_astype_tobytes(tmp_path):
    # planes go to the file as they are; the bytes must equal the old converted copies,
    # also for images built from non-contiguous views
    rng = np.random.default_rng(11)
    z = rng.standard_normal((9, 14)) + 1j * rng.standard_normal((9, 14))
    cases = [
        (AmplitudeImage(rng.uniform(0, 9, (20, 30))[::2, ::3], 12), lambda im: [im.values], "<f8"),
        (AmplitudeImage(rng.uniform(0, 9, (6, 5)).T), lambda im: [im.values], "<f8"),
        (ComplexImage(z), lambda im: [im.values.real, im.values.imag], "<f8"),
        (TamperMask((rng.random((13, 8)) < 0.5).astype(np.int64).T), lambda im: [im.values],
         np.uint8),
    ]
    for k, (image, planes, dtype) in enumerate(cases):
        path = tmp_path / f"{k}.sarf"
        write_raster(image, path)
        payload = b"".join(plane.astype(dtype).tobytes() for plane in planes(image))
        assert path.read_bytes()[HEADER_SIZE:] == payload


def test_amplitude_round_trip_constant(tmp_path):
    image = AmplitudeImage(np.full((4, 4), 7.0))
    path = tmp_path / "a.sarf"
    write_raster(image, path)
    back = read_raster(path)
    assert isinstance(back, AmplitudeImage)
    assert np.array_equal(back.values, image.values)
    assert back.dynamic_range_bits == 16


def test_payload_size_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.sarf"
    header = struct.pack("<4sBB10xQQ", b"SARF", 1, 16, 4, 4)
    payload = np.arange(15, dtype="<f8").tobytes()  # header implies 16 values
    path.write_bytes(header + payload)
    with pytest.raises(RasterError, match="size mismatch"):
        read_raster(path)


def test_complex_round_trip_indexed_planes(tmp_path):
    cols, rows = np.meshgrid(np.arange(5, dtype=float), np.arange(3, dtype=float))
    image = ComplexImage(cols + 1j * rows)
    path = tmp_path / "c.sarf"
    write_raster(image, path)
    back = read_raster(path)
    assert isinstance(back, ComplexImage)
    # elementwise comparison against the constructed planes
    for i in range(3):
        for j in range(5):
            assert back.values.real[i, j] == j
            assert back.values.imag[i, j] == i


def test_single_pixel_file_layout(tmp_path):
    path = tmp_path / "one.sarf"
    write_raster(AmplitudeImage(np.zeros((1, 1))), path)
    assert path.stat().st_size == HEADER_SIZE + 8


def test_mask_payload_bytes(tmp_path):
    path = tmp_path / "m.sarf"
    write_raster(TamperMask(np.ones((2, 2), dtype=np.uint8)), path)
    assert path.read_bytes()[HEADER_SIZE:] == b"\x01\x01\x01\x01"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_bit_exact_all_kinds(tmp_path, seed):
    rng = np.random.default_rng(seed)
    images = [
        AmplitudeImage(rng.uniform(0, 60000, (7, 11)), dynamic_range_bits=16),
        ComplexImage(rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))),
        TamperMask((rng.random((5, 9)) > 0.5).astype(np.uint8)),
    ]
    for k, image in enumerate(images):
        path = tmp_path / f"rt{k}.sarf"
        write_raster(image, path)
        assert np.array_equal(read_raster(path).values, image.values)


def test_complex_round_trip_keeps_signed_zeros(tmp_path):
    # the plane read back is filled part by part: re + 1j*im would turn a -0.0
    # real part beside a +0.0 imaginary one into +0.0
    z = np.empty((2, 3), np.complex128)
    z.real = [[-0.0, 0.0, -0.0], [1.5, -0.0, -2.0]]
    z.imag = [[0.0, -0.0, -0.0], [-0.0, 3.0, 0.0]]
    path = tmp_path / "z.sarf"
    write_raster(ComplexImage(z), path)
    back = read_raster(path)
    assert back.values.tobytes() == z.tobytes()
    write_raster(back, tmp_path / "again.sarf")
    assert (tmp_path / "again.sarf").read_bytes() == path.read_bytes()


def test_header_validation(tmp_path):
    path = tmp_path / "x.sarf"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(RasterError, match="magic"):
        read_header(path)
    path.write_bytes(bytes(10))
    with pytest.raises(RasterError, match="truncated"):
        read_header(path)
    path.write_bytes(struct.pack("<4sBB10xQQ", b"SARF", 9, 0, 2, 2) + bytes(4))
    with pytest.raises(RasterError, match="unknown kind"):
        read_header(path)


def test_failed_write_leaves_no_partial_or_temp_file(tmp_path, monkeypatch):
    kept = tmp_path / "kept.sarf"
    write_raster(AmplitudeImage(np.full((4, 5), 3.0)), kept)
    before = kept.read_bytes()
    fail_raster_module_writes(monkeypatch)
    for path in (kept, tmp_path / "new.sarf"):
        with pytest.raises(OSError, match="No space left"):
            write_raster(AmplitudeImage(np.full((4, 5), 9.0)), path)
    assert kept.read_bytes() == before  # the old file survives a failed overwrite
    assert [p.name for p in tmp_path.iterdir()] == ["kept.sarf"]


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "nan.sarf"
    header = struct.pack("<4sBB10xQQ", b"SARF", 1, 16, 2, 2)
    payload = np.array([1.0, np.nan, 2.0, 3.0], dtype="<f8").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(RasterError, match="NaN"):
        read_raster(path)


def test_invariant_enforcement():
    with pytest.raises(RasterError):
        AmplitudeImage(np.array([[-1.0, 2.0]]))
    with pytest.raises(RasterError):
        AmplitudeImage(np.array([[np.inf, 2.0]]))
    with pytest.raises(RasterError):
        ComplexImage(np.array([[1.0 + 1.0j, np.nan]]))
    with pytest.raises(RasterError):
        TamperMask(np.array([[0, 2]]))
    with pytest.raises(RasterError):
        AmplitudeImage(np.zeros((0, 4)))


def test_images_are_immutable():
    image = AmplitudeImage(np.ones((2, 2)))
    with pytest.raises(ValueError):
        image.values[0, 0] = 5.0


@pytest.mark.parametrize("shape", [(8, 8), (7, 9), (1, 6), (5, 1)])
def test_complex_image_holds_one_plane(shape):
    # one read-only complex128 plane; |z| is np.abs of it, within 2 ulps of the
    # hypot of its parts (over 1024² planes 35% of values differ, 0.14% by two)
    rng = np.random.default_rng(sum(shape))
    re, im = rng.standard_normal((2, *shape))
    image = ComplexImage(re + 1j * im)
    z = image.values
    assert z.dtype == np.complex128 and z.flags.c_contiguous and not z.flags.writeable
    assert image.shape == shape and np.array_equal(z, re + 1j * im)
    assert np.array_equal(image.amplitude().values, np.abs(re + 1j * im))
    hypot = np.hypot(re, im)
    assert np.all(np.abs(image.amplitude().values - hypot) <= 2 * np.spacing(hypot))
    assert np.array_equal(ComplexImage(re).values, re + 0j)  # a real plane gains a zero imaginary part


def test_complex_image_copies_unless_told_to_hold():
    z = np.random.default_rng(4).standard_normal((5, 6)) + 0j
    copied = ComplexImage(z)
    assert not np.shares_memory(copied.values, z) and z.flags.writeable
    held = ComplexImage(z, copy=False)
    assert held.values is z and not z.flags.writeable


def test_images_do_not_share_a_callers_arrays():
    # every constructor copies what a caller passes: writing to those arrays
    # afterwards leaves the image as it was
    rng = np.random.default_rng(5)
    values, real, imag = rng.uniform(1.0, 2.0, (3, 6, 7))
    z = real + 1j * imag
    mask = (values > 1.5).astype(np.uint8)
    images = [AmplitudeImage(values), ComplexImage(real), ComplexImage(z), TamperMask(mask)]

    def planes():
        return [np.copy(image.values) for image in images]

    before = planes()
    for arr in (values, real, z):
        arr[...] = -7.0
    mask ^= 1
    assert all(np.array_equal(a, b) for a, b in zip(planes(), before, strict=True))


def test_amplitude_extraction_nonnegative():
    rng = np.random.default_rng(7)
    image = ComplexImage(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    amp = image.amplitude()
    assert np.all(amp.values >= 0)
    assert np.allclose(amp.values, np.abs(image.values))


def test_quantized_export_range():
    ok = AmplitudeImage(np.array([[0.0, 65535.0]]), dynamic_range_bits=16)
    assert ok.quantized().dtype == np.uint16
    too_big = AmplitudeImage(np.array([[70000.0]]), dynamic_range_bits=16)
    with pytest.raises(RasterError, match="exceed"):
        too_big.quantized()


@pytest.mark.parametrize("bits, dtype", [(17, np.uint32), (32, np.uint32), (33, np.uint64),
                                         (48, np.uint64), (64, np.uint64)])
def test_quantized_export_keeps_deep_values(bits, dtype):
    top = float(2**bits - 1) if bits <= 53 else np.nextafter(2.0**bits, 0.0)
    values = np.array([[0.0, 2.0**16, min(2.0**40, top), top]])
    out = AmplitudeImage(values, dynamic_range_bits=bits).quantized()
    assert out.dtype == dtype
    assert out.tolist() == [[0, 2**16, min(2**40, int(top)), int(top)]]


@pytest.mark.parametrize("bits", [48, 53, 54, 64])
def test_quantized_export_rejects_values_past_full_scale(bits):
    # at 64 bits float(2**64 - 1) is 2**64, which uint64 cannot hold
    with pytest.raises(RasterError, match="exceed"):
        AmplitudeImage(np.array([[2.0**bits]]), dynamic_range_bits=bits).quantized()


def test_mask_pgm_export(tmp_path):
    mask = TamperMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    path = tmp_path / "m.pgm"
    write_mask_pgm(mask, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[-4:] == bytes([255, 0, 0, 255])


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------


def test_tile_2048_gives_nine_tiles():
    image = AmplitudeImage(np.zeros((2048, 2048)))
    tiles = tile(image, 1024, 512)
    assert len(tiles) == 9
    offsets = {(r, c) for _, r, c in tiles}
    assert offsets == {(r, c) for r in (0, 512, 1024) for c in (0, 512, 1024)}


def test_tile_exact_fit_single_tile():
    image = AmplitudeImage(np.zeros((1024, 1024)))
    tiles = tile(image, 1024, 512)
    assert len(tiles) == 1
    assert (tiles[0][1], tiles[0][2]) == (0, 0)


def test_tile_count_matches_enumeration_oracle():
    image = AmplitudeImage(np.zeros((1536, 2048)))
    tiles = tile(image, 1024, 512)
    assert len(tiles) == 6  # 2 x 3

    # oracle: exhaustively enumerate every in-bounds stride-aligned offset
    stride = 1024 - 512
    expected = {
        (r, c)
        for r in range(0, 1536, stride)
        for c in range(0, 2048, stride)
        if r + 1024 <= 1536 and c + 1024 <= 2048
    }
    assert {(r, c) for _, r, c in tiles} == expected


def test_tiles_lie_inside_and_share_overlap():
    rng = np.random.default_rng(3)
    image = AmplitudeImage(rng.uniform(0, 10, (64, 80)))
    tiles = tile(image, 32, 8)
    for piece, r, c in tiles:
        assert piece.shape == (32, 32)
        assert 0 <= r and r + 32 <= 64 and 0 <= c and c + 32 <= 80
        assert np.array_equal(piece.values, image.values[r : r + 32, c : c + 32])
    # horizontally adjacent tiles share exactly `overlap` columns
    first, second = tiles[0][0], tiles[1][0]
    assert np.array_equal(first.values[:, -8:], second.values[:, :8])


def test_tile_preserves_kind_and_errors():
    mask = TamperMask(np.ones((8, 8), dtype=np.uint8))
    pieces = tile(mask, 4, 0)
    assert all(isinstance(p, TamperMask) for p, _, _ in pieces)

    rng = np.random.default_rng(11)
    signal = ComplexImage(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    piece, r, c = tile(signal, 4, 2)[1]
    assert isinstance(piece, ComplexImage)
    assert np.array_equal(piece.values, signal.values[r : r + 4, c : c + 4])

    with pytest.raises(RasterError, match="exceeds"):
        tile(mask, 16, 0)
    with pytest.raises(RasterError, match="overlap"):
        tile(mask, 4, 4)


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------

_ITEM_BYTES = {1: 8, 2: 16, 3: 1}


def _container(kind=1, bits=16, height=3, width=4, payload=None) -> bytes:
    """Header plus payload; the payload defaults to valid values of ``kind``."""
    if payload is None:
        n = height * width
        payload = bytes(n) if kind == 3 else np.ones(n * _ITEM_BYTES[kind] // 8, "<f8").tobytes()
    return struct.pack("<4sBB10xQQ", b"SARF", kind, bits, height, width) + payload


def _set_item(data: bytes, index: int, value) -> bytes:
    """``data`` with one payload item (a float64, or a byte for a mask) replaced."""
    if isinstance(value, int):
        item = bytes([value])
    else:
        item = struct.pack("<d", value)
    start = HEADER_SIZE + index * len(item)
    return data[:start] + item + data[start + len(item):]


_DIMS = st.integers(1, 6)
_HUGE = st.integers(2**32, 2**64 - 1) | st.just(2**63)


@st.composite
def malformed_containers(draw):
    """A container with one defect that reading must reject."""
    kind = draw(st.sampled_from([1, 2, 3]))
    height, width = draw(_DIMS), draw(_DIMS)
    valid = _container(kind, 16, height, width)
    n_items = height * width * (2 if kind == 2 else 1)
    defect = draw(st.sampled_from([
        "truncated-header", "short-payload", "long-payload", "bad-magic", "bad-kind",
        "zero-dimension", "huge-dimensions", "bad-bits", "nonfinite", "negative", "mask-byte",
    ]))
    if defect == "truncated-header":
        return valid[:draw(st.integers(0, HEADER_SIZE - 1))]
    if defect == "short-payload":
        return valid[:draw(st.integers(HEADER_SIZE, len(valid) - 1))]
    if defect == "long-payload":
        return valid + draw(st.binary(min_size=1, max_size=40))
    if defect == "bad-magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"SARF"))
        return magic + valid[4:]
    if defect == "bad-kind":
        bad = draw(st.integers(0, 255).filter(lambda k: k not in _ITEM_BYTES))
        return valid[:4] + bytes([bad]) + valid[5:]
    if defect == "zero-dimension":
        height, width = draw(st.sampled_from([(0, width), (height, 0), (0, 0)]))
        return _container(kind, 16, height, width, payload=valid[HEADER_SIZE:])
    if defect == "huge-dimensions":
        height, width = draw(_HUGE), draw(_HUGE | _DIMS)
        return _container(kind, 16, height, width, payload=valid[HEADER_SIZE:])
    index = draw(st.integers(0, height * width - 1))
    amplitude = _container(1, 16, height, width)
    if defect == "bad-bits":
        return _container(1, draw(st.integers(65, 255)), height, width)
    if defect == "nonfinite":
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if kind == 2:
            return _set_item(valid, draw(st.integers(0, n_items - 1)), value)
        return _set_item(amplitude, index, value)
    if defect == "negative":
        return _set_item(amplitude, index, -draw(st.floats(1e-300, 1e300)))
    return _set_item(_container(3, 0, height, width), index, draw(st.integers(2, 255)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_containers())
def test_malformed_container_is_rejected_naming_the_path(tmp_path, data):
    path = tmp_path / "fuzz.sarf"
    path.write_bytes(data)
    with pytest.raises((RasterError, OSError)) as excinfo:
        read_raster(path)
    assert str(path) in str(excinfo.value)


_SPECTRUM = ["spectrum", "--input", "{bad}"]
_METRICS_MASK = ["metrics", "--a", "{ok}", "--b", "{ok}", "--fingerprint", "{ok}", "--mask", "{bad}"]


@pytest.mark.parametrize("data, message, argv", [
    (_container()[:20], "truncated header (20 bytes)", _SPECTRUM),
    (_container(kind=7, payload=bytes(96)), "unknown kind 7", _SPECTRUM),
    (_container(height=2**63, width=2**63, payload=bytes(96)),
     f"payload size mismatch (got 96 bytes, header implies {2**129})", _SPECTRUM),
    (_container(bits=200), "unsupported dynamic_range_bits 200", _SPECTRUM),
    (_set_item(_container(), 5, -2.0), "amplitude values must be nonnegative", _SPECTRUM),
    (_set_item(_container(kind=3), 2, 7), "mask values must be exactly 0 or 1", _METRICS_MASK),  # read as a mask
], ids=["truncated-header", "bad-kind", "huge-dimensions", "bad-bits", "negative", "mask-byte"])
def test_cli_malformed_input_is_one_error_line(tmp_path, capsys, data, message, argv):
    path, ok = tmp_path / "bad.sarf", tmp_path / "ok.sarf"
    path.write_bytes(data)
    ok.write_bytes(_container())
    assert main([arg.format(bad=path, ok=ok) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sarfx: error: {path}: {message}\n"
