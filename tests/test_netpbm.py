import time

import numpy as np
import pytest

from rdhkit import netpbm
from rdhkit.errors import (
    BadImageMagic,
    BadMaxval,
    FormatError,
    KeyEncodingError,
    MalformedHeader,
    TruncatedFile,
)

MINIMAL = b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"


def test_load_minimal_file():
    img, nonce = netpbm.load_ppm(MINIMAL)
    assert img.shape == (1, 2, 3)
    assert tuple(img[0, 0]) == (1, 2, 3)
    assert tuple(img[0, 1]) == (4, 5, 6)
    assert nonce is None


def test_load_nonce_comment():
    data = b"P6\n# RDHCTR 00000000000000ff\n2 1\n255\n\x01\x02\x03\x04\x05\x06"
    img, nonce = netpbm.load_ppm(data)
    assert nonce == 255
    assert tuple(img[0, 0]) == (1, 2, 3)


def test_other_comments_are_skipped_without_nonce():
    data = b"P6\n# just a note\n2 1\n255\n\x01\x02\x03\x04\x05\x06"
    img, nonce = netpbm.load_ppm(data)
    assert nonce is None
    assert img.shape == (1, 2, 3)


def test_nonce_comment_only_counts_right_after_magic():
    data = b"P6\n2\n# RDHCTR 00000000000000ff\n1\n255\n\x01\x02\x03\x04\x05\x06"
    _, nonce = netpbm.load_ppm(data)
    assert nonce is None


def test_comment_that_merely_resembles_a_nonce_is_ignored():
    data = b"P6\n# RDHCTR zz\n2 1\n255\n\x01\x02\x03\x04\x05\x06"
    img, nonce = netpbm.load_ppm(data)
    assert nonce is None
    assert img.shape == (1, 2, 3)


def test_bad_magic():
    with pytest.raises(BadImageMagic):
        netpbm.load_ppm(b"P5\n2 1\n255\n\x00\x00")


def test_bad_maxval():
    with pytest.raises(BadMaxval):
        netpbm.load_ppm(b"P6\n2 1\n65535\n" + bytes(12))


def test_truncated_raster():
    with pytest.raises(TruncatedFile):
        netpbm.load_ppm(MINIMAL[:-1])


def test_trailing_bytes_rejected():
    with pytest.raises(MalformedHeader):
        netpbm.load_ppm(MINIMAL + b"\n")


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"P6",
        b"P6\n",
        b"P6\nx 1\n255\n" + bytes(6),
        b"P6\n2 -1\n255\n",
        b"P6\n0 1\n255\n",
        b"P6\n2 1\n",
        b"P6\n2 1 255",
        b"P6\n2\n255\n" + bytes(6),
        b"P6 2 1 255" + bytes(6),
        b"P6\n999999999999999999999999 1\n255\n",
    ],
)
def test_malformed_headers_raise_format_errors(data):
    with pytest.raises(FormatError):
        netpbm.load_ppm(data)


def test_header_fuzz_never_crashes():
    rng = np.random.default_rng(47)
    base = bytearray(MINIMAL)
    for _ in range(500):
        mutated = bytearray(base)
        for _ in range(rng.integers(1, 4)):
            mutated[rng.integers(0, len(mutated))] = rng.integers(0, 256)
        try:
            netpbm.load_ppm(bytes(mutated))
        except FormatError:
            pass  # any structured rejection is fine; crashes are not


DIGIT_LIMIT = 4300  # CPython's default cap on the digits int() reads


@pytest.mark.parametrize(
    "data,expected",
    [
        (b"P6 " + b"1" * (DIGIT_LIMIT + 1) + b" 1 255 ", MalformedHeader),
        (b"P6 1 " + b"1" * (DIGIT_LIMIT + 1) + b" 255 ", MalformedHeader),
        (b"P6 1 1 " + b"1" * (DIGIT_LIMIT + 1) + b" ", MalformedHeader),
        (b"P6 " + b"0" * DIGIT_LIMIT + b"1 1 255 \x01\x02\x03", (1, 1, 3)),  # zero-padded 1
        (b"P6 1 1 0" + b"0" * DIGIT_LIMIT + b"255 \x01\x02\x03", (1, 1, 3)),
        (b"P6 " + b"0" * (DIGIT_LIMIT + 1) + b" 1 255 ", MalformedHeader),  # zero
        (b"P6 " + b"1" * DIGIT_LIMIT + b" 1 255 ", TruncatedFile),  # int() reads it
        # the raster's byte count has more digits than str() writes
        (b"P6 " + b"9" * DIGIT_LIMIT + b" 1 255 ", TruncatedFile),
        (b"P6 " + b"9" * 2200 + b" " + b"9" * 2200 + b" 255 ", TruncatedFile),
    ],
    ids=[
        "long-width", "long-height", "long-maxval", "zero-padded-width", "zero-padded-maxval",
        "long-zero", "4300-ones", "4300-nines", "long-raster-len",
    ],
)
def test_overlong_digit_tokens_raise_format_errors(data, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            netpbm.load_ppm(data)
        return
    img, _ = netpbm.load_ppm(data)
    assert img.shape == expected
    assert img.reshape(-1).tolist() == [1, 2, 3]


def test_canonical_writer_bytes():
    img = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
    out = netpbm.save_ppm(img)
    assert out == MINIMAL
    assert len(out) == 17


def test_nonce_writer_roundtrip():
    img = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
    out = netpbm.save_ppm(img, nonce=255)
    assert out == b"P6\n# RDHCTR 00000000000000ff\n2 1\n255\n\x01\x02\x03\x04\x05\x06"
    back, nonce = netpbm.load_ppm(out)
    assert nonce == 255
    assert np.array_equal(back, img)


@pytest.mark.parametrize("nonce", [-1, 2**64])
def test_save_rejects_a_nonce_outside_64_bits(nonce):
    img = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
    with pytest.raises(KeyEncodingError):
        netpbm.save_ppm(img, nonce=nonce)


def test_save_is_deterministic_and_roundtrips():
    rng = np.random.default_rng(7)
    for _ in range(25):
        h, w = rng.integers(1, 40, size=2)
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        nonce = int(rng.integers(0, 2**63)) if rng.random() < 0.5 else None
        out = netpbm.save_ppm(img, nonce=nonce)
        assert out == netpbm.save_ppm(img, nonce=nonce)
        back, got_nonce = netpbm.load_ppm(out)
        assert np.array_equal(back, img)
        assert got_nonce == nonce


RASTER = bytes(range(1, 7))  # one 2x1 RGB raster


@pytest.mark.parametrize(
    "data,expected",
    [
        (b"P6\n2#x\n1\n255\n" + RASTER, None),  # comment glued to a token
        (b"P6\n2 1\n255 #x", TruncatedFile),  # after the gap a "#" is raster
        (b"P6\n2 1 #x", MalformedHeader),  # comment at the end, no newline
        (b"P6# RDHCTR 00000000000000ff", MalformedHeader),
        (b"P62 1\n255\n" + RASTER, None),  # no separator after P6
        (b"P6#c\n2 1\n255\n" + RASTER, None),
        (b"P6\n# a ## b #\n2 1\n255\n" + RASTER, None),  # runs of '#' in a comment
        (b"P6\n## RDHCTR 00000000000000ff\n2 1\n255\n" + RASTER, None),
        (b"P6\n# RDHCTR 00000000000000ff\r\n2 1\n255\n" + RASTER, None),  # CR ends no nonce
        (b"P6\n# RDHCTR 00000000000000FF\n2 1\n255\n" + RASTER, 255),
        (b"P6 \t# RDHCTR 00000000000000ff\n#\n2 1\n255\n" + RASTER, 255),
        (b"P6\n#\n# RDHCTR 00000000000000ff\n2 1\n255\n" + RASTER, None),  # not the first comment
        (b"P6\t2\x0b1\x0c255\r" + RASTER, None),  # tab, VT, FF and CR separate
        (b"P6\n2 1\n255\n\n" + RASTER[1:], None),  # the raster may start with whitespace
        (b"P6\n2 1\n255#\n" + RASTER, MalformedHeader),  # maxval followed by '#'
        (b"P6\n2 1\n255", MalformedHeader),
        (b"P6\n0 1\n65535\n", MalformedHeader),  # dimensions are checked before maxval
        (b"P6\n2 1\n65535", BadMaxval),  # maxval is checked before the raster gap
        (b"P6\n2 1\n255\n" + RASTER[:-1], TruncatedFile),
    ],
)
def test_header_grammar_edge_cases(data, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            netpbm.load_ppm(data)
        return
    img, nonce = netpbm.load_ppm(data)
    assert img.shape == (1, 2, 3)
    assert img.tobytes() == data[-6:]
    assert nonce == expected


@pytest.mark.parametrize(
    "data",
    [
        b"P6" + b"#" * 100_000,
        b"P6\n2 1\n" + b"#" * 100_000,
        b"P6" + b"#\n" * 50_000,
        b"P6\n2" + b"# c\n" * 50_000 + b"x",
    ],
)
def test_pathological_headers_are_rejected_in_linear_time(data):
    start = time.perf_counter()
    with pytest.raises(MalformedHeader):
        netpbm.load_ppm(data)
    assert time.perf_counter() - start < 5.0
