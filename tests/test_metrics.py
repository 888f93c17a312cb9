import math

import numpy as np
import pytest

from rdhkit import metrics
from rdhkit.errors import DimensionMismatch


def test_identical_images():
    img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    assert metrics.mse(img, img) == 0.0
    assert math.isinf(metrics.psnr(img, img))


def test_every_component_off_by_one_gives_mse_one():
    a = np.full((10, 10, 3), 100, dtype=np.uint8)
    b = a + 1
    assert metrics.mse(a, b) == 1.0
    assert metrics.psnr(a, b) == pytest.approx(48.1308, abs=1e-3)


def test_maximal_difference():
    a = np.zeros((5, 5, 3), dtype=np.uint8)
    b = np.full((5, 5, 3), 255, dtype=np.uint8)
    assert metrics.mse(a, b) == 65025.0
    assert metrics.psnr(a, b) == 0.0


def test_gray_plane_divides_by_pixel_count():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, 0] = 4
    assert metrics.mse(a, b) == 16 / 16


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        metrics.mse(np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 3, 3), dtype=np.uint8))


def test_symmetry():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    b = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    assert metrics.mse(a, b) == metrics.mse(b, a)


def test_monotonicity():
    a = np.zeros((4, 4, 3), dtype=np.uint8)
    b = a.copy()
    prev_mse, prev_psnr = metrics.mse(a, b), None
    for step in (1, 2, 3):
        b[0, 0, 0] = step
        cur_mse, cur_psnr = metrics.mse(a, b), metrics.psnr(a, b)
        assert cur_mse > prev_mse
        if prev_psnr is not None:
            assert cur_psnr < prev_psnr
        prev_mse, prev_psnr = cur_mse, cur_psnr


def test_full_capacity_red_lsb_expectation():
    # overwriting every red LSB with random bits flips each with chance 1/2:
    # expected MSE is 0.5/3 and PSNR approaches 10*log10(255^2 * 6) = 55.91 dB
    rng = np.random.default_rng(2)
    cover = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
    marked = cover.copy()
    bits = rng.integers(0, 2, size=512 * 512, dtype=np.uint8)
    red = marked.reshape(-1, 3)[:, 0]
    red[:] = (red & 0xFE) | bits
    assert metrics.psnr(cover, marked) == pytest.approx(55.91, abs=0.5)


def test_format_psnr():
    assert metrics.format_psnr(math.inf) == "inf"
    assert metrics.format_psnr(48.1308) == "48.13 dB"


def _mse_int64(a, b):
    # the reference formula: the mean of full-width int64 squares
    diff = a.astype(np.int64) - b.astype(np.int64)
    return float(np.mean(diff * diff))


@pytest.mark.parametrize("shape", [(1,), (7, 5), (64, 64, 3), (512, 512, 3), (33, 1001)])
def test_mse_equals_the_int64_formula_exactly(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        b = rng.integers(0, 256, shape, dtype=np.uint8)
        assert metrics.mse(a, b) == _mse_int64(a, b)
        near = a ^ rng.integers(0, 2, shape, dtype=np.uint8)
        assert metrics.mse(a, near) == _mse_int64(a, near)


def test_mse_extreme_difference_on_a_large_raster_does_not_overflow():
    # 786,432 squares of 65025 sum to about 5.1e10, far past the int32 range
    a = np.zeros((512, 512, 3), dtype=np.uint8)
    b = np.full((512, 512, 3), 255, dtype=np.uint8)
    assert metrics.mse(a, b) == _mse_int64(a, b) == 65025.0
    assert metrics.mse(b, a) == 65025.0


@pytest.mark.parametrize(
    "a_dtype,a_value,b_dtype,b_value,expect",
    [
        (np.uint8, 0, np.uint8, 255, 65025.0),  # int16 working array, square wraps
    ],
)
def test_mse_of_extreme_one_byte_samples(a_dtype, a_value, b_dtype, b_value, expect):
    a = np.full((64, 64, 3), a_value, dtype=a_dtype)
    b = np.full((64, 64, 3), b_value, dtype=b_dtype)
    assert metrics.mse(a, b) == metrics.mse(b, a) == _mse_int64(a, b) == expect


@pytest.mark.parametrize(
    "other", [np.float64, np.float32, np.bool_, np.int8, np.uint16, np.int64]
)
def test_non_uint8_samples_raise_dimension_mismatch(other):
    a = np.zeros((4, 4, 3), dtype=np.uint8)
    b = np.ones((4, 4, 3), dtype=other)
    for x, y in ((a, b), (b, a), (b, b)):
        with pytest.raises(DimensionMismatch, match="uint8"):
            metrics.psnr(x, y)
        with pytest.raises(DimensionMismatch, match="uint8"):
            metrics.mse(x, y)


def test_mse_of_empty_input_is_nan():
    empty = np.zeros((0, 3), dtype=np.uint8)
    with pytest.warns(RuntimeWarning):
        assert math.isnan(metrics.mse(empty, empty))
