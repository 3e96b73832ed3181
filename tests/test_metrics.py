import math

import numpy as np
import pytest

from evtpr import InvalidInputError, psnr, rgb_to_y, ssim
from evtpr.metrics import evaluate


class TestRgbToY:
    def test_gray_pixel(self):
        px = np.full((2, 2, 3), 0.42)
        assert np.allclose(rgb_to_y(px), 0.42)

    def test_pure_red(self):
        px = np.zeros((1, 1, 3))
        px[..., 0] = 1.0
        assert rgb_to_y(px)[0, 0] == pytest.approx(0.299)

    def test_pure_blue(self):
        px = np.zeros((1, 1, 3))
        px[..., 2] = 1.0
        assert rgb_to_y(px)[0, 0] == pytest.approx(0.114)

    def test_wrong_channels(self):
        with pytest.raises(InvalidInputError):
            rgb_to_y(np.zeros((4, 4)))


class TestPsnr:
    def test_identical_images_are_infinite(self):
        a = np.random.default_rng(0).random((16, 16))
        assert psnr(a, a) == math.inf

    def test_uniform_error_closed_form(self):
        a = np.full((32, 32), 0.5)
        b = a + 1.0 / 255.0
        assert psnr(a, b, peak=1.0) == pytest.approx(20 * math.log10(255), abs=1e-9)
        assert psnr(a, b, peak=1.0) == pytest.approx(48.1308, abs=1e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        assert psnr(2 * a, 2 * b, peak=2.0) == pytest.approx(psnr(a, b, peak=1.0))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        assert psnr(a, b) == pytest.approx(psnr(b, a))

    def test_monotone_in_noise(self):
        a = np.full((16, 16), 0.5)
        prev = math.inf
        for amp in (0.01, 0.05, 0.1, 0.2):
            cur = psnr(a, a + amp)
            assert cur < prev
            prev = cur

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            psnr(np.zeros((4, 4)), np.zeros((5, 4)))


class TestSsim:
    def test_self_similarity(self):
        a = np.random.default_rng(3).random((24, 24))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_checkerboard_is_negative(self):
        yy, xx = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        a = ((yy + xx) % 2).astype(np.float64)
        assert ssim(a, 1.0 - a) < 0

    def test_offset_strictly_below_one(self):
        a = np.random.default_rng(4).random((16, 16)) * 0.5
        assert ssim(a, a + 0.2) < 1.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rng.random((14, 14)), rng.random((14, 14))
            assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)
            assert -1.0 <= ssim(a, b) <= 1.0

    def test_too_small_image(self):
        with pytest.raises(InvalidInputError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))


class TestEvaluate:
    def test_identical_rgb(self):
        a = np.random.default_rng(6).random((16, 16, 3))
        rep = evaluate(a, a.copy(), y_only=True)
        assert rep.psnr == math.inf
        assert rep.ssim == pytest.approx(1.0, abs=1e-9)
        assert rep.channel_mode == "y"

    def test_border_crop_changes_region(self):
        a = np.random.default_rng(7).random((20, 20))
        b = a.copy()
        b[0, 0] = 1.0 - b[0, 0]  # corrupt only the border
        assert evaluate(a, b).psnr < math.inf
        assert evaluate(a, b, border_crop=2).psnr == math.inf

    def test_negative_border_crop_rejected(self):
        a = np.random.default_rng(7).random((20, 20))
        with pytest.raises(InvalidInputError, match="border crop"):
            evaluate(a, a.copy(), border_crop=-1)
