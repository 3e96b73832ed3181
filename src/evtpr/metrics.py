"""PSNR / SSIM evaluation, optionally on the Y channel only."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# BT.601 luma coefficients
_Y_COEFFS = np.array([0.299, 0.587, 0.114])

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricReport:
    psnr: float  # dB, math.inf when images are identical
    ssim: float


def rgb_to_y(frame: np.ndarray) -> np.ndarray:
    """BT.601 luma: Y = 0.299 R + 0.587 G + 0.114 B."""
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise InvalidInputError("expected an HxWx3 RGB array")
    return frame @ _Y_COEFFS


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1 / MSE) for values in [0, 1]; +inf when the images are identical."""
    if a.shape != b.shape:
        raise InvalidInputError("shape mismatch")
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    # separable Gaussian, 'valid' borders
    from numpy.lib.stride_tricks import sliding_window_view
    k = len(g)
    rows = sliding_window_view(img, k, axis=0) @ g
    return sliding_window_view(rows, k, axis=1) @ g


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), dynamic range 1."""
    if a.shape != b.shape:
        raise InvalidInputError("shape mismatch")
    if a.ndim != 2:
        raise InvalidInputError("ssim expects single-channel images")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise InvalidInputError("image smaller than the SSIM window")
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _filter_valid(a, g)
    mu_b = _filter_valid(b, g)
    var_a = _filter_valid(a * a, g) - mu_a ** 2
    var_b = _filter_valid(b * b, g) - mu_b ** 2
    cov = _filter_valid(a * b, g) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def evaluate(pred: np.ndarray, gt: np.ndarray, y_only: bool = True,
             border_crop: int = 0) -> MetricReport:
    """PSNR/SSIM between one prediction and its ground truth.

    SSIM is computed on the luma of RGB inputs (BT.601) or on the single
    channel; so is PSNR when `y_only`, and otherwise on the inputs as given.
    `border_crop` trims N pixels from every edge before measuring.
    """
    if pred.shape != gt.shape:
        raise InvalidInputError("shape mismatch")
    if border_crop < 0:
        raise InvalidInputError("border crop must be >= 0")
    if border_crop:
        if 2 * border_crop >= min(pred.shape[0], pred.shape[1]):
            raise InvalidInputError("border crop swallows the whole image")
        pred = pred[border_crop:-border_crop, border_crop:-border_crop]
        gt = gt[border_crop:-border_crop, border_crop:-border_crop]
    p_y, g_y = (rgb_to_y(pred), rgb_to_y(gt)) if pred.ndim == 3 else (pred, gt)
    return MetricReport(psnr=psnr(p_y, g_y) if y_only else psnr(pred, gt),
                        ssim=ssim(p_y, g_y))
