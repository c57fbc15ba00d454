"""Training objectives, all differentiable through the engine.

Stage one is reconstruction: per modality, pixel MSE plus a structural term
(1 - SSIM). Stage two drives the fused image toward the pixelwise max of the
sources in both intensity and Sobel gradient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DimensionError, Tensor

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2   # stabilizers for images on the [0, 1] range
SSIM_C2 = 0.03 ** 2

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()


@dataclass
class LossBreakdown:
    """One evaluated loss with its two components still attached to the graph."""
    intensity: Tensor
    ssim_or_grad: Tensor
    total: Tensor


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 2-D Gaussian, the SSIM local averaging window."""
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    g /= g.sum()
    return np.outer(g, g)


_WINDOW = gaussian_window()


def ssim(x: Tensor, y: Tensor) -> Tensor:
    """Mean local SSIM over all fully-interior 11x11 Gaussian windows.

    Valid-mode windows keep the constant-image closed form exact: for two
    constant images a and b every local window sees zero variance, so the
    map is (2ab + C1) / (a^2 + b^2 + C1) everywhere.
    """
    if x.shape != y.shape:
        raise DimensionError("ssim operands differ: %r vs %r" % (x.shape, y.shape))
    if x.ndim != 3 or x.shape[0] != 1:
        raise DimensionError("ssim expects 1xHxW images, got %r" % (x.shape,))
    h, w = x.shape[1], x.shape[2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ContractError("ssim needs at least %dx%d images, got %dx%d"
                            % (SSIM_WINDOW, SSIM_WINDOW, h, w))
    win = Tensor(_WINDOW[None, None])

    def blur(img):
        return ad.conv2d(img, win, pad=0)

    mu_x = blur(x)
    mu_y = blur(y)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_x = blur(x * x) - mu_xx
    sigma_y = blur(y * y) - mu_yy
    sigma_xy = blur(x * y) - mu_xy
    num = (mu_xy * 2.0 + SSIM_C1) * (sigma_xy * 2.0 + SSIM_C2)
    den = (mu_xx + mu_yy + SSIM_C1) * (sigma_x + sigma_y + SSIM_C2)
    return (num / den).mean()


def sobel_grad(x: Tensor) -> Tensor:
    """|G_x| + |G_y| under the 3x3 Sobel kernels with reflect padding."""
    if x.ndim != 3 or x.shape[0] != 1:
        raise DimensionError("sobel_grad expects a 1xHxW image, got %r" % (x.shape,))
    if x.shape[1] < 3 or x.shape[2] < 3:
        raise ContractError("sobel_grad needs at least a 3x3 image, got %r"
                            % (x.shape,))
    padded = ad.pad_reflect2d(x, 1)
    gx = ad.conv2d(padded, Tensor(SOBEL_X[None, None]), pad=0)
    gy = ad.conv2d(padded, Tensor(SOBEL_Y[None, None]), pad=0)
    return ad.absolute(gx) + ad.absolute(gy)


def _mse(truth: Tensor, pred: Tensor) -> Tensor:
    diff = truth - pred
    return (diff * diff).mean()


def stage1_loss(truth_a: Tensor, pred_a: Tensor,
                truth_b: Tensor, pred_b: Tensor) -> LossBreakdown:
    """Reconstruction loss summed over both modalities: MSE + (1 - SSIM)."""
    if truth_a.shape != pred_a.shape or truth_b.shape != pred_b.shape:
        raise DimensionError("stage1_loss shape mismatch")
    intensity = _mse(truth_a, pred_a) + _mse(truth_b, pred_b)
    structural = (Tensor(1.0) - ssim(truth_a, pred_a)) + \
                 (Tensor(1.0) - ssim(truth_b, pred_b))
    return LossBreakdown(intensity, structural, intensity + structural)


def stage2_loss(fused: Tensor, src_a: Tensor, src_b: Tensor) -> LossBreakdown:
    """Fusion loss: L1 to the pixelwise max in intensity and in Sobel gradient."""
    if fused.shape != src_a.shape or fused.shape != src_b.shape:
        raise DimensionError("stage2_loss shape mismatch")
    target = ad.maximum(src_a, src_b)
    intensity = ad.absolute(fused - target).mean()
    grad_target = ad.maximum(sobel_grad(src_a), sobel_grad(src_b))
    grad_term = ad.absolute(sobel_grad(fused) - grad_target).mean()
    return LossBreakdown(intensity, grad_term, intensity + grad_term)
