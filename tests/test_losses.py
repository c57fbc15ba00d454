"""Loss oracles: SSIM closed forms, Sobel hand-convolutions, stage losses."""

import numpy as np
import pytest

from dualfuse import gradcheck, losses
from dualfuse.autodiff import ContractError, DimensionError, Tensor

from conftest import assert_close, conv2d_oracle


def img(arr):
    return Tensor(np.asarray(arr, dtype=np.float64)[None])


# ---------------------------------------------------------------------------
# ssim
# ---------------------------------------------------------------------------

def test_ssim_self_is_one(rng):
    x = img(rng.uniform(0, 1, (12, 12)))
    assert abs(losses.ssim(x, x).item() - 1.0) < 1e-12


def constant_ssim(a, b):
    """Closed form for two constant images (variance terms collapse)."""
    return (2 * a * b + losses.SSIM_C1) / (a * a + b * b + losses.SSIM_C1)


def test_ssim_constant_images_closed_form():
    a, b = 0.3, 0.8
    x = img(np.full((11, 15), a))
    y = img(np.full((11, 15), b))
    assert_close(losses.ssim(x, y).item(), constant_ssim(a, b), tol=1e-12)


def test_ssim_symmetric(rng):
    x = img(rng.uniform(0, 1, (13, 13)))
    y = img(rng.uniform(0, 1, (13, 13)))
    assert_close(losses.ssim(x, y).item(), losses.ssim(y, x).item(), tol=1e-12)


def test_ssim_guards():
    with pytest.raises(DimensionError):
        losses.ssim(img(np.zeros((12, 12))), img(np.zeros((12, 13))))
    with pytest.raises(ContractError):
        losses.ssim(img(np.zeros((8, 12))), img(np.zeros((8, 12))))


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------

def test_stage1_perfect_reconstruction_is_zero(rng):
    a = img(rng.uniform(0, 1, (12, 12)))
    b = img(rng.uniform(0, 1, (12, 12)))
    breakdown = losses.stage1_loss(a, a, b, b)
    assert abs(breakdown.total.item()) < 1e-12


def test_stage1_constant_offset_closed_form():
    base, offset = 0.4, 0.1
    truth = img(np.full((16, 16), base))
    pred = img(np.full((16, 16), base + offset))
    perfect = img(np.full((16, 16), 0.6))
    breakdown = losses.stage1_loss(truth, pred, perfect, perfect)
    # intensity: mean squared error is offset^2; second modality adds zero
    assert_close(breakdown.intensity.item(), offset ** 2, tol=1e-12)
    expect_ssim = constant_ssim(base, base + offset)
    assert_close(breakdown.ssim_or_grad.item(), 1.0 - expect_ssim, tol=1e-12)
    assert_close(breakdown.total.item(),
                 offset ** 2 + 1.0 - expect_ssim, tol=1e-12)


def test_stage1_nonnegative(rng):
    for _ in range(5):
        imgs = [img(rng.uniform(0, 1, (12, 12))) for _ in range(4)]
        breakdown = losses.stage1_loss(*imgs)
        assert breakdown.intensity.item() >= 0
        assert breakdown.ssim_or_grad.item() >= 0
        assert breakdown.total.item() >= 0


# ---------------------------------------------------------------------------
# sobel
# ---------------------------------------------------------------------------

def test_sobel_constant_is_zero():
    out = losses.sobel_grad(img(np.full((8, 8), 0.7)))
    assert_close(out.data, np.zeros((1, 8, 8)), tol=1e-12)


def test_sobel_vertical_step_hand_oracle():
    # step 0 -> 1 between columns k-1 and k: |G_x| = 4 on both flanking
    # columns (taps 1+2+1 on the bright side, zeros on the dark side)
    k = 4
    x = np.zeros((8, 8))
    x[:, k:] = 1.0
    out = losses.sobel_grad(img(x)).data[0]
    assert_close(out[:, k - 1], np.full(8, 4.0), tol=1e-12)
    assert_close(out[:, k], np.full(8, 4.0), tol=1e-12)
    assert_close(out[:, : k - 1], np.zeros((8, k - 1)), tol=1e-12)
    assert_close(out[:, k + 1:], np.zeros((8, 8 - k - 1)), tol=1e-12)


def test_sobel_offset_invariance(rng):
    x = rng.uniform(0, 1, (9, 9))
    a = losses.sobel_grad(img(x)).data
    b = losses.sobel_grad(img(x + 5.0)).data
    assert_close(a, b, tol=1e-12)


def test_sobel_rejects_tiny_images():
    with pytest.raises(ContractError):
        losses.sobel_grad(img(np.zeros((2, 5))))


def sobel_oracle(x):
    """Reflect-pad then six-loop convolution with both kernels."""
    padded = np.pad(x, 1, mode="reflect")[None]
    gx = conv2d_oracle(padded, losses.SOBEL_X[None, None], 1, 0)[0]
    gy = conv2d_oracle(padded, losses.SOBEL_Y[None, None], 1, 0)[0]
    return np.abs(gx) + np.abs(gy)


def test_sobel_matches_oracle(rng):
    x = rng.uniform(0, 1, (7, 9))
    assert_close(losses.sobel_grad(img(x)).data[0], sobel_oracle(x), tol=1e-12)


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------

def test_stage2_fused_equals_max_kills_intensity(rng):
    a = rng.uniform(0, 1, (8, 8))
    b = rng.uniform(0, 1, (8, 8))
    breakdown = losses.stage2_loss(img(np.maximum(a, b)), img(a), img(b))
    assert abs(breakdown.intensity.item()) < 1e-12


def test_stage2_degenerate_agreement_is_zero(rng):
    x = rng.uniform(0, 1, (8, 8))
    breakdown = losses.stage2_loss(img(x), img(x), img(x))
    assert abs(breakdown.total.item()) < 1e-12


def test_stage2_matches_elementwise_oracle(rng):
    f = rng.uniform(0, 1, (8, 8))
    a = rng.uniform(0, 1, (8, 8))
    b = rng.uniform(0, 1, (8, 8))
    breakdown = losses.stage2_loss(img(f), img(a), img(b))
    intensity = np.mean(np.abs(f - np.maximum(a, b)))
    grad = np.mean(np.abs(sobel_oracle(f)
                          - np.maximum(sobel_oracle(a), sobel_oracle(b))))
    assert_close(breakdown.intensity.item(), intensity, tol=1e-12)
    assert_close(breakdown.ssim_or_grad.item(), grad, tol=1e-12)
    assert_close(breakdown.total.item(), intensity + grad, tol=1e-12)


# ---------------------------------------------------------------------------
# gradients w.r.t. the predicted image
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,case_fn", gradcheck.loss_cases())
def test_loss_gradients(name, case_fn):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(3):
        build, arrays = case_fn(rng)
        worst = max(worst, gradcheck.check_case(build, arrays))
    assert worst < gradcheck.REL_TOL, "%s worst rel err %.3e" % (name, worst)
