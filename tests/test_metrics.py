"""Metric oracles: closed-form EN/SD/SF cases, MI identities, VIF/QAB-F."""

import numpy as np
import pytest

from dualfuse import metrics
from dualfuse.autodiff import ContractError, DimensionError, NonFiniteError
from dualfuse.losses import SOBEL_X, SOBEL_Y, gaussian_window

from conftest import assert_close, conv2d_oracle


def natural_image(size=64, seed=0):
    """Smooth blob field: a stand-in for natural image statistics."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size))
    for _ in range(6):
        cy, cx = rng.uniform(0, size, 2)
        s = rng.uniform(size / 10, size / 4)
        img += rng.uniform(0.2, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                                              / (2 * s * s))
    img -= img.min()
    img /= img.max()
    return metrics.quantize_u8(img)


# ---------------------------------------------------------------------------
# EN / SD / SF
# ---------------------------------------------------------------------------

def test_constant_image_degenerate_stats():
    img = np.full((16, 16), 77, dtype=np.uint8)
    assert metrics.metric_en(img) == 0.0
    assert metrics.metric_sd(img) == 0.0
    assert metrics.metric_sf(img) == 0.0


def test_two_point_histogram():
    img = np.zeros((16, 16), dtype=np.uint8)
    img[:8] = 255
    assert_close(metrics.metric_en(img), 1.0, tol=1e-12)
    assert_close(metrics.metric_sd(img), 127.5, tol=1e-12)


def sf_double_loop_oracle(img):
    img = img.astype(np.float64)
    h, w = img.shape
    acc_h = [(img[i, j + 1] - img[i, j]) ** 2
             for i in range(h) for j in range(w - 1)]
    acc_v = [(img[i + 1, j] - img[i, j]) ** 2
             for i in range(h - 1) for j in range(w)]
    return np.sqrt(np.mean(acc_h) + np.mean(acc_v))


def test_checkerboard_sf_against_double_loop():
    img = np.zeros((8, 8), dtype=np.uint8)
    img[::2, 1::2] = 255
    img[1::2, ::2] = 255
    assert_close(metrics.metric_sf(img), sf_double_loop_oracle(img), tol=1e-12)
    assert_close(metrics.metric_sf(img), 255.0 * np.sqrt(2.0), tol=1e-12)


def test_random_sf_against_double_loop(rng):
    img = rng.integers(0, 256, (9, 7)).astype(np.uint8)
    assert_close(metrics.metric_sf(img), sf_double_loop_oracle(img), tol=1e-12)


def test_en_permutation_invariant_sf_not(rng):
    img = np.zeros((8, 8), dtype=np.uint8)
    img[::2, 1::2] = 255
    img[1::2, ::2] = 255                      # checkerboard: max activity
    sorted_img = np.sort(img.ravel()).reshape(8, 8)   # same histogram
    assert metrics.metric_en(img) == metrics.metric_en(sorted_img)
    assert metrics.metric_sf(img) != metrics.metric_sf(sorted_img)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quantize_refuses_a_non_finite_image(value):
    # the cast would make NaN a black pixel that fuse writes and eval scores
    img = np.full((4, 5), 0.5)
    img[2, 3] = value
    with pytest.raises(NonFiniteError):
        metrics.quantize_u8(img)


def test_metrics_reject_unquantized_and_empty(rng):
    with pytest.raises(ContractError):
        metrics.metric_en(rng.uniform(0, 1, (8, 8)))
    with pytest.raises(ContractError):
        metrics.metric_sd(np.zeros((0, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mi_of_identical_images_is_twice_entropy(rng):
    img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    mi = metrics.metric_mi(img, img, img)
    assert_close(mi, 2.0 * metrics.metric_en(img), tol=1e-9)


def test_mi_of_shuffled_binary_near_zero(rng):
    base = (rng.integers(0, 2, (64, 64)) * 255).astype(np.uint8)
    other = (rng.integers(0, 2, (64, 64)) * 255).astype(np.uint8)
    shuffled = rng.permutation(base.ravel()).reshape(64, 64)
    assert metrics.metric_mi(shuffled, base, other) < 0.05


def test_mi_component_symmetry(rng):
    a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    b = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    assert_close(metrics._mi_pair(a, b), metrics._mi_pair(b, a), tol=1e-12)


def test_mi_bounded_by_entropy(rng):
    for _ in range(25):
        f = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        a = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        mi = metrics._mi_pair(f, a)
        assert mi <= min(metrics.metric_en(f), metrics.metric_en(a)) + 1e-9


# ---------------------------------------------------------------------------
# filters shared by VIF and QAB/F
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [17, 9, 5, 3])
def test_vif_window_filter_against_loop_oracle(rng, size):
    img = rng.integers(0, 256, (45, 50)).astype(np.float64)
    win = gaussian_window(size, size / 5.0)
    for x in (img, img[::2, ::2]):
        assert_close(metrics._filter_valid(x, win),
                     conv2d_oracle(x[None], win[None, None], 1, 0)[0])


def test_sobel_xy_against_loop_oracle(rng):
    img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
    padded = np.pad(img.astype(np.float64), 1, mode="reflect")[None]
    gx, gy = metrics._sobel_xy(img)
    assert_close(gx, conv2d_oracle(padded, SOBEL_X[None, None], 1, 0)[0])
    assert_close(gy, conv2d_oracle(padded, SOBEL_Y[None, None], 1, 0)[0])


def test_vif_and_qabf_pinned():
    # a change of filter kernel or window must not move either metric
    a, b, f = natural_image(64, 1), natural_image(64, 2), natural_image(64, 3)
    assert metrics.metric_vif(f, a, b) == pytest.approx(0.4042307101146417,
                                                        rel=1e-12, abs=0)
    assert metrics.metric_qabf(f, a, b) == pytest.approx(0.2795432147309488,
                                                         rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# VIF
# ---------------------------------------------------------------------------

def test_vif_self_fusion_is_two():
    img = natural_image(48)
    assert_close(metrics.metric_vif(img, img, img), 2.0, tol=1e-9)


@pytest.mark.parametrize("size", [32, 40, 41])
def test_vif_rejects_small_images(size):
    # 41x41 is the smallest image the 4-scale pyramid accepts
    img = natural_image(size)
    if size < 41:
        with pytest.raises(ContractError):
            metrics.metric_vif(img, img, img)
    else:
        assert np.isfinite(metrics.metric_vif(img, img, img))


def test_vif_degrades_with_noise(rng):
    clean = natural_image(64)
    noisy = np.clip(clean.astype(np.int64)
                    + rng.integers(-60, 60, clean.shape), 0, 255).astype(np.uint8)
    assert metrics.metric_vif(noisy, clean, clean) \
        < metrics.metric_vif(clean, clean, clean)


# ---------------------------------------------------------------------------
# QAB/F
# ---------------------------------------------------------------------------

def test_qabf_self_fusion_high():
    img = natural_image(64)
    assert metrics.metric_qabf(img, img, img) >= 0.95


def test_qabf_bounded_on_random_triples(rng):
    for _ in range(1000):
        shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
        f = rng.integers(0, 256, shape).astype(np.uint8)
        a = rng.integers(0, 256, shape).astype(np.uint8)
        b = rng.integers(0, 256, shape).astype(np.uint8)
        q = metrics.metric_qabf(f, a, b)
        assert 0.0 <= q <= 1.0


def test_qabf_constant_sources_zero():
    c = np.full((8, 8), 10, dtype=np.uint8)
    assert metrics.metric_qabf(c, c, c) == 0.0


def test_qabf_shape_guard():
    a = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(DimensionError):
        metrics.metric_qabf(a, a, np.zeros((8, 9), dtype=np.uint8))


@pytest.mark.parametrize("name", ["mi", "vif", "qabf"])
def test_two_source_errors_name_metric_and_operand(name):
    fn = getattr(metrics, "metric_" + name)
    u8 = np.zeros((48, 48), dtype=np.uint8)
    bad = u8.astype(np.float64)
    for args, operand in (((bad, u8, u8), "fused"),
                          ((u8, bad, u8), "source a"),
                          ((u8, u8, bad), "source b")):
        with pytest.raises(ContractError, match=name + " " + operand):
            fn(*args)
    with pytest.raises(DimensionError, match=name + " operands"):
        fn(u8, u8, np.zeros((48, 47), dtype=np.uint8))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_csv_row_formatting():
    # documentation fixture: published-scale values, formatting only
    report = metrics.MetricsReport("ref", en=6.72, sd=43.32, sf=11.57,
                                   mi=3.69, vif=1.07, qabf=0.71)
    assert report.csv_row() == "ref,6.7200,43.3200,11.5700,3.6900,1.0700,0.7100"
    assert metrics.CSV_HEADER == "image_id,en,sd,sf,mi,vif,qabf"


def test_report_invariants():
    with pytest.raises(ContractError):
        metrics.MetricsReport("bad", en=9.0, sd=1.0, sf=1.0, mi=1.0,
                              vif=1.0, qabf=0.5)
    with pytest.raises(ContractError):
        metrics.MetricsReport("bad", en=1.0, sd=1.0, sf=1.0, mi=1.0,
                              vif=1.0, qabf=1.5)


def test_mean_report(rng):
    imgs = [natural_image(48, seed=i) for i in range(3)]
    reports = [metrics.evaluate_image(str(i), imgs[i], imgs[(i + 1) % 3],
                                      imgs[(i + 2) % 3]) for i in range(3)]
    mean = metrics.mean_report(reports)
    assert mean.image_id == "mean"
    assert_close(mean.en, np.mean([r.en for r in reports]), tol=1e-9)
    assert_close(mean.qabf, np.mean([r.qabf for r in reports]), tol=1e-9)


def test_evaluate_image_deterministic():
    a, b = natural_image(48, 1), natural_image(48, 2)
    f = natural_image(48, 3)
    r1 = metrics.evaluate_image("x", f, a, b)
    r2 = metrics.evaluate_image("x", f, a, b)
    assert r1 == r2
