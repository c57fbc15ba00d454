"""Fusion quality metrics: EN, SD, SF, MI, VIF, QAB/F.

All metrics are deterministic pure functions of 8-bit-quantized grayscale
images (EN and MI need discrete histograms; SD/SF/VIF/QAB-F run on the
quantized values as float64 on the 0..255 scale). Constants are pinned here
so results reproduce bit-for-bit within this project; numeric parity with
other toolboxes is explicitly not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ContractError, DimensionError, NonFiniteError, correlate
from .losses import SOBEL_X, SOBEL_Y, gaussian_window

CSV_HEADER = "image_id,en,sd,sf,mi,vif,qabf"

# edge-preservation sigmoid constants (strength and orientation)
QABF_GAMMA = 1.0
QABF_KAPPA_G = -10.0
QABF_SIGMA_G = 0.5
QABF_KAPPA_A = -22.0
QABF_SIGMA_A = 0.8

VIF_SIGMA_NSQ = 2.0      # assumed sensor noise variance on the 0..255 scale
VIF_SCALES = 4


@dataclass
class MetricsReport:
    """Six-metric record for one fused image against its two sources."""
    image_id: str
    en: float
    sd: float
    sf: float
    mi: float
    vif: float
    qabf: float

    def __post_init__(self):
        if not (0.0 <= self.en <= 8.0 + 1e-9):
            raise ContractError("entropy %.4f outside [0, 8] bits" % self.en)
        if self.sd < 0 or self.sf < 0:
            raise ContractError("sd/sf must be non-negative")
        if not (-1e-9 <= self.qabf <= 1.0 + 1e-9):
            raise ContractError("qabf %.4f outside [0, 1]" % self.qabf)

    def csv_row(self) -> str:
        return "%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f" % (
            self.image_id, self.en, self.sd, self.sf, self.mi, self.vif,
            self.qabf)


def quantize_u8(img: np.ndarray) -> np.ndarray:
    """Quantize a [0, 1] float image to uint8. NaN or Inf raises
    NonFiniteError: the cast would make a NaN pixel a black one."""
    img = np.asarray(img, dtype=np.float64)
    if not np.isfinite(img).all():
        raise NonFiniteError("cannot quantize an image that holds NaN or Inf")
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def _check_u8(img: np.ndarray, name: str = "image") -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ContractError("%s must be 8-bit quantized (uint8), got %s"
                            % (name, img.dtype))
    if img.ndim != 2 or img.size == 0:
        raise ContractError("%s must be a non-empty HxW array" % name)
    return img


def _check_triple(metric: str, fused, src_a, src_b):
    """The fused image and both sources of ``metric``, each checked by
    ``_check_u8``, all of one shape."""
    fused = _check_u8(fused, metric + " fused")
    src_a = _check_u8(src_a, metric + " source a")
    src_b = _check_u8(src_b, metric + " source b")
    if fused.shape != src_a.shape or fused.shape != src_b.shape:
        raise DimensionError("%s operands must share shape" % metric)
    return fused, src_a, src_b


# ---------------------------------------------------------------------------
# single-image statistics
# ---------------------------------------------------------------------------

def metric_en(img: np.ndarray) -> float:
    """Shannon entropy in bits of the 256-bin intensity histogram."""
    img = _check_u8(img)
    hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
    p = hist / hist.sum()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def metric_sd(img: np.ndarray) -> float:
    """Population standard deviation of the intensities."""
    img = _check_u8(img)
    return float(np.std(img.astype(np.float64)))


def metric_sf(img: np.ndarray) -> float:
    """Spatial frequency: rms of horizontal plus vertical differences."""
    img = _check_u8(img).astype(np.float64)
    dh = img[:, 1:] - img[:, :-1]
    dv = img[1:, :] - img[:-1, :]
    mh = float((dh ** 2).mean()) if dh.size else 0.0
    mv = float((dv ** 2).mean()) if dv.size else 0.0
    return float(np.sqrt(mh + mv))


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def _mi_pair(x: np.ndarray, y: np.ndarray) -> float:
    joint = np.bincount(x.ravel().astype(np.int32) * 256 + y.ravel(),
                        minlength=256 * 256).astype(np.float64)
    joint = joint.reshape(256, 256) / joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = px[:, None] * py[None, :]
    return float((joint[nz] * np.log2(joint[nz] / outer[nz])).sum())


def metric_mi(fused: np.ndarray, src_a: np.ndarray, src_b: np.ndarray) -> float:
    """MI(fused; a) + MI(fused; b) from 256x256 joint histograms, in bits."""
    fused, src_a, src_b = _check_triple("mi", fused, src_a, src_b)
    return _mi_pair(fused, src_a) + _mi_pair(fused, src_b)


# ---------------------------------------------------------------------------
# visual information fidelity (pixel domain, multi-scale)
# ---------------------------------------------------------------------------

def _filter_valid(img: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Valid-mode cross-correlation of an H x W image with a k x k window."""
    return correlate(img[None], win[None, None], 0, 1, False)[0]


def _vif_scales(img: np.ndarray) -> list:
    """Per pyramid scale: (image, window, local mean, local mean square)."""
    img = img.astype(np.float64)
    scales = []
    for scale in range(1, VIF_SCALES + 1):
        size = 2 ** (VIF_SCALES - scale + 1) + 1
        win = gaussian_window(size, size / 5.0)
        if scale > 1:       # the previous scale's check covers this window
            img = _filter_valid(img, win)[::2, ::2]
        if img.shape[0] < size or img.shape[1] < size:
            raise ContractError("images too small for the %d-scale pyramid"
                                % VIF_SCALES)
        scales.append((img, win, _filter_valid(img, win),
                       _filter_valid(img * img, win)))
    return scales


def _vif_single(ref_scales: list, dist_scales: list) -> float:
    """Pixel-domain VIF over a 4-level Gaussian pyramid with GSM variances;
    both arguments come from ``_vif_scales``."""
    num = 0.0
    den = 0.0
    for (ref, win, mu_r, sq_r), (dist, _, mu_d, sq_d) in zip(ref_scales,
                                                             dist_scales):
        var_r = sq_r - mu_r * mu_r
        var_d = sq_d - mu_d * mu_d
        cov = _filter_valid(ref * dist, win) - mu_r * mu_d
        var_r = np.maximum(var_r, 0.0)
        var_d = np.maximum(var_d, 0.0)
        gain = cov / (var_r + 1e-10)
        noise = var_d - gain * cov
        tiny_r = var_r < 1e-10
        gain[tiny_r] = 0.0
        noise[tiny_r] = var_d[tiny_r]
        var_r[tiny_r] = 0.0
        tiny_d = var_d < 1e-10
        gain[tiny_d] = 0.0
        noise[tiny_d] = 0.0
        negative = gain < 0
        noise[negative] = var_d[negative]
        gain[negative] = 0.0
        noise = np.maximum(noise, 1e-10)
        num += float(np.log10(1.0 + gain * gain * var_r
                              / (noise + VIF_SIGMA_NSQ)).sum())
        den += float(np.log10(1.0 + var_r / VIF_SIGMA_NSQ).sum())
    if den <= 0.0:
        return 0.0      # constant reference carries no information
    return num / den


def metric_vif(fused: np.ndarray, src_a: np.ndarray, src_b: np.ndarray) -> float:
    """Sum of the pixel-domain multi-scale VIF of the fused image against
    each source. The 4-scale pyramid needs images of at least 41x41;
    smaller ones raise ContractError."""
    fused, src_a, src_b = _check_triple("vif", fused, src_a, src_b)
    fused_scales = _vif_scales(fused)
    return _vif_single(_vif_scales(src_a), fused_scales) \
        + _vif_single(_vif_scales(src_b), fused_scales)


# ---------------------------------------------------------------------------
# QAB/F edge preservation
# ---------------------------------------------------------------------------

def _sobel_xy(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel x and y responses of an H x W image under reflect padding."""
    padded = np.pad(np.asarray(img, dtype=np.float64), 1, mode="reflect")
    return _filter_valid(padded, SOBEL_X), _filter_valid(padded, SOBEL_Y)


def _sobel_parts(img: np.ndarray):
    gx, gy = _sobel_xy(img)
    strength = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    # fold to (-pi/2, pi/2]: gradient orientation, contrast sign ignored
    angle = np.where(angle > np.pi / 2, angle - np.pi, angle)
    angle = np.where(angle <= -np.pi / 2, angle + np.pi, angle)
    return strength, angle


def _edge_quality(g_src, a_src, g_fused, a_fused):
    peak = np.maximum(g_src, g_fused)
    ratio = np.where(peak > 0, np.minimum(g_src, g_fused)
                     / np.where(peak > 0, peak, 1.0), 0.0)
    diff = np.abs(a_src - a_fused)
    diff = np.minimum(diff, np.pi - diff)          # orientation distance
    align = 1.0 - diff / (np.pi / 2.0)
    q_g = QABF_GAMMA / (1.0 + np.exp(QABF_KAPPA_G * (ratio - QABF_SIGMA_G)))
    q_a = QABF_GAMMA / (1.0 + np.exp(QABF_KAPPA_A * (align - QABF_SIGMA_A)))
    return q_g * q_a


def metric_qabf(fused: np.ndarray, src_a: np.ndarray, src_b: np.ndarray) -> float:
    """Edge-strength-weighted Sobel edge preservation in [0, 1]."""
    fused, src_a, src_b = _check_triple("qabf", fused, src_a, src_b)
    g_f, a_f = _sobel_parts(fused)
    g_a, a_a = _sobel_parts(src_a)
    g_b, a_b = _sobel_parts(src_b)
    q_af = _edge_quality(g_a, a_a, g_f, a_f)
    q_bf = _edge_quality(g_b, a_b, g_f, a_f)
    w_a = g_a ** QABF_GAMMA
    w_b = g_b ** QABF_GAMMA
    denom = float((w_a + w_b).sum())
    if denom == 0.0:
        return 0.0      # no edges in either source
    return float((q_af * w_a + q_bf * w_b).sum() / denom)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def evaluate_image(image_id: str, fused: np.ndarray, src_a: np.ndarray,
                   src_b: np.ndarray) -> MetricsReport:
    """All six metrics of one fused image against its two sources."""
    return MetricsReport(
        image_id=image_id,
        en=metric_en(fused),
        sd=metric_sd(fused),
        sf=metric_sf(fused),
        mi=metric_mi(fused, src_a, src_b),
        vif=metric_vif(fused, src_a, src_b),
        qabf=metric_qabf(fused, src_a, src_b),
    )


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    if not reports:
        raise ContractError("cannot average an empty report list")
    n = len(reports)
    means = [sum(getattr(r, f.name) for r in reports) / n
             for f in fields(MetricsReport)[1:]]     # every field after image_id
    return MetricsReport("mean", *means)
