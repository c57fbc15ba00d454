"""Operation-count evidence that the two branch primitives scale linearly.

Counts come from the engine's FlopCounter, so they are exact deterministic
functions of the shapes involved. A linear model fitted over pixel counts
(or sequence lengths) should explain essentially all variance, and an exact
quadratic fit through the measurements should carry a negligible second-order
term.
"""

from __future__ import annotations

import numpy as np

from . import attention, ssm
from .autodiff import FlopCounter, Tensor

CHANNELS = 4        # token width of both measurements; inputs come from seed 0


def measure_channel_attention_flops(pixel_counts) -> list[int]:
    rng = np.random.default_rng(0)
    totals = []
    for hw in pixel_counts:
        q = Tensor(rng.uniform(-1, 1, (hw, CHANNELS)))
        k = Tensor(rng.uniform(-1, 1, (CHANNELS, hw)))
        v = Tensor(rng.uniform(-1, 1, (hw, CHANNELS)))
        with FlopCounter() as fc:
            attention.apply_attention(
                attention.channel_attention(q, k, Tensor(1.0)), v)
        totals.append(fc.total)
    return totals


def measure_selective_scan_flops(lengths) -> list[int]:
    rng = np.random.default_rng(0)
    params = ssm.make_scan_params(rng, CHANNELS)
    totals = []
    for length in lengths:
        x = Tensor(rng.uniform(-1, 1, (length, CHANNELS)))
        with FlopCounter() as fc:
            ssm.selective_scan(x, params)
        totals.append(fc.total)
    return totals


def linear_fit(xs, ys) -> float:
    """r_squared of the least-squares line."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = intercept + slope * xs
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def quadratic_excess(xs, ys) -> float:
    """Second-order contribution relative to first order at the largest size.

    Fits y = c0 + c1 x + c2 x^2 and returns |c2| * max(x) / |c1|: the share a
    quadratic term would claim of the linear term where it matters most.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    c2, c1, _ = np.polyfit(xs, ys, 2)
    if c1 == 0.0:
        return float("inf")
    return abs(c2) * float(xs.max()) / abs(c1)


def linearity_report(xs, ys) -> dict:
    return {
        "flops": list(ys),
        "r_squared": linear_fit(xs, ys),
        "quadratic_share": quadratic_excess(xs, ys),
    }
