"""Adam with step decay.

Moments are kept per parameter path so optimizer state serializes alongside
the parameters. The learning rate halves (by the configured factor) every
``lr_decay_every`` epochs, counted across both training stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, NonFiniteError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)     # path -> first moment array
    v: dict = field(default_factory=dict)     # path -> second moment array
    step_count: int = 0

    def ensure(self, named_params) -> None:
        for name, t in named_params:
            if name not in self.m:
                self.m[name] = np.zeros_like(t.data)
                self.v[name] = np.zeros_like(t.data)


def lr_at_epoch(base_lr: float, decay: float, period: int, epoch: int) -> float:
    return base_lr * decay ** (epoch // period)


def adam_step(named_params, state: AdamState, lr: float) -> None:
    """One Adam update over (path, tensor) pairs; grads must be populated
    and finite. Nothing is updated when a check fails."""
    for name, t in named_params:
        if t.grad is None:
            raise ContractError("parameter %r has no gradient" % name)
        if not np.isfinite(t.grad).all():
            raise NonFiniteError("parameter %r has a non-finite gradient" % name)
    state.ensure(named_params)
    state.step_count += 1
    t_step = state.step_count
    bias1 = 1.0 - BETA1 ** t_step
    bias2 = 1.0 - BETA2 ** t_step
    for name, p in named_params:
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
