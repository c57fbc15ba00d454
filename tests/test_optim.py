"""Adam semantics and the step-decay schedule."""

import numpy as np
import pytest

from dualfuse import optim
from dualfuse.autodiff import ContractError, NonFiniteError, parameter

from conftest import assert_close


def test_zero_grads_fresh_state_fixed_point():
    p = parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    state = optim.AdamState()
    optim.adam_step([("w", p)], state, lr=0.1)
    assert_close(p.data, [1.0, -2.0])
    assert_close(state.m["w"], np.zeros(2))
    assert_close(state.v["w"], np.zeros(2))


def test_zero_grads_decay_existing_moments():
    p = parameter(np.array([1.0]))
    p.grad = np.zeros(1)
    state = optim.AdamState()
    state.ensure([("w", p)])
    state.m["w"][:] = 0.4
    state.v["w"][:] = 0.2
    optim.adam_step([("w", p)], state, lr=0.1)
    assert_close(state.m["w"], [0.4 * optim.BETA1])
    assert_close(state.v["w"], [0.2 * optim.BETA2])


def test_adam_two_step_hand_oracle():
    # single scalar, constant gradient 0.5, lr 0.1: written out by hand
    lr, g = 0.1, 0.5
    p = parameter(np.array([1.0]))
    state = optim.AdamState()

    m1 = 0.1 * g                              # (1-beta1) * g
    v1 = 0.001 * g * g
    mhat1 = m1 / (1 - 0.9)
    vhat1 = v1 / (1 - 0.999)
    w1 = 1.0 - lr * mhat1 / (np.sqrt(vhat1) + 1e-8)

    m2 = 0.9 * m1 + 0.1 * g
    v2 = 0.999 * v1 + 0.001 * g * g
    mhat2 = m2 / (1 - 0.9 ** 2)
    vhat2 = v2 / (1 - 0.999 ** 2)
    w2 = w1 - lr * mhat2 / (np.sqrt(vhat2) + 1e-8)

    p.grad = np.array([g])
    optim.adam_step([("w", p)], state, lr)
    assert_close(p.data, [w1], tol=1e-15)
    p.grad = np.array([g])
    optim.adam_step([("w", p)], state, lr)
    assert_close(p.data, [w2], tol=1e-15)


def test_missing_grad_is_contract_error():
    p = parameter(np.array([1.0]))
    with pytest.raises(ContractError):
        optim.adam_step([("w", p)], optim.AdamState(), lr=0.1)


def test_lr_step_decay_schedule():
    base, decay, period = 7.5e-5, 0.5, 20
    assert optim.lr_at_epoch(base, decay, period, 0) == base
    assert optim.lr_at_epoch(base, decay, period, 19) == base
    assert_close(optim.lr_at_epoch(base, decay, period, 20), 3.75e-5, tol=1e-20)
    assert_close(optim.lr_at_epoch(base, decay, period, 40), 1.875e-5, tol=1e-20)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_grad_rejected_before_any_update(bad):
    good = parameter(np.array([1.0, 2.0]))
    good.grad = np.array([0.5, 0.5])
    worse = parameter(np.array([3.0]))
    worse.grad = np.array([bad])
    state = optim.AdamState()
    with pytest.raises(NonFiniteError, match="decoder.w"):
        optim.adam_step([("shallow.w", good), ("decoder.w", worse)], state, 0.1)
    assert_close(good.data, [1.0, 2.0])
    assert state.step_count == 0 and state.m == {} and state.v == {}
