"""Hierarchical named-parameter traversal.

Parameter containers are plain dataclasses whose leaves are engine Tensors.
Walking follows dataclass field declaration order (and list indices), which
fixes a deterministic global ordering: the same ordering backs checkpoint
layout, optimizer state and seeded initialization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import Tensor, parameter


def fan_in_normal(rng: np.random.Generator, *shape: int) -> Tensor:
    """A parameter of ``shape`` drawn from N(0, 1/fan_in), where fan_in is
    the product of every axis but the first (a kernel's inputs times taps)."""
    fan_in = int(np.prod(shape[1:]))
    return parameter(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape))


def named_parameters(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Flatten a parameter tree into ordered (path, tensor) pairs."""
    out: list[tuple[str, Tensor]] = []
    if obj is None:
        return out
    if isinstance(obj, Tensor):
        out.append((prefix or "param", obj))
        return out
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            child = getattr(obj, field.name)
            path = f"{prefix}.{field.name}" if prefix else field.name
            out.extend(named_parameters(child, path))
        return out
    if isinstance(obj, (list, tuple)):
        for i, child in enumerate(obj):
            out.extend(named_parameters(child, f"{prefix}[{i}]"))
        return out
    return out   # ints, strings, arrays of constants: not parameters
