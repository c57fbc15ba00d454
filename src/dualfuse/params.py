"""Hierarchical named-parameter traversal.

Parameter containers are plain dataclasses whose leaves are engine Tensors.
Walking follows dataclass field declaration order (and list indices), which
fixes a deterministic global ordering: the same ordering backs checkpoint
layout, optimizer state and seeded initialization.
"""

from __future__ import annotations

import dataclasses

from .autodiff import Tensor


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


def trainable_parameters(obj) -> list[tuple[str, Tensor]]:
    return [(n, t) for n, t in named_parameters(obj) if t.requires_grad]
