"""The index map shared by the per-sample and per-row stages.

Each index is computed independently and results come back in index order.
The benchmark tracer (``perfbench/tracing.py``) counts its calls and items.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def map_indexed(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n-1)]."""
    return [fn(i) for i in range(n)]
