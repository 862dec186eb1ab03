"""An index map that no module of the package calls any more.

The protocol rows and the dataset samples are plain loops. This module
survives only because the benchmark tracer (``perfbench/tracing.py``) names
``map_indexed`` as a trace target; it goes when that target is dropped
(ROADMAP item 1).
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def map_indexed(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n-1)]."""
    return [fn(i) for i in range(n)]
