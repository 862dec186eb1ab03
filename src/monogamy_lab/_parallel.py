"""Deterministic index-parallel mapping.

Work is split by index, each index is computed independently of the
schedule, and results are reassembled in index order, so the output is
identical for any worker count. The pool never starts more threads than
there are spans of work or machine cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

THREADS_ENV_VAR = "MONOGAMY_LAB_THREADS"


def resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        threads = int(env) if env else 1
    if threads < 1:
        raise ValueError(f"thread count must be >= 1 (argument or ${THREADS_ENV_VAR}), got {threads}")
    return threads


def map_indexed(fn: Callable[[int], T], n: int, threads: int | None = 1) -> list[T]:
    """[fn(0), ..., fn(n-1)], computed with the given number of workers."""
    threads = resolve_threads(threads)
    if threads == 1 or n <= 1:
        return [fn(i) for i in range(n)]
    chunk = max(1, (n + 4 * threads - 1) // (4 * threads))
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    with ThreadPoolExecutor(max_workers=min(threads, len(spans), os.cpu_count() or 1)) as pool:
        parts = list(pool.map(lambda span: [fn(i) for i in range(span[0], span[1])], spans))
    return [item for part in parts for item in part]
