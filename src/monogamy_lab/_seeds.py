"""Per-sample generators: child i of ``SeedSequence(seed)`` without a
``SeedSequence`` object per child.

Contract: the generator of sample i is bit for bit
``default_rng(SeedSequence(seed, spawn_key=(i,)))``, for i < 2**32. The
hash is numpy's (NEP 19, ``numpy/random/bit_generator.pyx``). The child's
entropy is the seed's words, zero-padded to the pool size of 4, then i. So
its pool is the parent's ``pool`` with one more word mixed in, with the
``INIT_A`` constant advanced past the parent's 16 + 4 * max(0, words - 4)
hashmix steps. ``generate_state(4, uint64)`` then hashes the pool into 8
words. Both run here on uint32 arrays, a block of samples at a time; PCG64's
own seeding takes the 4 uint64 words.

This module imports ``numpy.random``, so `sampling` imports it only inside
the functions that draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
_POOL = 4
_BLOCK = 1024  # samples per block of words: peak memory stays flat in n


def _powers(init: int, mult: int, skip: int, count: int) -> list[int]:
    """init * mult**k mod 2**32 for k = skip .. skip + count - 1."""
    h = init * pow(mult, skip, 1 << 32) & _MASK
    out = []
    for _ in range(count):
        out.append(h)
        h = h * mult & _MASK
    return out


def _hash16(v: np.ndarray) -> np.ndarray:
    v ^= v >> 16
    return v


def spawn_words(seed: int, n: int):
    """Yield the ``generate_state(4, uint64)`` words of children 0 .. n-1 of
    ``SeedSequence(seed)``, in order, as (m, 4) uint64 blocks of at most
    ``_BLOCK`` rows."""
    pool = [int(w) for w in SeedSequence(seed).pool]
    seed_words = max(1, -(-seed.bit_length() // 32))
    ha = _powers(_INIT_A, _MULT_A, 16 + _POOL * max(0, seed_words - _POOL), _POOL + 1)
    hb = _powers(_INIT_B, _MULT_B, 0, 2 * _POOL + 1)
    left = [_MIX_MULT_L * p & _MASK for p in pool]
    for start in range(0, n, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, n), dtype=np.uint32)
        mixed = [_hash16(left[d] - _MIX_MULT_R * _hash16((idx ^ ha[d]) * ha[d + 1]))
                 for d in range(_POOL)]
        state = np.empty((idx.size, 2 * _POOL), dtype="<u4")
        for j in range(2 * _POOL):
            state[:, j] = _hash16((mixed[j % _POOL] ^ hb[j]) * hb[j + 1])
        yield state.view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its 4 precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def sample_rngs(seed: int, n: int):
    """Yield the generators of samples 0 .. n-1 of a dataset seeded by seed."""
    for block in spawn_words(seed, n):
        for words in block:
            yield Generator(PCG64(_Words(words)))
