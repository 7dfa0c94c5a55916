"""Deterministic 64-bit PRNG with a fixed, portable recurrence.

Generated spaces must be byte-identical across runs, platforms, and
reimplementations, so the generator is pinned to splitmix64 rather than
delegating to a runtime's default RNG:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    z = state_{k+1}
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

Bounded draws use plain modulo reduction (the tiny bias is irrelevant here;
reproducibility is what matters). Each randint consumes exactly one raw
output and reduces it by its range, so the raw stream does not depend on the
ranges: peek computes a run of it at once in numpy uint64, whose arithmetic
wraps mod 2^64 like the recurrence, without moving the state, and skip moves
the state past any number of outputs. randint_block is peek, a reduction of
each draw by its own range, and skip; a caller whose ranges depend on earlier
draws peeks ahead, reduces what it uses, and skips exactly that many.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np
from numpy.typing import ArrayLike

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def randint_block(self, lo: ArrayLike, hi: ArrayLike) -> np.ndarray:
        """randint(lo[i], hi[i]) for every i in row-major order, as one uint64
        array of the broadcast shape; the state ends where the scalar draws
        would leave it. Bounds must satisfy 0 <= lo <= hi < 2^64."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.uint64), np.asarray(hi, dtype=np.uint64))
        if (hi < lo).any():
            raise ValueError("empty range in block draw")
        z = self.peek(lo.size).reshape(lo.shape)
        self.skip(lo.size)
        with np.errstate(over="ignore"):
            span = hi - lo + np.uint64(1)  # 0 for the full range [0, 2^64)
        full = span == 0
        return lo + np.where(full, z, z % np.where(full, 1, span))

    def peek(self, count: int) -> np.ndarray:
        """The next count raw outputs, as a uint64 array; the state does not move."""
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        return z

    def skip(self, count: int):
        """Move the state past the next count raw outputs, as count next_u64 calls would."""
        self._state = (self._state + count * _GAMMA) & _MASK

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def weighted_index(self, weights: Sequence[int]) -> int:
        """Index drawn proportionally to non-negative integer weights."""
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        pick = self.randint(1, total)
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                return i
        raise AssertionError("unreachable")
