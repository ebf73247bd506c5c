"""Deterministic, platform-stable random number generation.

The generator is SplitMix64: draw ``i`` from seed ``s`` is
``mix64(s + i * GAMMA) mod 2**64`` where ``mix64`` is the usual
xor-shift/multiply finisher. Because each draw depends only on the seed
and the draw counter, scalar and vectorized paths produce identical
sequences, and the same seed yields the same stream on every platform.
"""

from __future__ import annotations

import numpy as np

from .linalg import BLOCK

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` of every entry of a uint64 array, in place; returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _check_count(n: int) -> None:
    """Refuse a negative draw count, which would move the counter back and
    repeat earlier draws."""
    if n < 0:
        raise ValueError(f"draw count must be non-negative, got {n}")


class SeededRng:
    """Single-owner random stream. Equal seeds give equal draw sequences."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._count = 0

    def next_u64(self) -> int:
        """Next raw 64-bit draw."""
        self._count += 1
        return _mix64((self.seed + self._count * _GAMMA) & _MASK)

    def skip(self, n: int) -> None:
        """Advance past ``n`` draws without computing them."""
        _check_count(n)
        self._count += n

    def _u64_block(self, n: int) -> np.ndarray:
        _check_count(n)
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= np.uint64(_GAMMA)  # integer arrays wrap mod 2**64 silently
        z += np.uint64(self.seed)
        return _mix64_array(z)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) with 53 bits of resolution."""
        u = (self.next_u64() >> 11) * _INV_2_53
        return lo + (hi - lo) * u

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized ``uniform``; consumes the same draws as n scalar calls.
        They are drawn and scaled ``BLOCK`` at a time into the result, so
        the integer temporaries stay block-sized."""
        _check_count(n)
        u = np.empty(n)
        for start in range(0, n, BLOCK):
            out = u[start:start + BLOCK]
            bits = self._u64_block(out.size)
            bits >>= np.uint64(11)
            np.multiply(bits, _INV_2_53, out=out)
            out *= hi - lo
            out += lo
        return u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is ~n/2**64, negligible here."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def index_array(self, count: int, n: int) -> np.ndarray:
        """``count`` IID uniform indices into [0, n)."""
        if n <= 0:
            raise ValueError("index bound must be positive")
        return (self._u64_block(count) % np.uint64(n)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of arange(n): for i from n-1 down to 1,
        swap i with ``randint(i + 1)``. The n-1 draws come in one block."""
        perm = list(range(n))
        if n > 1:
            bounds = np.arange(n, 1, -1, dtype=np.uint64)
            for i, j in zip(range(n - 1, 0, -1), (self._u64_block(n - 1) % bounds).tolist()):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def spawn(self, key: int) -> "SeededRng":
        """Independent child stream; deterministic in (seed, key).

        Children do not advance this generator's counter.
        """
        child = _mix64((_mix64(self.seed) ^ ((key + 1) * _GAMMA)) & _MASK)
        return SeededRng(child)
