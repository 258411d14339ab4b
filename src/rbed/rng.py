"""Deterministic pseudo-random number generation for reproducible runs.

A 64-bit seed is expanded into generator state with splitmix64; draws come
from xoshiro256** (Blackman & Vigna). Identical seeds give identical draw
sequences within one build of this package; bit-exact agreement with other
implementations of the same generators is not a goal.

Outputs are generated in blocks of ``_BLOCK`` with the generator state in
locals, then handed out one at a time. The stream is exactly the one-at-a-time
xoshiro256** stream: blocking changes when an output is computed, never its
value or its place in the sequence.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_BLOCK = 64  # outputs generated per refill


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once, returning (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Rng:
    """xoshiro256** generator owned by exactly one run.

    Every random decision in a run (environment reset, explore/exploit
    draw, random action, tie-break) pulls from one instance in a fixed
    call order, so a seed fully determines the run.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_block")

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        state = seed
        state, self._s0 = _splitmix64(state)
        state, self._s1 = _splitmix64(state)
        state, self._s2 = _splitmix64(state)
        state, self._s3 = _splitmix64(state)
        self._block: list[int] = []  # outputs not yet handed out, the next one last

    def _refill(self) -> None:
        """Run the xoshiro256** step for the next ``_BLOCK`` outputs."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        block = []
        for _ in range(_BLOCK):
            tmp = (s1 * 5) & _MASK64
            block.append(((((tmp << 7) | (tmp >> 57)) & _MASK64) * 9) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        block.reverse()
        self._block = block

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        block = self._block
        if not block:
            self._refill()
            block = self._block
        return block.pop()

    def next_f64(self) -> float:
        """Uniform float in [0, 1), on the 53-bit grid."""
        return (self.next_u64() >> 11) * _INV_2_53

    def next_int_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased (rejection sampling, no raw modulo)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
