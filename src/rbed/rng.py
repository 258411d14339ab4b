"""Deterministic pseudo-random number generation for reproducible runs.

A 64-bit seed is expanded into generator state with splitmix64; draws come
from xoshiro256** (Blackman & Vigna). Identical seeds give identical draw
sequences within one build of this package; bit-exact agreement with other
implementations of the same generators is not a goal.

The stream is made ``_LANES`` positions at a time. xoshiro256**'s state
transition T is linear over GF(2), so the state at stream position ``base + n``
is T^n applied to the state at ``base``, and T^n equals q(T) for
q = x^n mod p, where p is T's degree-256 characteristic polynomial. Applying
q(T) -- step the state 256 times and XOR up the states where q has a 1 -- is
the generator's standard jump-ahead. The generator only ever jumps by
256 * 2**j positions, j = 0..5, so it needs six fixed q; like the reference
implementation's ``JUMP`` constants, they are literals (``_JUMPS``), computed
once offline and checked by the tests against single steps.

Each generator holds ``_LANES`` copies of xoshiro256** in one set of four
Python ints: lane i is a 64-bit word in the low half of the i-th 128-bit slot,
and sits at stream position ``base + i * _LANE_STEPS``. The 64 spare bits
above each word take the carries of ``* 5`` and ``* 9`` and the spill of the
rotates, and ``_LANE_MASK`` clears them, so one big-int operation steps every
lane. ``Rng(seed)`` builds the lanes from the seed state by doubling: it moves
every lane built so far on by as many lanes and places the results above
them. A refill's ``_LANE_STEPS`` steps give the next ``_LANE_STEPS * _LANES``
outputs, handed out lane by lane, so in stream order, and visit T^0 s ..
T^(_LANE_STEPS - 1) s of each lane's start s: XORing up those where
x^(_LANES * _LANE_STEPS) mod p has a 1 gives the next round's start, so one
loop, ``_round``, both jumps and makes outputs. Every output equals the
one-at-a-time generator's at the same position.

The outputs not yet handed out wait in one ``array("Q")`` as packed 64-bit
words, the next output last; a refill puts its round in front of them.
``Rng.reserve(n)`` refills until that array holds at least ``n`` and returns
it, so a loop that needs at most ``n`` draws pops them from it and gets
exactly what ``next_u64`` would have given.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, Optional

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_LANES = 32  # generator copies stepped together
_LANE_STEPS = 256  # outputs per lane per refill
_LANE_MASK = sum(_MASK64 << (128 * i) for i in range(_LANES))
# Index of lane i's word among the 64-bit words of one step's outputs.
_LANE_WORDS = tuple(
    2 * i if sys.byteorder == "little" else 2 * _LANES - 1 - 2 * i for i in range(_LANES)
)


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once, returning (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


# x^(256 * 2**j) mod p for j = 0..5, where p is the degree-256 characteristic
# polynomial of xoshiro256**'s state transition T (bit k is the coefficient of
# x^k): applied by ``_round``, entry j moves a lane 256 * 2**j steps on. The
# first five double the lanes in ``Rng.__init__``; the last moves every lane
# one round on. tests/test_rng.py checks each against single steps.
_JUMPS = (
    0x0003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001,
    0xBE7976372E9304356DD49B656055C9DA81F675E7A4EF7D84C7327D130E34B489,
    0x65507439CF43F0E28456FAEB6230D9841BE1D76854DDDA93060106BBBE4FF028,
    0x51EDEF31819E01FF3C8CA36EC9A74FA715FE822628B16F04876C2301125A85C0,
    0x0F41CCE3698FAD39AA6EB691CBF9CE10D638D47EC5BCF595D7F4E8DA7E228B85,
    0xDA66E09E52B341D132104B94FE2534D3B1DF898A4A6F1548669DA12373880674,
)


def _round(
    s0: int, s1: int, s2: int, s3: int, poly: int, put: Optional[Callable[[bytes], object]] = None
) -> tuple[int, int, int, int]:
    """Step every lane ``_LANE_STEPS`` times and return poly(T) of the start:
    the sum of the visited states T^k s where bit k of poly is 1. With ``put``,
    also pass each step's outputs to it, every lane's word packed in its slot."""
    mask = _LANE_MASK
    size, order = 16 * _LANES, sys.byteorder
    a0 = a1 = a2 = a3 = 0
    for bit in format(poly, f"0{_LANE_STEPS}b")[::-1]:
        if bit == "1":
            a0 ^= s0
            a1 ^= s1
            a2 ^= s2
            a3 ^= s3
        if put is not None:
            tmp = (s1 * 5) & mask
            put(((((tmp << 7) | (tmp >> 57)) & mask) * 9).to_bytes(size, order))
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    return a0, a1, a2, a3


class Rng:
    """xoshiro256** generator owned by exactly one run.

    Every random decision in a run (environment reset, explore/exploit
    draw, random action, tie-break) pulls from one instance in a fixed
    call order, so a seed fully determines the run.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_block")

    F64_UNIT = _INV_2_53  # next_f64 of the raw draw u is (u >> 11) * F64_UNIT

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        state, s0 = _splitmix64(seed)
        state, s1 = _splitmix64(state)
        state, s2 = _splitmix64(state)
        state, s3 = _splitmix64(state)
        # double the lanes: move every lane built so far on by as many lanes
        # and place the results above them
        for j, poly in enumerate(_JUMPS[:-1]):
            shift = 128 << j
            j0, j1, j2, j3 = _round(s0, s1, s2, s3, poly)
            s0 |= j0 << shift
            s1 |= j1 << shift
            s2 |= j2 << shift
            s3 |= j3 << shift
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        self._block = array("Q")  # outputs not yet handed out, the next one last

    def _refill(self) -> None:
        """Put the next ``_LANE_STEPS * _LANES`` outputs, made all lanes at once,
        in front of those ``_block`` holds; every lane moves to its next round."""
        words = array("Q")  # the round's outputs, step by step
        self._s0, self._s1, self._s2, self._s3 = _round(
            self._s0, self._s1, self._s2, self._s3, _JUMPS[-1], words.frombytes
        )
        # each output carries every lane's word in the low half of its slot;
        # the last lane's last output goes in first, so the round's first ends up last
        last = len(words) - 2 * _LANES  # the last step's first word
        fresh = array("Q")
        for w in reversed(_LANE_WORDS):
            fresh += words[last + w :: -2 * _LANES]
        self._block[:0] = fresh  # in place: the array is never rebound

    def reserve(self, n: int) -> array:
        """The one array of undrawn outputs, the next one last, refilled until it
        holds at least ``n``: its first ``n`` pops are the draws ``next_u64`` gives."""
        block = self._block
        while len(block) < n:
            self._refill()
        return block

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        block = self._block
        if not block:
            self._refill()
        return block.pop()

    def next_f64(self) -> float:
        """Uniform float in [0, 1), on the 53-bit grid."""
        return (self.next_u64() >> 11) * _INV_2_53

    @staticmethod
    def f64_bound(p: float) -> int:
        """The bound with ``u < bound`` exactly when ``next_f64`` on the raw
        draw ``u`` is below ``p``, for every 64-bit ``u`` and double ``p``: the
        integer ``u >> 11`` is below ``p * 2**53`` (an exact product) exactly
        when it is below that product's ceiling c, that is when ``u < c << 11``.
        It is 0 when no draw passes (p at most 0, or NaN), 2**64 when all do."""
        if not p > 0.0:
            return 0
        return math.ceil(min(p, 1.0) * (1 << 53)) << 11

    def next_int_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased (rejection sampling, no raw
        modulo). One draw covers at most 2**64 values, so n is in [1, 2**64]."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > _MASK64 + 1:
            raise ValueError(f"n must be <= 2**64, got {n}")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
