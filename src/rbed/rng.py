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
the generator's standard jump-ahead.

Each refill holds ``_LANES`` copies of the generator in one set of four Python
ints: lane i is a 64-bit word in the low half of the i-th 128-bit slot, and
sits at stream position ``base + i * _LANE_STEPS``. The 64 spare bits above
each word take the carries of ``* 5`` and ``* 9`` and the spill of the
rotates, and ``_LANE_MASK`` clears them, so one big-int operation steps every
lane. ``_LANE_STEPS`` steps give the next ``_LANE_STEPS * _LANES`` outputs;
they are handed out lane by lane, so in stream order. The next round starts
each lane ``_LANES * _LANE_STEPS`` positions on, at q(T) s for its start
state s and q = x^(_LANES * _LANE_STEPS) mod p. q has degree below 256 and a
round visits T^0 s .. T^(_LANE_STEPS - 1) s, so the round XORs up the states
where q has a 1 as it steps, and that sum is the next round's start: no
separate jump. The first refill builds the lanes from the seed state by
doubling: jump every lane built so far by as many lanes and place the
results above them.

Every output is the value the one-at-a-time generator gives at the same
position; only when it is computed changes. The polynomials are derived on
the first refill (Berlekamp-Massey over 512 bits of the state sequence), not
at import.

The outputs not yet handed out wait in one ``array("Q")``, ``Rng._block``,
as packed 64-bit words with the next output last. It is the same array
object for the generator's whole life, and ``_refill`` fills it in place only
when it is empty. So a hot loop may bind the array and its ``pop`` once, pop
the stream in order, and call ``_refill`` itself whenever the array is empty;
it draws exactly what ``next_u64`` would have.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache

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


def _jump(
    s0: int, s1: int, s2: int, s3: int, poly: int, mask: int = _LANE_MASK
) -> tuple[int, int, int, int]:
    """Apply poly(T) to every lane of a state: T^n when poly = x^n mod p."""
    a0 = a1 = a2 = a3 = 0
    while True:
        if poly & 1:
            a0 ^= s0
            a1 ^= s1
            a2 ^= s2
            a3 ^= s3
        poly >>= 1
        if not poly:
            return a0, a1, a2, a3
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask


@cache
def _char_poly() -> int:
    """T's characteristic polynomial (bit k is the coefficient of x^k).

    Berlekamp-Massey over 512 bits of one state bit's sequence gives its
    minimal polynomial; it has degree 256 because T's characteristic
    polynomial is primitive (the period is 2**256 - 1).
    """
    state = (1, 2, 3, 4)  # any nonzero state
    window = 0  # the bits so far, the newest at bit 0
    conn = prev = 1
    length, gap = 0, 1
    for n in range(512):
        window = (window << 1) | (state[0] & 1)
        state = _jump(*state, 2, _MASK64)
        if not (conn & window).bit_count() & 1:
            gap += 1
            continue
        last = conn
        conn ^= prev << gap
        if 2 * length <= n:
            length, prev, gap = n + 1 - length, last, 1
        else:
            gap += 1
    # the recurrence's connection polynomial, reversed, is the characteristic one
    return int(format(conn, f"0{length + 1}b")[::-1], 2)


def _mulmod(a: int, b: int, p: int) -> int:
    """a * b mod p over GF(2)."""
    top = 1 << (p.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= p
    return r


@cache
def _x_pow(n: int) -> int:
    """x^n mod p, by square-and-multiply."""
    p = _char_poly()
    r = 1
    for bit in format(n, "b"):
        r = _mulmod(r, r, p)
        if bit == "1":
            r = _mulmod(r, 2, p)
    return r


@cache
def _fold_steps() -> tuple[bool, ...]:
    """Bit k of x^(_LANES * _LANE_STEPS) mod p, for k in range(_LANE_STEPS):
    the steps of a round whose states sum to the next round's start."""
    q = _x_pow(_LANES * _LANE_STEPS)
    return tuple(bool(q >> k & 1) for k in range(_LANE_STEPS))


class Rng:
    """xoshiro256** generator owned by exactly one run.

    Every random decision in a run (environment reset, explore/exploit
    draw, random action, tie-break) pulls from one instance in a fixed
    call order, so a seed fully determines the run.

    ``_block`` is one ``array("Q")`` for the generator's life: it holds the
    outputs not yet handed out, the next one last, and ``_refill`` refills
    it in place only when it is empty. ``agent._cartpole_episode`` pops it
    directly; every other caller draws through the methods below.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_lanes", "_block")

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        state = seed
        state, self._s0 = _splitmix64(state)
        state, self._s1 = _splitmix64(state)
        state, self._s2 = _splitmix64(state)
        state, self._s3 = _splitmix64(state)
        self._lanes = 1  # lanes the state holds: 1 until the first refill
        self._block = array("Q")  # outputs not yet handed out, the next one last

    def _refill(self) -> None:
        """Make the next ``_LANE_STEPS * _LANES`` outputs, all lanes at once,
        into the empty ``_block``, and leave every lane at its next round's start."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        if self._lanes < _LANES:
            lanes = 1
            while lanes < _LANES:
                shift = 128 * lanes
                j0, j1, j2, j3 = _jump(s0, s1, s2, s3, _x_pow(lanes * _LANE_STEPS))
                s0 |= j0 << shift
                s1 |= j1 << shift
                s2 |= j2 << shift
                s3 |= j3 << shift
                lanes *= 2
            self._lanes = lanes
        mask = _LANE_MASK
        size, order = 16 * _LANES, sys.byteorder
        words = array("Q")  # the round's outputs, step by step
        put = words.frombytes
        a0 = a1 = a2 = a3 = 0  # the next round's start, summed as the round steps
        for fold in _fold_steps():
            if fold:
                a0 ^= s0
                a1 ^= s1
                a2 ^= s2
                a3 ^= s3
            tmp = (s1 * 5) & mask
            put(((((tmp << 7) | (tmp >> 57)) & mask) * 9).to_bytes(size, order))
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s0, self._s1, self._s2, self._s3 = a0, a1, a2, a3
        # each output carries every lane's word in the low half of its slot;
        # the last lane's last output goes in first, so the next one ends up last
        last = len(words) - 2 * _LANES  # the last step's first word
        block = self._block  # empty: filled in place, never rebound
        for w in reversed(_LANE_WORDS):
            block += words[last + w :: -2 * _LANES]

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        block = self._block
        if not block:
            self._refill()
        return block.pop()

    def next_f64(self) -> float:
        """Uniform float in [0, 1), on the 53-bit grid."""
        return (self.next_u64() >> 11) * _INV_2_53

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
