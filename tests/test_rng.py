"""Generator determinism, output ranges, and uniformity sanity."""

import functools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import rbed.rng
from rbed.rng import _JUMPS, _LANE_STEPS, _LANES, _MASK64, Rng, _round, _splitmix64

ROUND = _LANE_STEPS * _LANES  # outputs made per refill

# Published reference outputs for splitmix64 started from state 0.
SPLITMIX_FROM_ZERO = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen first outputs of this generator; any change to seeding or the
# scramble breaks every recorded experiment, so lock the exact values.
KNOWN_U64 = {
    0: (11091344671253066420, 13793997310169335082, 1900383378846508768),
    1: (12966619160104079557, 9600361134598540522, 10590380919521690900),
    42: (1546998764402558742, 6990951692964543102, 12544586762248559009),
    2**64 - 1: (10328197420357168392, 14156678507024973869, 9357971779955476126),
}

# Frozen outputs of seed 1 at 0-based positions 62..66 and 126..130, read from
# the one-output-at-a-time generator. They straddled refills when a refill made
# 64 outputs; a refill now makes 8192, so both sit inside the first lane.
SEED1_AROUND_REFILLS = {
    62: (
        7027364917918958883, 17772373227798502682, 10679904434473632331,
        16846193018840951402, 10394188663930338048,
    ),
    126: (
        18392035219689121431, 1344795051468874542, 10928998634108886214,
        1487820051808273100, 1367033711444785463,
    ),
}

# Frozen outputs of seed 1 around the first lane boundary (K - 2 .. K + 2, with
# K = _LANE_STEPS = 256) and the first round boundary (K * L - 2 .. K * L + 2,
# with L = _LANES = 32), read from the one-output-at-a-time generator: an
# off-by-one in the lane order or the jump between rounds shows here.
SEED1_AROUND_LANE_EDGES = {
    254: (
        6046563535967583039, 15239679110195664039, 8420850043650020136,
        14600910899038844467, 17385368543129960077,
    ),
    8190: (
        4732718515788499967, 787408621480617435, 15500100400480717202,
        13451015298733305572, 254459383683401081,
    ),
}

# Seed 1 after 58 raw outputs, then five rounds of (next_f64,
# next_int_below(3), next_u64), frozen when refills held 64 outputs.
SEED1_MIXED_FROM_58 = (
    0.5270895714099085, 0, 11438400802113138699,
    0.6895906245485712, 0, 17772373227798502682,
    0.5789587794896942, 2, 10394188663930338048,
    0.8335035793225488, 2, 16946530294876730622,
    0.16225307512642673, 1, 7652075548764937174,
)


def reference_state(seed):
    state = seed
    words = []
    for _ in range(4):
        state, word = _splitmix64(state)
        words.append(word)
    return tuple(words)


def reference_step(s0, s1, s2, s3):
    t = (s1 << 17) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    return s0, s1, s2, s3


def reference_stream(seed, count):
    """xoshiro256** one output at a time, straight from the published step."""
    state = reference_state(seed)
    outs = []
    for _ in range(count):
        tmp = (state[1] * 5) & _MASK64
        outs.append(((((tmp << 7) | (tmp >> 57)) & _MASK64) * 9) & _MASK64)
        state = reference_step(*state)
    return outs


def test_splitmix64_reference_sequence():
    state = 0
    outs = []
    for _ in range(3):
        state, out = _splitmix64(state)
        outs.append(out)
    assert tuple(outs) == SPLITMIX_FROM_ZERO


@pytest.mark.parametrize("seed,expected", sorted(KNOWN_U64.items()))
def test_known_answer_streams(seed, expected):
    rng = Rng(seed)
    assert tuple(rng.next_u64() for _ in range(3)) == expected


@pytest.mark.parametrize(
    "start,expected", sorted({**SEED1_AROUND_REFILLS, **SEED1_AROUND_LANE_EDGES}.items())
)
def test_outputs_around_block_refills(start, expected):
    rng = Rng(1)
    for _ in range(start):
        rng.next_u64()
    assert tuple(rng.next_u64() for _ in range(len(expected))) == expected


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_stream_equals_one_at_a_time_reference(seed):
    count = 3 * ROUND + 1  # three full refills and the first output of a fourth
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(count)] == reference_stream(seed, count)


def stepped(state, n):
    for _ in range(n):
        state = reference_step(*state)
    return state


@pytest.mark.parametrize("j", range(len(_JUMPS)))
def test_each_jump_equals_single_steps(j):
    # a round visits T^0 s .. T^(_LANE_STEPS - 1) s, so it can apply each jump
    assert _JUMPS[j].bit_length() <= _LANE_STEPS
    state = reference_state(7)
    assert _round(*state, _JUMPS[j]) == stepped(state, _LANE_STEPS << j)


@pytest.mark.parametrize(
    "n", [1, 2, 255, 256, 257, 1000, (_LANES - 1) * _LANE_STEPS, _LANES * _LANE_STEPS]
)
def test_jump_equals_single_steps(n):
    # any distance is a short x^r (r < 256) followed by the jumps of n's
    # higher bits, so the constants compose as powers of T do
    assert n < _LANE_STEPS << len(_JUMPS)
    state = reference_state(7)
    jumped = _round(*state, 1 << (n % _LANE_STEPS))
    for j, poly in enumerate(_JUMPS):
        if (n // _LANE_STEPS) >> j & 1:
            jumped = _round(*jumped, poly)
    assert jumped == stepped(state, n)


def test_mixed_draws_across_a_refill():
    rng = Rng(1)
    for _ in range(58):
        rng.next_u64()
    draws = []
    for _ in range(5):
        draws += [rng.next_f64(), rng.next_int_below(3), rng.next_u64()]
    assert tuple(draws) == SEED1_MIXED_FROM_58


@functools.cache
def seed9_stream():
    return reference_stream(9, 5 * ROUND)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 * ROUND), st.integers(0, 2 * ROUND))
@example(0, 0)
@example(0, ROUND + 1)
@example(ROUND - 1, 2)
@example(ROUND, 2 * ROUND)
def test_reserve_keeps_the_stream(k, n):
    # after any k draws, reserve(n) hands back the one output array holding at
    # least n undrawn outputs, whatever it held before, and popping all of it
    # gives the one-at-a-time stream
    rng = Rng(9)
    block = rng.reserve(0)
    for _ in range(k):
        rng.next_u64()
    assert rng.reserve(n) is block and len(block) >= n
    held = len(block)  # below n + ROUND
    assert [block.pop() for _ in range(held)] == seed9_stream()[k : k + held]
    assert rng.next_u64() == seed9_stream()[k + held]


def test_pop_bound_before_a_refill_keeps_the_stream():
    # _refill fills the one array in place, so a pop bound before the first
    # refill hands out the stream in order; each refill stores one round as
    # packed 64-bit words
    rng, twin = Rng(9), Rng(9)
    block = rng._block
    pop = block.pop
    count = 2 * ROUND + 3
    got = []
    for _ in range(count):
        if not block:
            rng._refill()
            assert len(block) == ROUND and block.itemsize == 8
        got.append(pop())
    assert rng._block is block
    assert got == [twin.next_u64() for _ in range(count)]
    assert rng.next_u64() == twin.next_u64()


def test_refills_after_the_first_need_no_jump(monkeypatch):
    # Rng(seed) builds the lanes; after that, a round's own steps give the
    # next round's start, so each refill runs exactly one _round
    expected = reference_stream(3, 3 * ROUND)
    rng = Rng(3)
    got = [rng.next_u64()]
    rounds = []

    def counted(*args):
        rounds.append(args[4])
        return _round(*args)

    monkeypatch.setattr(rbed.rng, "_round", counted)
    got += [rng.next_u64() for _ in range(3 * ROUND - 1)]
    assert rounds == [_JUMPS[-1]] * 2
    assert got == expected


def test_same_seed_same_stream():
    a, b = Rng(1234), Rng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a, b = Rng(1), Rng(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
    Rng(0)
    Rng(2**64 - 1)


def test_f64_unit_interval():
    rng = Rng(7)
    for _ in range(10000):
        x = rng.next_f64()
        assert 0.0 <= x < 1.0


def test_f64_is_u64_scaled():
    # same draw index: float comes from the top 53 bits of the u64
    a, b = Rng(99), Rng(99)
    for _ in range(100):
        u = a.next_u64()
        assert b.next_f64() == (u >> 11) * 2.0**-53


def test_int_below_one_always_zero():
    rng = Rng(5)
    assert all(rng.next_int_below(1) == 0 for _ in range(1000))


def test_int_below_rejects_zero():
    rng = Rng(5)
    with pytest.raises(ValueError):
        rng.next_int_below(0)


def test_int_below_spans_at_most_one_draw():
    # 2**64 takes every draw as it is; one more value would reject every draw
    a, b = Rng(1), Rng(1)
    assert [a.next_int_below(2**64) for _ in range(5)] == [b.next_u64() for _ in range(5)]
    with pytest.raises(ValueError, match=str(2**64 + 1)):
        Rng(1).next_int_below(2**64 + 1)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_int_below_in_range(seed, n):
    rng = Rng(seed)
    for _ in range(20):
        assert 0 <= rng.next_int_below(n) < n


def test_coin_frequency():
    rng = Rng(2024)
    counts = Counter(rng.next_int_below(2) for _ in range(100000))
    for face in (0, 1):
        assert abs(counts[face] / 100000 - 0.5) < 0.01


def test_uniformity_chi_square():
    # 10 cells, 10^5 draws; 27.877 is the chi-square 0.001 critical value
    # at 9 degrees of freedom
    rng = Rng(555)
    counts = Counter(rng.next_int_below(10) for _ in range(100000))
    expected = 100000 / 10
    chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(10))
    assert chi2 < 27.877


def test_f64_mean_near_half():
    rng = Rng(7)
    mean = sum(rng.next_f64() for _ in range(100000)) / 100000
    assert math.isclose(mean, 0.5, abs_tol=0.01)
