"""A fixed amount of pure-Python work that shows how fast the machine is now.

The benchmark's hosts are shared, and their speed drifts by tens of percent
within minutes, so a wall time alone says as much about the neighbours as
about rbed. ``run.py`` times this kernel next to every measurement and scales
the measurement by ``REFERENCE_S / kernel time``: a machine running at the
reference speed runs the kernel in ``REFERENCE_S`` seconds.

The kernel is a tabular Q-learner on a cart-pole, written out by hand and
sharing no code with rbed, so a change to rbed cannot change it. It uses
what rbed's episode loop uses (float arithmetic, small function calls, list
indexing, a 64-bit xorshift generator) so a slow stretch of the machine
slows both alike. Its work is the same on every call: the seed and the step
count are fixed.

    python3 perfbench/calibrate.py   # prints a few kernel times
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.1  # kernel seconds at the reference speed
KERNEL_STEPS = 40_000
MASK = (1 << 64) - 1


def _kernel(steps: int) -> float:
    state = 0x9E3779B97F4A7C15

    def draw() -> float:
        nonlocal state
        state ^= (state << 13) & MASK
        state ^= state >> 7
        state ^= (state << 17) & MASK
        return (state >> 11) / 9007199254740992.0

    def bucket(value: float, clip: float, n: int) -> int:
        if value <= -clip:
            return 0
        if value >= clip:
            return n - 1
        return int((value + clip) / (2 * clip) * n)

    q = [[0.0, 0.0] for _ in range(7 * 9)]
    x = x_dot = theta = theta_dot = 0.0
    s = 0
    total = 0.0
    for _ in range(steps):
        row = q[s]
        a = (0 if row[0] >= row[1] else 1) if draw() > 0.1 else (0 if draw() < 0.5 else 1)
        force = 10.0 if a else -10.0
        cos, sin = math.cos(theta), math.sin(theta)
        temp = (force + 0.05 * theta_dot * theta_dot * sin) / 1.1
        theta_acc = (9.8 * sin - cos * temp) / (0.5 * (4.0 / 3.0 - 0.1 * cos * cos / 1.1))
        x_acc = temp - 0.05 * theta_acc * cos / 1.1
        x, x_dot = x + 0.02 * x_dot, x_dot + 0.02 * x_acc
        theta, theta_dot = theta + 0.02 * theta_dot, theta_dot + 0.02 * theta_acc
        done = abs(x) > 2.4 or abs(theta) > 0.2094
        s2 = bucket(theta, 0.2094, 7) * 9 + bucket(theta_dot, 1.7, 9)
        target = 1.0 if done else 1.0 + max(q[s2])
        row[a] += 0.26 * (target - row[a])
        total += row[a]
        if done:
            x, x_dot = draw() * 0.1 - 0.05, draw() * 0.1 - 0.05
            theta, theta_dot = draw() * 0.1 - 0.05, draw() * 0.1 - 0.05
            s2 = bucket(theta, 0.2094, 7) * 9 + bucket(theta_dot, 1.7, 9)
        s = s2
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run in this process."""
    start = time.perf_counter()
    _kernel(KERNEL_STEPS)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(" ".join(f"{kernel_seconds():.4f}" for _ in range(10)))
