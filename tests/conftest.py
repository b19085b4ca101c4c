"""Shared fixtures: the nine rings, brute-force lattice boxes used as
oracles, and deterministic element generators."""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import HealthCheck, settings

from quadperfect import ADMISSIBLE_D, QuadInt, Ring, factor

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("suite")

ALL_D = ADMISSIBLE_D
NORM2_D = (-1, -2, -7)


@pytest.fixture(params=ALL_D, ids=lambda d: f"d={d}")
def rg(request) -> Ring:
    return Ring(request.param)


@pytest.fixture
def factor_calls(monkeypatch) -> list[QuadInt]:
    """The arguments of every call to factor while the test runs, whichever
    quadperfect module the caller looked the name up in."""
    calls = []

    def counting(z):
        calls.append(z)
        return factor(z)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadperfect" and vars(module).get("factor") is factor:
            monkeypatch.setattr(module, "factor", counting)
    return calls


def box_elements(rg: Ring, amax: int, bmax: int) -> list[QuadInt]:
    """Every nonzero element with |a| <= amax, |b| <= bmax."""
    out = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if a or b:
                out.append(rg.element(a, b))
    return out


def norm_ball_brute(rg: Ring, bound: int) -> set[QuadInt]:
    """Canonical representatives with 1 <= N <= bound, by reducing a raw
    coordinate box that provably covers the ball.

    Plain basis: N = a^2 + |d| b^2, so |a| <= sqrt(bound) and
    |b| <= sqrt(bound/|d|).  Half-integer basis: 4N = (2a+b)^2 + |d| b^2,
    so |b| <= sqrt(4*bound/|d|) and |2a+b| <= 2 sqrt(bound).
    """
    amax = math.isqrt(bound) + 1
    bmax = math.isqrt(4 * bound // -rg.d) + 1
    reps = set()
    for z in box_elements(rg, amax + bmax, bmax):
        if 1 <= z.norm() <= bound:
            reps.add(z.canonical_associate())
    return reps


def random_elements(rg: Ring, count: int, coord: int, seed: int) -> list[QuadInt]:
    """Deterministic nonzero sample with coordinates in [-coord, coord]."""
    rnd = random.Random(seed * 1000003 - rg.d)
    out = []
    while len(out) < count:
        a = rnd.randint(-coord, coord)
        b = rnd.randint(-coord, coord)
        if a or b:
            out.append(rg.element(a, b))
    return out
