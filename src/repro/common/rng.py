"""Deterministic random-number helpers used by generators and samplers.

Every workload generator takes an explicit ``seed`` so experiments are
reproducible run to run; this module centralises the idioms (derived
sub-seeds, Zipf sampling without scipy at import time, weighted choice).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence


def make_rng(seed: int, *scope: object) -> random.Random:
    """Create an independent ``random.Random`` derived from ``seed``.

    ``scope`` components (e.g. a table name, a task index) are hashed in
    so that sub-generators do not share streams:

    >>> make_rng(7, "orders").random() != make_rng(7, "lineitem").random()
    True
    """
    digest = hashlib.sha256(
        ("|".join([str(seed)] + [str(part) for part in scope])).encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def randbelow(rng: random.Random) -> Callable[[int], int]:
    """``below(n)`` draws what ``rng.randrange(n)`` draws, minus the wrapper
    calls: it is CPython's ``_randbelow_with_getrandbits`` (the same on 3.10
    to 3.13). ``randint(a, b)`` is ``a + below(b - a + 1)`` and ``choice(seq)``
    is ``seq[below(len(seq))]``; ``below(2)`` takes 2 bits, not 1."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class ZipfSampler:
    """Sample integers in ``[0, n)`` with a Zipf(s) popularity skew.

    Precomputes the CDF once, then each draw is a binary search --
    O(log n) per sample, no scipy dependency.
    """

    def __init__(self, n: int, s: float, rng: random.Random):
        if n <= 0:
            raise ValueError("ZipfSampler requires n >= 1")
        self._rng = rng
        weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self) -> int:
        u = self._rng.random()
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def weighted_choice(rng: random.Random, items: Sequence, weights: Sequence[float]):
    """Pick one item with the given (unnormalised) weights."""
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if u <= acc:
            return item
    return items[-1]
