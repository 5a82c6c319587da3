"""Deterministic seed derivation and exact bulk draws.

Every random choice in the library flows from one root seed through labelled
children, so repeated runs with the same seed reproduce byte for byte.
"""
from __future__ import annotations

import hashlib
import random
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np


def derive_seed(root: int, label: str) -> int:
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(root: int, label: str) -> random.Random:
    return random.Random(derive_seed(root, label))


def choice_indices(
    rng: random.Random, n: int, count: int
) -> tuple[np.ndarray, Callable[[int], None]]:
    """The indices of `count` calls `rng.choice(seq)` on a sequence of length
    n, drawn at once, and `settle(d)`, which leaves `rng` exactly as the
    first d of those calls would have.

    `choice` takes one 32-bit Mersenne Twister word per try, keeps its top
    n.bit_length() bits and retries while they are not below n.
    `getrandbits(32 * k)` returns k such words in the same order, least
    significant first, so the tries are read off its bytes and the
    rejections applied to all of them at once.  The indices are uint32.
    Until `settle` is called, `rng` may have run past the draws; `settle(d)`
    restores the state saved on entry and replays the words of the first d
    draws.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 1 <= n < 1 << 32:
        raise ValueError("n must be between 1 and 2**32 - 1")  # one word per try
    saved = rng.getstate()
    bits = n.bit_length()
    tries, kept = b"", ()
    while len(kept) < count:
        # a try is kept with probability n / 2**bits; draw the expected
        # number for the rest and an eighth more, rarely a second time
        rest = count - len(kept)
        k = (rest << bits) // n + (rest >> 3) + 32
        tries += rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        shifted = np.frombuffer(tries, dtype="<u4") >> (32 - bits)
        kept = np.flatnonzero(shifted < n)
    kept = kept[:count]

    def settle(d: int) -> None:
        rng.setstate(saved)
        if d:
            rng.getrandbits(32 * (int(kept[d - 1]) + 1))

    return shifted[kept], settle


def first_occurrences(keys: Iterable[Hashable]) -> Iterator[tuple[int, Hashable]]:
    """(t, key) for each key of `keys`, read lazily, that no earlier one
    equals.  A deterministic check gives a repeated key the verdict of its
    first trial, so only these trials need deciding, and the first failing
    trial is among them: the first to draw the first failing key."""
    seen: set = set()
    for t, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            yield t, key


def distinct_draws(idx: np.ndarray, arity: int) -> Iterator[tuple[int, tuple]]:
    """`first_occurrences` of the tuples idx[t * arity : (t + 1) * arity]."""
    return first_occurrences(zip(*[iter(idx.tolist())] * arity))


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The values of n calls `rng.random()`, drawn at once.

    `random()` takes two 32-bit words a, b and returns
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53; `getrandbits(64 * n)` returns
    the same words in the same order, least significant first.  The integer
    is below 2**53, so the float division is exact, as in `random()`.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    a, b = words[0::2].astype(np.uint64) >> 5, words[1::2].astype(np.uint64) >> 6
    return (a * (1 << 26) + b) / float(1 << 53)
