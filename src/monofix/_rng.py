"""Deterministic seed derivation and exact bulk draws.

Every random choice in the library flows from one root seed through labelled
children, so repeated runs with the same seed reproduce byte for byte.
"""
from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np


def derive_seed(root: int, label: str) -> int:
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(root: int, label: str) -> random.Random:
    return random.Random(derive_seed(root, label))


def words(rng: random.Random, k: int) -> np.ndarray:
    """The next k 32-bit Mersenne Twister words of `rng`, in order:
    `getrandbits(32 * k)` returns them least significant first."""
    return np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")


def _unit_floats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`random()` of the word pairs (a, b): ((a >> 5) * 2**26 + (b >> 6)) /
    2**53.  The integer is below 2**53, so the float division is exact."""
    a, b = a.astype(np.uint64) >> 5, b.astype(np.uint64) >> 6
    return (a * (1 << 26) + b) / float(1 << 53)


def _bits(n: int) -> int:
    """The bits that `_randbelow(n)` keeps of each 32-bit word it tries."""
    if not 1 <= n < 1 << 32:
        raise ValueError("n must be between 1 and 2**32 - 1")  # one word per try
    return n.bit_length()


class WordBlock:
    """A block of 32-bit words read as the `random` module's draws read
    them, at arrays of positions.  A draw that runs past the block ends past
    it, at len(words) or later, and its values are then meaningless.

    - `tries(n)`: `_randbelow(n)` (`randrange`, `randint`, `choice`) takes
      one word per try, keeps its top n.bit_length() bits and retries while
      they are not below n.  The positions of the kept tries, then
      len(words); and each word's value as a try.
    - `kept(n, p, j)`: the position of the try that the j-th (from 0) of
      successive draws from p keeps.
    - `value(n, at)`: the value of the try at `at`.
    - `random(p)`: the value of `random()` from p, which takes the two
      words at p and p + 1.
    """

    def __init__(self, block: np.ndarray) -> None:
        self.words = block
        self._tries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._before: dict[int, np.ndarray] = {}

    def tries(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n not in self._tries:
            values = self.words >> (32 - _bits(n))
            self._tries[n] = (np.append(np.flatnonzero(values < n), len(values)), values)
        return self._tries[n]

    def kept(self, n: int, p: np.ndarray, j: Any = 0) -> np.ndarray:
        kept, values = self.tries(n)
        if n not in self._before:
            # the number of kept tries before each position, and before len(words)
            self._before[n] = np.concatenate(((0,), np.cumsum(values < n)))
        return kept.take(self._before[n].take(p, mode="clip") + j, mode="clip")

    def value(self, n: int, at: np.ndarray) -> np.ndarray:
        return self.tries(n)[1].take(at, mode="clip")

    def random(self, p: np.ndarray) -> np.ndarray:
        return _unit_floats(self.words.take(p, mode="clip"), self.words.take(p + 1, mode="clip"))


def replay(
    rng: random.Random, count: int, per_trial: int, end: Callable[[WordBlock, np.ndarray], np.ndarray]
) -> tuple[WordBlock, np.ndarray]:
    """The words of `count` trials of draws from `rng`, drawn at once, and
    the position of each trial's first word; `rng` is left after the last
    trial, as the trials would leave it.

    A trial is a fixed program of draws that each take whole words, as
    `randint`, `choice` and `random` do.  `end(block, p)` runs it on a
    `WordBlock` from an array p of first words and returns each trial's
    end, the position after its last word.  Run from every word of the
    block, it maps each word to the first word of the next trial, and the
    trials start at word 0, its image, its image's image, and so on.
    `per_trial` is a guess of the words a trial takes; a block too short
    for `count` trials is doubled.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    saved = rng.getstate()
    block = WordBlock(words(rng, count * per_trial + 64))
    while True:
        size = len(block.words)
        # a trial that runs past the block ends at size + 1, which maps to itself
        ends = np.minimum(end(block, np.arange(size)), size + 1)
        following = memoryview(np.append(ends, (size + 1, size + 1)))
        p, starts = 0, [0] * count
        for t in range(count):
            starts[t] = p
            p = following[p]
        if p <= size:
            break
        block = _longer(rng, block)
    _advance(rng, saved, p)
    return block, np.array(starts)


def _longer(rng: random.Random, block: WordBlock) -> WordBlock:
    """`block` followed by as many more words of `rng`."""
    return WordBlock(np.concatenate((block.words, words(rng, len(block.words)))))


def _advance(rng: random.Random, saved: tuple, p: int) -> None:
    """Leave `rng` p words after the state `saved`."""
    rng.setstate(saved)
    rng.getrandbits(32 * p)


def choice_indices(
    rng: random.Random, n: int, count: int
) -> tuple[np.ndarray, Callable[[int], None]]:
    """The indices of `count` calls `rng.choice(seq)` on a sequence of length
    n, drawn at once, and `settle(d)`, which leaves `rng` exactly as the
    first d of those calls would have.

    The draws are successive `_randbelow(n)` tries on one `WordBlock`, read
    as `replay` reads them.  Until `settle` is called, `rng` may have run
    past the draws.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    # a try is kept with probability n / 2**bits; draw the expected number
    # and an eighth more
    guess = (count << _bits(n)) // n + (count >> 3) + 32
    saved = rng.getstate()
    block = WordBlock(words(rng, guess))
    while (at := block.tries(n)[0][:count])[-1] >= len(block.words):
        block = _longer(rng, block)

    def settle(d: int) -> None:
        _advance(rng, saved, int(at[d - 1]) + 1 if d else 0)

    return block.value(n, at), settle


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


FIRST_ALONE = 4  # first draws decided one by one, before bulk work: a check often fails at once


def distinct_draws(idx: np.ndarray, arity: int) -> Iterator[tuple[int, tuple]]:
    """`first_occurrences` of the tuples idx[t * arity : (t + 1) * arity] of
    nonnegative integers: of the first `FIRST_ALONE` one by one, then of the
    rest by one `np.unique` of an integer code per tuple (or of the tuples, a
    slower sort, if a code could overflow)."""
    draws = idx.reshape(-1, arity)
    yield from first_occurrences(map(tuple, draws[:FIRST_ALONE].tolist()))
    n = int(idx.max()) + 1
    codes = draws @ n ** np.arange(arity) if n**arity < 1 << 62 else draws
    first = np.sort(np.unique(codes, return_index=True, axis=None if codes.ndim == 1 else 0)[1])
    first = first[first >= FIRST_ALONE]
    yield from zip(first.tolist(), map(tuple, draws[first].tolist()))


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The values of n calls `rng.random()`, drawn at once: each takes two
    words, in order."""
    pairs = words(rng, 2 * n)
    return _unit_floats(pairs[0::2], pairs[1::2])
