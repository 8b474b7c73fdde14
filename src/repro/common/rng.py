"""Deterministic seeded random-number derivation.

All stochastic decisions in the reproduction — fault draws, failure
probabilities, attempt dooms — must be (a) deterministic for a given
seed and (b) independent of execution order, or two runs of the same
query would diverge and the byte-identical-results acceptance tests
would flake.  The engines therefore never share one RNG stream;
instead every decision point derives its own :class:`random.Random`
from a stable tuple of identifiers (job id, task id, attempt number,
...), hashed with SHA-256 so neighbouring tuples decorrelate fully.

>>> derive_rng(7, "job-1", "map-3", 0).random() == \\
...     derive_rng(7, "job-1", "map-3", 0).random()
True
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, Union

Part = Union[str, int, float]


def derive_seed(*parts: Part) -> int:
    """Collapse *parts* into a stable 64-bit seed.

    Parts are rendered with an explicit type tag so ``derive_seed(1)``
    and ``derive_seed("1")`` differ.
    """
    digest = hashlib.sha256(
        "\x1f".join(f"{type(p).__name__}:{p}" for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(*parts: Part) -> random.Random:
    """A fresh :class:`random.Random` seeded from *parts*.

    Deterministic per tuple: the same (seed, job, task, attempt) always
    yields the same stream, regardless of how many other draws happened
    elsewhere in the run.
    """
    return random.Random(derive_seed(*parts))


# -- the stdlib's draws without the stdlib's frames ------------------------
#
# A data generator makes millions of ``choice`` / ``randint`` / ``uniform``
# draws, each three or four Python frames deep in ``random.py`` before it
# reaches ``getrandbits``.  The factories below return a zero-argument
# draw bound to one ``(rng, arguments)`` pair that consumes *rng*'s stream
# exactly as the method of the same name does (CPython's
# ``_randbelow_with_getrandbits``: ``k = n.bit_length()``, reject
# ``r >= n``), so a generator that switches to them produces the same
# rows from the same seed (``tests/test_dbgen_reference.py``).

def draw_randint(rng: random.Random, a: int, b: int) -> Callable[[], int]:
    """``lambda: rng.randint(a, b)``, same stream."""
    getrandbits = rng.getrandbits
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    return draw


def draw_choice(rng: random.Random, seq: Sequence) -> Callable[[], object]:
    """``lambda: rng.choice(seq)``, same stream (*seq* must not change
    length afterwards)."""
    getrandbits = rng.getrandbits
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()

    def draw():
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return draw


def draw_uniform(rng: random.Random, a: float, b: float) -> Callable[[], float]:
    """``lambda: rng.uniform(a, b)``, same stream and the same float
    operations in the same order."""
    rand = rng.random
    span = b - a
    return lambda: a + span * rand()
