"""Seed derivation for reproducible, independently seeded operation streams.

Every randomized operation in this package draws from its own stream, keyed by
``(seed, tag, index)``.  The key is hashed (BLAKE2b, 8 bytes) into a 64-bit
integer, which seeds either a ``random.Random`` (Mersenne Twister) for
element-wise draws or a numpy PCG64 generator for bulk draws.  A third use
draws in bulk from an element-wise stream: ``mt_continuation`` hands the
state of a ``random.Random`` to numpy's MT19937, whose ``random(k)`` then
returns the next k values of ``random()`` (both build a double from two
32-bit words, genrand_res53), so a loop can become array code without
changing one draw.  Identical keys give bit-identical streams on every
platform; distinct tags never collide in practice, so operations can run in
any order (or concurrently) without perturbing each other.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = ["derive_seed", "stream", "np_stream", "mt_continuation"]


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """64-bit sub-seed for the stream named ``tag``/``index`` under ``seed``.

    ``seed`` must be an int, not a bool: the key formats it as text, so an
    object whose text holds its address, such as a ``random.Random``, would
    key a different stream in every process.  TypeError otherwise.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    key = f"{seed}:{tag}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def stream(seed: int, tag: str, index: int = 0) -> random.Random:
    """Element-wise RNG stream (Mersenne Twister) for one operation."""
    return random.Random(derive_seed(seed, tag, index))


def np_stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Bulk-draw RNG stream (PCG64) for one operation."""
    return np.random.default_rng(derive_seed(seed, tag, index))


def mt_continuation(r: random.Random) -> np.random.Generator:
    """numpy generator that continues ``r``'s Mersenne Twister where it stands.

    Its ``random(k)`` gives the k values that ``[r.random() for _ in
    range(k)]`` would; ``r`` itself is not advanced.
    """
    _, internal, _ = r.getstate()
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(internal[:624], dtype=np.uint32),
                            "pos": internal[624]}}
    return np.random.Generator(bits)
