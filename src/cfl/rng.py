"""Deterministic randomness for every experiment in the package.

All randomness flows from a single 64-bit master seed through SplitMix64
(Steele, Lea, Flood 2014).  SplitMix64 is counter-based: output k of a
stream seeded with s is mix64(s + (k+1)*GOLDEN), so sequential and bulk
(vectorised) generation produce identical streams, and the generator is
trivial to re-implement bit-for-bit in any language.  Reports record the
generator name so runs stay auditable.  The package itself only draws
sequentially and needs no numpy; the tests' vectorised form of the stream
lives with the tests.

Per-task streams are derived from (master seed, label path) via SHA-256,
never by ad-hoc arithmetic, so adding a new consumer of randomness cannot
shift the stream seen by existing ones.  Every SHA-256 in cfl is this
module's ``sha256``: the interpreter's own, not OpenSSL's via ``hashlib``.
"""

from __future__ import annotations

import sys

try:    # the module was renamed in 3.12
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:     # an interpreter built without its own SHA-256
    from hashlib import sha256

GENERATOR_NAME = "splitmix64"

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 64-bit stream seed from a master seed and labels.

    Labels may be strings or integers; the derivation is the first 8 bytes of
    SHA-256 over their canonical textual form.
    """
    h = sha256()
    h.update(str(int(master) & _MASK).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = (_MASK + 1) - (_MASK + 1) % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, in place, with each ``randrange(i + 1)`` inline."""
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            z = 2**64                   # no draw yet
            while z >= 2**64 - 2**64 % (i + 1):
                state = (state + _GOLDEN) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                z ^= z >> 31
            j = z % (i + 1)
            items[i], items[j] = items[j], items[i]
        self._state = state

    def sample(self, pool, k: int) -> list:
        """k distinct items of ``pool``: the first k of a Fisher-Yates
        shuffle of a copy (all of them when k >= len(pool))."""
        items = list(pool)
        self.shuffle(items)
        return items[:k]

