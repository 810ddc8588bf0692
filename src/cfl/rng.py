"""Deterministic randomness for every experiment in the package.

All randomness flows from a single 64-bit master seed through SplitMix64
(Steele, Lea, Flood 2014).  SplitMix64 is counter-based: output k of a
stream seeded with s is mix64(s + (k+1)*GOLDEN), so sequential and bulk
(vectorised) generation produce identical streams, and the generator is
trivial to re-implement bit-for-bit in any language.  Reports record the
generator name so runs stay auditable.  ``shuffle`` mixes its draws in bulk:
the next states sit in 128-bit lanes of one int, each lane's 64-bit product
never carries into the next, so a handful of int operations mix up to
``_CHUNK`` outputs at once; it then rejects exactly as ``randrange`` does,
so the stream and the permutation are those of one ``randrange(i + 1)`` per
swap.  Every other draw is sequential.  The package needs no numpy; the
tests' vectorised form of the stream lives with the tests.

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
_SPAN = _MASK + 1

# The most outputs one bulk mix computes, and the lane constants built so
# far: (lanes, ones, steps, low), where lane k (from 0) of ``ones`` holds 1,
# of ``steps`` (k + 1) * _GOLDEN and of ``low`` 2^64 - 1.  They grow by
# doubling on first use, so a process that never shuffles pays nothing.
_CHUNK = 4096
_lanes = (0, 0, 0, 0)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mixed(state: int, count: int):
    """Outputs 1..count of the stream whose state is ``state``, as one
    ``mix64`` over ``count`` 128-bit lanes of one int (count <= _CHUNK)."""
    global _lanes
    lanes, ones, steps, low = _lanes
    if lanes < count:
        lanes, ones, steps = 1, 1, _GOLDEN
        while lanes < count:
            width = lanes << 7
            steps |= (steps + lanes * _GOLDEN * ones) << width
            ones |= ones << width
            lanes <<= 1
        low = ones * _MASK
        _lanes = (lanes, ones, steps, low)
    keep = (1 << (count << 7)) - 1
    # a lane's top 64 bits are zero before each multiply, so its product
    # stays in the lane; the shifts' spill from the next lane is masked off
    z = (state * (ones & keep) + (steps & keep)) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    z ^= z >> 31
    words = memoryview(z.to_bytes(count << 4, sys.byteorder)).cast("Q")
    return words[::2] if sys.byteorder == "little" else words[::-2]


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
        limit = _SPAN - _SPAN % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, in place, drawing as ``randrange(i + 1)`` for swap i.

        Draws come from ``_mixed`` in chunks of at most as many as swaps
        remain, so none is left over; a rejected draw leaves its swap to the
        next one, or to the next chunk.
        """
        state = self._state
        safe = _SPAN - len(items)   # no bound i + 1 rejects a draw below it
        i = len(items) - 1
        while i > 0:
            count = min(i, _CHUNK)
            draws = _mixed(state, count)
            state = (state + count * _GOLDEN) & _MASK
            for z in draws:
                if z < safe or z < _SPAN - _SPAN % (i + 1):
                    j = z % (i + 1)
                    items[i], items[j] = items[j], items[i]
                    i -= 1
        self._state = state

    def sample(self, pool, k: int) -> list:
        """k distinct items of ``pool``: the first k of a Fisher-Yates
        shuffle of a copy (all of them when k >= len(pool))."""
        items = list(pool)
        self.shuffle(items)
        return items[:k]

