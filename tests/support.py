"""Helpers that only the tests use, kept out of the ``cfl`` package.

``strip_timings`` drops the one report field that differs between reruns,
so the golden and reproducibility tests can compare reports.

``bulk_u64`` and ``bulk_random`` are the vectorised (numpy) form of the
package's SplitMix64 stream.  The stream is counter-based, so they give the
same values as repeated ``SplitMix64(seed).next_u64()`` and ``.random()``
calls; criterion 6 and the ``random_gnp`` reference test draw from them.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from cfl.rng import _GOLDEN


def bulk_u64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs [start, start+count) of the SplitMix64 stream, vectorised.

    Identical values to repeated SplitMix64(seed).next_u64() calls.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def bulk_random(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform floats in [0,1), matching SplitMix64.random() bit-for-bit."""
    return (bulk_u64(seed, count, start) >> np.uint64(11)) * 2.0**-53


def strip_timings(report: Mapping) -> Dict:
    out = dict(report)
    out.pop("timings", None)
    return out
