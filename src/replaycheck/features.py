"""Fixed-length numeric summaries of transport payloads.

Every payload maps to the same 19 dimensions regardless of protocol:
byte length, Shannon entropy, printable-byte ratio, and a 16-bucket
byte-value histogram. The novelty detectors never look at payload bytes
directly, only at these vectors. Featurizing is plain Python and loads
no numpy: a payload is a few dozen bytes, where byte counting in the
interpreter beats numpy's per-call overhead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

__all__ = ["FeatureVector", "featurize", "HISTOGRAM_BUCKETS", "DIMENSIONS"]

HISTOGRAM_BUCKETS = 16
DIMENSIONS = 3 + HISTOGRAM_BUCKETS

# Printable means the visible ASCII range plus tab, LF, and CR.
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"


@dataclass(frozen=True)
class FeatureVector:
    """One payload's feature row.

    entropy is in bits per byte (0..8). byte_histogram has 16 entries,
    bucket i counting bytes in [16*i, 16*i+15], normalized to sum to 1;
    it is all zeros only for the empty payload.
    """

    length: int
    entropy: float
    printable_ratio: float
    byte_histogram: tuple[float, ...]

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0.0 <= self.entropy <= 8.0:
            raise ValueError(f"entropy {self.entropy} outside [0, 8]")
        if not 0.0 <= self.printable_ratio <= 1.0:
            raise ValueError(f"printable_ratio {self.printable_ratio} outside [0, 1]")
        if len(self.byte_histogram) != HISTOGRAM_BUCKETS:
            raise ValueError(f"histogram must have {HISTOGRAM_BUCKETS} buckets")
        total = sum(self.byte_histogram)
        if any(v < 0 for v in self.byte_histogram):
            raise ValueError("histogram entries must be non-negative")
        if total != 0.0 and abs(total - 1.0) > 1e-9:
            raise ValueError(f"histogram must sum to 1 or be all zero, got {total}")

    def as_row(self) -> tuple[float, ...]:
        """The DIMENSIONS floats the models read, in field order."""
        return (float(self.length), self.entropy, self.printable_ratio, *self.byte_histogram)


def featurize(payload: bytes) -> FeatureVector:
    """Map a payload to its FeatureVector. Pure; empty payload maps to zeros."""
    n = len(payload)
    if n == 0:
        return FeatureVector(0, 0.0, 0.0, (0.0,) * HISTOGRAM_BUCKETS)

    counts = Counter(payload)
    # fsum rounds the sum once, so the order of the byte counts cannot
    # move the result; clamping keeps a rounded term inside [0, 8] and
    # turns a one-symbol payload's -0.0 into 0.0.
    entropy = -math.fsum(c / n * math.log2(c / n) for c in counts.values())
    entropy = min(max(0.0, entropy), 8.0)

    printable_ratio = (n - len(payload.translate(None, _PRINTABLE))) / n
    buckets = [0] * HISTOGRAM_BUCKETS
    for value, count in counts.items():
        buckets[value >> 4] += count
    # Per-op tuples are built from a list, as here, never from a generator
    # or map: tuple(iterator) cannot know its length, so it grows a fresh
    # tuple instead of reusing one from CPython's per-length free list, and
    # each such tuple freed parks on that list (up to 2,000 per length, and
    # on 3.11 and 3.12 a freed 20-tuple is never reused), so a long run's
    # memory would keep growing.
    return FeatureVector(n, entropy, printable_ratio, tuple([c / n for c in buckets]))
