"""Fixed-length numeric summaries of transport payloads.

Every payload maps to the same row of DIMENSIONS floats regardless of
protocol: byte length, Shannon entropy in bits per byte (0..8),
printable-byte ratio (0..1), and a 16-bucket byte-value histogram,
bucket i counting bytes in [16*i, 16*i+15], normalized to sum to 1 and
all zeros only for the empty payload. LENGTH, ENTROPY, PRINTABLE_RATIO
and HISTOGRAM name the positions. The novelty detectors never look at
payload bytes directly, only at these rows. Featurizing is plain Python
and loads no numpy: a payload is a few dozen bytes, where byte counting
in the interpreter beats numpy's per-call overhead.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = [
    "featurize", "HISTOGRAM_BUCKETS", "DIMENSIONS",
    "LENGTH", "ENTROPY", "PRINTABLE_RATIO", "HISTOGRAM",
]

HISTOGRAM_BUCKETS = 16
DIMENSIONS = 3 + HISTOGRAM_BUCKETS
LENGTH, ENTROPY, PRINTABLE_RATIO = 0, 1, 2
HISTOGRAM = slice(3, DIMENSIONS)

# Printable means the visible ASCII range plus tab, LF, and CR.
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def featurize(payload: bytes) -> tuple[float, ...]:
    """Map a payload to its row. Pure; the empty payload maps to zeros."""
    n = len(payload)
    if n == 0:
        return (0.0,) * DIMENSIONS

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
    return tuple([float(n), entropy, printable_ratio] + [c / n for c in buckets])
