"""Seeded random streams.

Every random draw in the package flows from an explicit integer seed through
`derive_rng(seed, *labels)`. The labels name the purpose of the stream
("split-perm", ("context", 3, 12), ...) so that independent consumers never
share or perturb each other's streams. PCG64 keeps the streams portable
across platforms and numpy versions.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Return a Generator determined solely by (seed, labels).

    Labels may be ints, strings, or nested tuples of those; they are folded
    into the seed material via SHA-256 so label collisions are negligible.
    """
    material = repr((int(seed),) + tuple(labels)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy_words(digest))))


def _entropy_words(digest: bytes) -> np.ndarray:
    """The uint32 words SeedSequence makes of the digest's four little-endian
    64-bit ints, built without Python ints: each int gives its low word, then
    its high word only if that is non-zero."""
    words = np.frombuffer(digest, "<u4")
    keep = words != 0
    keep[0::2] = True
    return words[keep]
