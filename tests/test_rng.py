import struct
from hashlib import sha256

import numpy as np

from unilp.rng import _entropy_words, derive_rng


def test_same_labels_same_stream():
    a = derive_rng(7, "split", 3).integers(0, 1_000_000, size=8)
    b = derive_rng(7, "split", 3).integers(0, 1_000_000, size=8)
    assert np.array_equal(a, b)


def test_any_label_change_alters_stream():
    base = derive_rng(7, "split", 3).integers(0, 1_000_000, size=8)
    for rng in (derive_rng(8, "split", 3), derive_rng(7, "split", 4), derive_rng(7, "other", 3)):
        assert not np.array_equal(base, rng.integers(0, 1_000_000, size=8))


def test_streams_are_independent_of_draw_order():
    # deriving b before or after drawing from a must not matter
    a1 = derive_rng(0, "a")
    _ = a1.random(100)
    b1 = derive_rng(0, "b").random(4)
    b2 = derive_rng(0, "b").random(4)
    assert np.array_equal(b1, b2)


def list_form_words(digest):
    """The digest as four little-endian 64-bit ints: the entropy derive_rng
    once passed PCG64, which SeedSequence turns into uint32 words itself."""
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def test_entropy_words_reseed_exactly_as_the_list_form():
    for seed in range(1000):
        for labels in (("context-pos",), ("hop-cap", seed % 97, 3 * seed), (("context", seed, 12),)):
            material = repr((seed,) + labels).encode("utf-8")
            reference = np.random.Generator(np.random.PCG64(list_form_words(sha256(material).digest())))
            assert np.array_equal(derive_rng(seed, *labels).integers(0, 2**62, size=4),
                                  reference.integers(0, 2**62, size=4)), (seed, labels)
    # zero high halves (dropped by SeedSequence), zero low halves, all zeros
    for ints in ((1, 2, 3, 2**32 - 1), (2**32, 0, 2**63, 5), (0, 0, 0, 0), (2**64 - 1,) * 4):
        digest = struct.pack("<4Q", *ints)
        assert list_form_words(digest) == list(ints)
        want = np.random.SeedSequence(list_form_words(digest)).generate_state(8)
        got = np.random.SeedSequence(_entropy_words(digest)).generate_state(8)
        assert np.array_equal(got, want), ints
