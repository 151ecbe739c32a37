"""Tests for deterministic RNG streams."""

import numpy as np

from repro.simengine import seeded_rng


def test_same_seed_same_stream_reproduces():
    a = seeded_rng(1, "net").random(16)
    b = seeded_rng(1, "net").random(16)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = seeded_rng(1, "net").random(16)
    b = seeded_rng(1, "mem").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = seeded_rng(1, "net").random(16)
    b = seeded_rng(2, "net").random(16)
    assert not np.array_equal(a, b)


def test_default_seed_is_stable():
    a = seeded_rng().random(4)
    b = seeded_rng().random(4)
    assert np.array_equal(a, b)
