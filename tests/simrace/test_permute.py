"""Tie-break permutation: seeds, install/restore, legal reorderings."""

import pytest

from repro.simengine import Delay, Simulator
from repro.simengine.queue import tie_break_seed
from repro.simrace import DEFAULT_SEED, permutation_seeds, tie_break_permutation


def _queue_order(seed, pushes):
    """Firing order of ``pushes`` = [(time, label, key)] under ``seed``."""
    with tie_break_permutation(seed):
        sim = Simulator()
        out = []
        for time, label, key in pushes:
            sim.schedule(time, lambda label=label: out.append(label), key=key)
        sim.run()
        return out


# -- seed derivation ----------------------------------------------------------

def test_permutation_seeds_are_deterministic_and_distinct():
    a = permutation_seeds(DEFAULT_SEED, 4)
    b = permutation_seeds(DEFAULT_SEED, 4)
    assert a == b
    assert len(set(a)) == 4
    assert permutation_seeds(DEFAULT_SEED + 1, 4) != a


def test_permutation_seeds_rejects_k_below_one():
    with pytest.raises(ValueError):
        permutation_seeds(DEFAULT_SEED, 0)


# -- context manager ----------------------------------------------------------

def test_tie_break_permutation_installs_and_restores():
    assert tie_break_seed() is None
    with tie_break_permutation(123):
        assert tie_break_seed() == 123
        with tie_break_permutation(None):
            assert tie_break_seed() is None
        assert tie_break_seed() == 123
    assert tie_break_seed() is None


def test_restores_previous_seed_on_exception():
    with pytest.raises(RuntimeError):
        with tie_break_permutation(7):
            raise RuntimeError("boom")
    assert tie_break_seed() is None


# -- what a permutation may and may not reorder -------------------------------

SETUP_SIBLINGS = [(1.0, "a", None), (1.0, "b", None), (1.0, "c", None)]


def test_identity_is_insertion_order():
    assert _queue_order(None, SETUP_SIBLINGS) == ["a", "b", "c"]


def test_some_seed_reorders_same_parent_free_entries():
    # All three entries share parent -1 (pushed outside the run loop), so
    # they keep FIFO under *any* seed: the permutation shuffles across
    # parents, never within one.
    assert _queue_order(424242, SETUP_SIBLINGS) == ["a", "b", "c"]


def test_permutation_shuffles_across_parents():
    """Entries pushed by different executing events can swap; per-parent
    program order survives every seed."""

    def run(seed):
        with tie_break_permutation(seed):
            sim = Simulator()
            out = []

            def parent(tag):
                def push():
                    sim.schedule(1.0, lambda: out.append(f"{tag}1"))
                    sim.schedule(1.0, lambda: out.append(f"{tag}2"))
                return push

            sim.schedule(1.0, parent("x"))
            sim.schedule(1.0, parent("y"))
            sim.run()
            return out

    identity = run(None)
    assert identity == ["x1", "x2", "y1", "y2"]
    orders = {tuple(run(seed)) for seed in permutation_seeds(DEFAULT_SEED, 8)}
    for order in orders:
        # Program order within each parent is a hard HB edge.
        assert order.index("x1") < order.index("x2")
        assert order.index("y1") < order.index("y2")
    # At least one of 8 seeds actually exercises the swap.
    assert ("y1", "y2", "x1", "x2") in orders or len(orders) > 1


def test_keyed_entries_are_immune_to_permutation():
    pushes = [
        (1.0, "unkeyed", None),
        (1.0, "second", "k2"),
        (1.0, "first", "k1"),
    ]
    for seed in [None, *permutation_seeds(DEFAULT_SEED, 4)]:
        order = _queue_order(seed, pushes)
        # Keyed entries fire first, in key order, under every seed.
        assert order == ["first", "second", "unkeyed"]


def test_spawn_key_pins_process_wakeups_under_every_seed():
    """`spawn(key=...)` tags every wakeup a process schedules, so two
    racing processes with distinct keys interleave identically under
    any permutation — the mechanism behind Comm.isend's keyed
    transfers (NIC/link arbitration order)."""

    def run(seed):
        with tie_break_permutation(seed):
            sim = Simulator()
            out = []

            def worker(tag):
                yield Delay(1.0)
                out.append(tag)
                yield Delay(1.0)
                out.append(tag.upper())

            # Spawn in anti-key order: the keys, not insertion, decide.
            sim.spawn(worker("b"), key="k2")
            sim.spawn(worker("a"), key="k1")
            sim.run()
            return out

    expected = run(None)
    assert expected == ["a", "b", "A", "B"]
    for seed in permutation_seeds(DEFAULT_SEED, 6):
        assert run(seed) == expected


def test_time_order_always_dominates():
    pushes = [(3.0, "late", None), (1.0, "early", None), (2.0, "mid", "z")]
    for seed in [None, *permutation_seeds(DEFAULT_SEED, 4)]:
        assert _queue_order(seed, pushes) == ["early", "mid", "late"]
