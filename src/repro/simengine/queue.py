"""Pending-event priority queue with deterministic tie-breaking.

Entries at the same timestamp are ordered by a three-level rule:

1. **keyed** entries (``push(..., key="...")``) fire before unkeyed ones,
   in lexicographic key order — an *explicit* tie-break that stays fixed
   under any permutation seed;
2. **unkeyed** entries fire in insertion order (the monotone sequence
   number) — the historical FIFO behaviour;
3. under an installed **permutation seed** (:func:`set_tie_break_seed`),
   unkeyed entries are reordered *across* scheduling parents while
   insertion order is preserved *within* each parent. Program order —
   two pushes made by the same executing event — must survive; the
   relative order of events scheduled by unrelated parents is exactly
   the arbitrariness the schedule-race certifier (see
   :mod:`repro.simrace`) shakes. An entry's parent is the entry that was
   executing when it was pushed (``-1`` outside the run loop).

Hot-path layout: each heap item is a mutable list that is also the
entry's cancellable handle,

    ``[time, group, key, rank1, seq, callback, dead]``

read through the ``T``/``SEQ``/``CB``/``DEAD`` index constants. Lists
compare element by element in C, so every sift during
``heappush``/``heappop`` runs without a Python-level ``__lt__``. The
first five slots encode the three-level rule:

* keyed entries:      ``[time, 0, key, seq, seq, ...]``
* unkeyed (identity): ``[time, 1, "", seq, seq, ...]``
* unkeyed (permuted): ``[time, 1, "", mix(seed, parent), seq, ...]``

``seq`` is unique, so the comparison never reaches ``callback`` or
``dead``, and flipping ``dead`` in place never disturbs the heap.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

_M64 = 0xFFFFFFFFFFFFFFFF

#: Heap-item slots: firing time, sequence number, callback and the
#: dead flag (cancelled, or already fired).
T, SEQ, CB, DEAD = 0, 4, 5, 6

#: Installed tie-break permutation seed (``None`` = identity order).
#: Module-global like the installed tracer, so a seed installed by
#: the certifier reaches simulators constructed deep inside drivers.
_PERM_SEED: Optional[int] = None


def set_tie_break_seed(seed: Optional[int]) -> Optional[int]:
    """Install a tie-break permutation seed; returns the previous one.

    ``None`` restores the identity order (pure insertion order among
    unkeyed same-time entries). Prefer the
    :func:`repro.simrace.tie_break_permutation` context manager, which
    restores the previous seed automatically.
    """
    global _PERM_SEED
    previous = _PERM_SEED
    _PERM_SEED = None if seed is None else int(seed)
    return previous


def tie_break_seed() -> Optional[int]:
    """The installed tie-break permutation seed, or ``None``."""
    return _PERM_SEED


def _mix(seed: int, parent: int) -> int:
    """Stable 64-bit mix of (seed, parent group) — splitmix64 finalizer."""
    x = (seed * 0x9E3779B97F4A7C15 + (parent + 1) * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class EventQueue:
    """Min-heap of timed callbacks; deterministic among equal timestamps.

    Entries may be cancelled lazily: :meth:`cancel` marks the entry dead
    and the run loop (:meth:`repro.simengine.simulator.Simulator.run`,
    the only consumer) skips dead entries, so cancellation is O(1).
    """

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._next_seq = 0
        self._live = 0
        # seq of the entry the run loop is executing: the scheduling parent
        # of every push made while its callback runs (-1 before the first).
        self._current_seq = -1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        key: Optional[str] = None,
    ) -> list:
        """Schedule ``callback`` at ``time``; returns a cancellable handle
        (the heap item itself).

        ``key`` pins the entry's order among same-time entries (keyed
        entries fire first, in key order) independent of any installed
        tie-break permutation.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        if key is not None:
            # Explicitly keyed: pinned order, immune to permutation.
            item = [time, 0, str(key), seq, seq, callback, False]
        elif _PERM_SEED is None:
            item = [time, 1, "", seq, seq, callback, False]
        else:
            # Permute across parents, keep FIFO within a parent.
            item = [time, 1, "", _mix(_PERM_SEED, self._current_seq), seq,
                    callback, False]
        heappush(self._heap, item)
        self._live += 1
        return item

    def cancel(self, item: list) -> None:
        """Mark ``item`` dead so it is skipped when popped. A no-op on an
        entry that already fired or was cancelled."""
        if not item[DEAD]:
            item[DEAD] = True
            self._live -= 1

    def shift_all(self, delta: float) -> None:
        """Postpone every pending entry by ``delta`` seconds.

        A uniform shift preserves both the heap invariant and the
        tie-breaking ranks, so no re-heapify is needed. Used by
        :meth:`~repro.simengine.simulator.Simulator.freeze` to model a
        global machine pause (coordinated checkpoint, crash recovery).
        """
        # In place: the run loop and outstanding handles hold these very
        # lists.
        for item in self._heap:
            item[T] += delta
