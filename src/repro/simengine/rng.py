"""Deterministic random-number helpers.

All stochastic choices in the simulators (random-ring orderings, RandomAccess
address streams, job placement shuffles) flow through ``seeded_rng`` — or its
named-stream front door :func:`fork` — so that experiments are reproducible
bit-for-bit given a seed. The simlint ``nondet`` rules (docs/LINT.md) flag
any bypass of this module.

numpy loads on the first draw, not on import: the analytic drivers import
modules that use this one but never draw, and so never load numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default seed used across the repository's experiments.
DEFAULT_SEED = 20071110  # SC'07 opened 10 Nov 2007


def seeded_rng(seed: int | None = None, stream: str = "") -> np.random.Generator:
    """Return a NumPy ``Generator`` for ``(seed, stream)``.

    ``stream`` namespaces independent random streams derived from one
    experiment seed, so adding a new consumer never perturbs existing ones.
    """
    import numpy as np

    base = DEFAULT_SEED if seed is None else int(seed)
    if stream:
        # Stable 64-bit mix of the stream name into the seed.
        h = 1469598103934665603
        for ch in stream.encode():
            h = ((h ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        seq = np.random.SeedSequence(entropy=base, spawn_key=(h & 0x7FFFFFFF,))
    else:
        seq = np.random.SeedSequence(entropy=base)
    return np.random.default_rng(seq)


def fork(stream_name: str, seed: int | None = None) -> np.random.Generator:
    """Fork a named, independent random stream off an experiment seed.

    This is the one sanctioned way for a new stochastic consumer (a
    placement shuffle, a RandomAccess address stream, a random-ring
    ordering, ...) to obtain randomness:

    * **deterministic** — the same ``(seed, stream_name)`` pair always
      yields a generator producing the identical sequence, so traces and
      figures replay bit-for-bit;
    * **isolated** — distinct stream names give statistically independent
      streams (distinct ``SeedSequence`` spawn keys), so adding a new
      consumer never perturbs the draws seen by existing ones.

    ``seed`` defaults to :data:`DEFAULT_SEED`, the repository-wide
    experiment seed. Example::

        rng_ring = fork("ring-order", seed=exp_seed)
        rng_addr = fork("ra-addresses", seed=exp_seed)   # independent

    :raises ValueError: if ``stream_name`` is empty — anonymous forks
        would silently collide with the root stream.
    """
    if not stream_name:
        raise ValueError("fork() requires a non-empty stream name")
    return seeded_rng(seed, stream=stream_name)
