"""Deterministic random-number helpers.

All stochastic choices in the simulators (fault-plan arrivals, job
placement shuffles) flow through :func:`fork`, the named-stream front
door, so that experiments are reproducible bit-for-bit given a seed.
``fork`` hands out stdlib :class:`random.Random` streams, so drawing a
fault plan or a placement loads no numpy. :func:`seeded_rng` is the
numpy counterpart, kept for the numerics layer (the ``minimd`` mini-app),
which needs arrays of draws. The simlint ``nondet`` rules (docs/LINT.md)
flag any bypass of this module.

``hashlib`` (OpenSSL, about 1.6 MiB resident) and numpy load on the first
draw, not on import: the analytic drivers import modules that use this
one but never draw.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: Default seed used across the repository's experiments.
DEFAULT_SEED = 20071110  # SC'07 opened 10 Nov 2007


def seeded_rng(seed: int | None = None, stream: str = "") -> np.random.Generator:
    """Return a NumPy ``Generator`` for ``(seed, stream)``.

    numpy-only: it serves the numerics layer (``minimd``), which draws
    arrays. Every other stochastic consumer uses :func:`fork`.

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


def fork(stream_name: str, seed: int | None = None) -> random.Random:
    """Fork a named, independent random stream off an experiment seed.

    This is the one sanctioned way for a stochastic consumer (a fault
    plan's arrivals, a placement shuffle, ...) to obtain randomness:

    * **deterministic** — the same ``(seed, stream_name)`` pair always
      yields a generator producing the identical sequence, so traces and
      figures replay bit-for-bit;
    * **isolated** — the stream is seeded from the first 8 bytes of
      ``sha256(f"{seed}:{stream_name}")``, so distinct stream names give
      unrelated streams and adding a new consumer never perturbs the
      draws seen by existing ones.

    ``seed`` defaults to :data:`DEFAULT_SEED`, the repository-wide
    experiment seed. Example::

        rng_crash = fork("faults.node_crash", seed=exp_seed)
        rng_place = fork("placement", seed=exp_seed)   # independent

    :raises ValueError: if ``stream_name`` is empty — anonymous forks
        would silently collide with one another.
    """
    if not stream_name:
        raise ValueError("fork() requires a non-empty stream name")
    import hashlib

    base = DEFAULT_SEED if seed is None else int(seed)
    digest = hashlib.sha256(f"{base}:{stream_name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
