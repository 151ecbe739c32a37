"""Content-addressed on-disk cache of experiment results.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
        v2/
            ab/
                ab3f...e2.json     # one entry per cache key

Each entry is a self-describing JSON document: the key, the experiment
id, the measured execution wall time, the shape-check verdict
(``passed``) and the serialized
:class:`~repro.core.experiment.ExperimentResult`. Entries are written
atomically (temp file + ``os.replace``) so a crashed or concurrent run
never leaves a truncated entry; unreadable entries are treated as misses
and overwritten.

The key (see :mod:`repro.runner.fingerprint`) addresses *content*: two
trees with identical ``repro`` source and fault plan share results; any
divergence misses. The key fixes the shape checks' source too, so the
stored verdict is the verdict a re-check would give.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Optional, Union

from repro.core.experiment import ExperimentResult
from repro.runner.atomic import defer_sigint

#: Bump when the entry schema changes; lives in the directory layout so
#: old and new schemas never collide.
SCHEMA = "v2"

DEFAULT_CACHE_DIR = ".repro-cache"


class CacheEntry:
    """One stored experiment result plus its provenance."""

    def __init__(
        self,
        key: str,
        exp_id: str,
        wall_s: float,
        passed: bool,
        result: ExperimentResult,
    ) -> None:
        self.key = key
        self.exp_id = exp_id
        self.wall_s = wall_s
        self.passed = passed
        self.result = result

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "exp_id": self.exp_id,
            "wall_s": self.wall_s,
            "passed": self.passed,
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheEntry":
        return cls(
            key=data["key"],
            exp_id=data["exp_id"],
            wall_s=float(data["wall_s"]),
            passed=bool(data["passed"]),
            result=ExperimentResult.from_dict(data["result"]),
        )


class ResultCache:
    """Filesystem-backed result store keyed by fingerprint."""

    def __init__(
        self, root: Union[str, pathlib.Path] = DEFAULT_CACHE_DIR
    ) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path: two-level fan-out keeps directories small."""
        return self.root / SCHEMA / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry stored under ``key``, or ``None`` (miss).

        A corrupt, truncated or schema-incompatible entry is a miss,
        never an error — the runner recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            entry = CacheEntry.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if entry.key != key:
            return None
        return entry

    def put(self, entry: CacheEntry) -> pathlib.Path:
        """Atomically store ``entry``; returns the entry path.

        SIGINT is deferred across the write-then-replace so an
        operator's Ctrl-C cannot abandon the temp file or interrupt
        between serialization and publication — the entry either fully
        appears or the temp file is removed, and the interrupt is
        delivered right after.
        """
        path = self.path_for(entry.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with defer_sigint():
                with os.fdopen(fd, "w") as fh:
                    # No sort_keys: column order of table rows is
                    # semantic and must survive the round-trip
                    # byte-identically.
                    json.dump(entry.to_dict(), fh)
                os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def entries(self) -> int:
        """Number of stored entries (for diagnostics)."""
        base = self.root / SCHEMA
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.json"))
