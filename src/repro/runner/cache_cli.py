"""``repro cache verify`` — result-store hygiene.

The content-addressed store is self-healing at read time (a corrupt
entry is a miss), but a long-lived cache accumulates debris that reads
alone never clean up: entries torn by power loss, files copied under
the wrong key, temp files abandoned by SIGKILL, and whole stores left
behind by an earlier schema. ``verify`` makes that hygiene explicit::

    repro cache verify                 # report corrupt/misplaced/tmp/stale debris
    repro cache verify --delete        # ... and remove it

Deleting an entry is always safe: the store is a cache of deterministic
computations — the runner recomputes on miss. A ``.tmp-*`` file changed
in the last ``TMP_GRACE_S`` seconds is a live writer's, between
``mkstemp`` and ``os.replace``: ``verify`` neither lists nor deletes it.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from dataclasses import dataclass, field
from typing import List

from repro.runner.cache import SCHEMA, CacheEntry, ResultCache

__all__ = ["scan", "verify"]

#: Names of store directories, current and retired: result stores
#: ``v<N>`` and schedule-race certificate stores ``race-v<N>``.
_STORE_DIR = re.compile(r"(race-)?v[0-9]+")

#: A ``.tmp-*`` file modified less than this many seconds ago belongs to
#: an in-flight ``ResultCache.put``; only older ones are abandoned.
TMP_GRACE_S = 60.0


def _retired_stores(root: pathlib.Path) -> List[pathlib.Path]:
    """Every retired store directory of ``root``.

    A retired store is a top-level directory named ``v<N>`` or
    ``race-v<N>`` other than the current ``SCHEMA``; no reader ever
    opens it again. Nothing else under ``root`` qualifies, so pointing
    ``--cache-dir`` at a working directory cannot touch unrelated files.
    """
    if not root.is_dir():
        return []
    return [
        store
        for store in sorted(root.iterdir())
        if store.name != SCHEMA
        and _STORE_DIR.fullmatch(store.name)
        and store.is_dir()
        and not store.is_symlink()
    ]


def _stale_files(root: pathlib.Path) -> List[pathlib.Path]:
    """Every file under a retired store of ``root``."""
    return [
        path
        for store in _retired_stores(root)
        for path in sorted(store.rglob("*"))
        if path.is_file()
    ]


def _prune_retired(root: pathlib.Path) -> None:
    """Remove the emptied directories of every retired store, the store
    itself included; a directory that still holds anything stays.

    Only retired stores are pruned: ``ResultCache.put`` does ``mkdir``
    then ``mkstemp`` in a fan-out directory of the current store, so
    removing an empty one there could break a concurrent writer.
    """
    for store in _retired_stores(root):
        # Bottom-up, not following symlinks: a symlinked directory is
        # never descended into, and rmdir refuses to remove one.
        for dirpath, _, _ in os.walk(store, topdown=False):
            try:
                os.rmdir(dirpath)
            except OSError:
                pass  # not empty


@dataclass
class ScanReport:
    """What a verify pass found (paths relative to the cache root)."""

    scanned: int = 0
    ok: int = 0
    corrupt: List[pathlib.Path] = field(default_factory=list)
    misplaced: List[pathlib.Path] = field(default_factory=list)
    tmp: List[pathlib.Path] = field(default_factory=list)
    stale: List[pathlib.Path] = field(default_factory=list)
    deleted: int = 0

    @property
    def problems(self) -> List[pathlib.Path]:
        return self.corrupt + self.misplaced + self.tmp + self.stale


def scan(cache: ResultCache, delete: bool = False) -> ScanReport:
    """Walk the store; classify every file; optionally delete debris.

    * **corrupt** — unparseable JSON or schema-incompatible documents;
    * **misplaced** — a valid entry filed under the wrong name or
      fan-out directory (it would never be served: reads check the key);
    * **tmp** — abandoned ``.tmp-*`` files from killed writers, that is
      ones unchanged for ``TMP_GRACE_S`` (a younger one is a live
      writer's and is skipped);
    * **stale** — any file of a retired store (:func:`_stale_files`).
    """
    report = ScanReport(stale=_stale_files(cache.root))
    base = cache.root / SCHEMA
    # Wall clock, not simulated time: a temp file's age is a host fact.
    now = time.time()  # simlint: ignore[SL201]
    for path in sorted(base.rglob("*")) if base.is_dir() else ():
        if not path.is_file():
            continue
        if path.name.startswith(".tmp-"):
            try:
                age_s = now - path.stat().st_mtime
            except OSError:
                continue  # published or removed by its writer meanwhile
            if age_s >= TMP_GRACE_S:
                report.tmp.append(path)
            continue
        if path.suffix != ".json":
            continue
        report.scanned += 1
        try:
            entry = CacheEntry.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            report.corrupt.append(path)
            continue
        expected = cache.path_for(entry.key)
        if path.resolve() != expected.resolve():
            report.misplaced.append(path)
            continue
        report.ok += 1
    if delete:
        for path in report.problems:
            try:
                path.unlink()
                report.deleted += 1
            except OSError:
                pass
        _prune_retired(cache.root)
    return report


def _rel(paths: List[pathlib.Path], root: pathlib.Path) -> List[str]:
    out = []
    for p in paths:
        try:
            out.append(str(p.relative_to(root)))
        except ValueError:
            out.append(str(p))
    return out


def verify(cache_dir: str, delete: bool = False) -> int:
    """``repro cache verify``: print what :func:`scan` found; the exit
    code is 1 when debris remains (never after ``delete``)."""
    cache = ResultCache(cache_dir)
    report = scan(cache, delete=delete)
    print(
        f"scanned {report.scanned} entries: {report.ok} ok, "
        f"{len(report.corrupt)} corrupt, {len(report.misplaced)} misplaced, "
        f"{len(report.tmp)} abandoned tmp, "
        f"{len(report.stale)} in retired stores"
    )
    for label, paths in (
        ("corrupt", report.corrupt),
        ("misplaced", report.misplaced),
        ("tmp", report.tmp),
        ("stale", report.stale),
    ):
        for rel in _rel(paths, cache.root):
            print(f"  {label}: {rel}")
    if delete:
        print(f"deleted {report.deleted} file(s)")
        return 0
    return 1 if report.problems else 0
