"""``repro cache`` — result-store hygiene: ``verify`` and ``gc``.

The content-addressed store is self-healing at read time (a corrupt
entry is a miss), but a long-lived cache accumulates debris that reads
alone never clean up: entries torn by power loss, files copied under
the wrong key, temp files abandoned by SIGKILL, stale entries whose
fingerprints will never be asked for again, and whole stores left
behind by an earlier schema. These commands make that hygiene
explicit::

    repro cache verify                 # report corrupt/misplaced/tmp/stale debris
    repro cache verify --delete        # ... and remove it
    repro cache gc --max-age-days 30   # age-based eviction (atime-free)
    repro cache gc --max-age-days 0 --dry-run

Both publish ``cache.verify.*`` / ``cache.gc.*`` counters through the
installed obs tracer. Deleting an entry is always safe: the store is a
cache of deterministic computations — the runner recomputes on miss.
"""
# Wall-clock/mtime reads are deliberate: cache hygiene is host-side.
# simlint: ignore-file[SL201]

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import current_tracer
from repro.runner.cache import SCHEMA, CacheEntry, ResultCache

__all__ = ["main", "scan", "evict_older_than"]

#: Names of store directories, current and retired: result stores
#: ``v<N>`` and schedule-race certificate stores ``race-v<N>``.
_STORE_DIR = re.compile(r"(race-)?v[0-9]+")


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
    * **tmp** — abandoned ``.tmp-*`` files from killed writers;
    * **stale** — any file of a retired store (:func:`_stale_files`).
    """
    report = ScanReport(stale=_stale_files(cache.root))
    base = cache.root / SCHEMA
    for path in sorted(base.rglob("*")) if base.is_dir() else ():
        if not path.is_file():
            continue
        if path.name.startswith(".tmp-"):
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
    tracer = current_tracer()
    if tracer is not None:
        totals = {
            "cache.verify.scanned": report.scanned,
            "cache.verify.corrupt": len(report.corrupt),
            "cache.verify.misplaced": len(report.misplaced),
            "cache.verify.tmp": len(report.tmp),
            "cache.verify.stale": len(report.stale),
            "cache.verify.deleted": report.deleted,
        }
        for i, (name, value) in enumerate(sorted(totals.items())):
            if value:
                tracer.add(name, float(i), float(value))
    return report


@dataclass
class GcReport:
    scanned: int = 0
    evicted: int = 0
    reclaimed_bytes: int = 0
    dry_run: bool = False


def evict_older_than(
    cache: ResultCache, max_age_days: float, *, dry_run: bool = False
) -> GcReport:
    """Evict entries whose mtime is older than ``max_age_days``.

    mtime is refreshed on every (over)write but not on reads, so this
    is creation-age eviction: old results whose inputs have long since
    changed. Evicting a *live* entry is harmless — the next run misses
    and recomputes — which is why a blunt age policy is acceptable.
    Abandoned temp files are swept once they are over a minute old (a
    *live* temp file exists only for the milliseconds between mkstemp
    and ``os.replace``; the grace period keeps gc from racing an
    in-flight atomic write). Files of a retired store
    (:func:`_stale_files`) go at any age: nothing reads them again.
    """
    report = GcReport(dry_run=dry_run)
    now = time.time()
    cutoff = now - max_age_days * 86400.0
    base = cache.root / SCHEMA
    stale = set(_stale_files(cache.root))
    live = sorted(base.rglob("*")) if base.is_dir() else []
    for path in live + sorted(stale):
        if not path.is_file():
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        if path in stale:
            pass  # evicted at any age
        elif path.name.startswith(".tmp-"):
            if stat.st_mtime > now - 60.0:
                continue  # possibly an in-flight atomic write
        elif path.suffix == ".json":
            report.scanned += 1
            if stat.st_mtime > cutoff:
                continue
        else:
            continue
        report.evicted += 1
        report.reclaimed_bytes += stat.st_size
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                pass
    if not dry_run:
        _prune_retired(cache.root)
    tracer = current_tracer()
    if tracer is not None:
        tracer.add("cache.gc.scanned", 0.0, float(report.scanned))
        tracer.add("cache.gc.evicted", 1.0, float(report.evicted))
        tracer.add(
            "cache.gc.reclaimed_bytes", 2.0, float(report.reclaimed_bytes)
        )
    return report


def _rel(paths: List[pathlib.Path], root: pathlib.Path) -> List[str]:
    out = []
    for p in paths:
        try:
            out.append(str(p.relative_to(root)))
        except ValueError:
            out.append(str(p))
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    report = scan(cache, delete=args.delete)
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
    if args.delete:
        print(f"deleted {report.deleted} file(s)")
        return 0
    return 1 if report.problems else 0


def cmd_gc(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    report = evict_older_than(
        cache, args.max_age_days, dry_run=args.dry_run
    )
    verb = "would evict" if args.dry_run else "evicted"
    print(
        f"scanned {report.scanned} entries; {verb} {report.evicted} "
        f"file(s), {report.reclaimed_bytes} bytes "
        f"(older than {args.max_age_days:g} days)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Verify or garbage-collect the content-addressed "
        "result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify", help="scan for corrupt/misplaced/abandoned/stale files"
    )
    p_verify.add_argument(
        "--delete", action="store_true",
        help="remove every problem file found (always safe: the store "
        "is a cache, the runner recomputes on miss)",
    )
    p_gc = sub.add_parser("gc", help="age-based eviction")
    p_gc.add_argument(
        "--max-age-days", type=float, required=True, metavar="D",
        help="evict entries last written more than D days ago",
    )
    p_gc.add_argument(
        "--dry-run", action="store_true", help="report only, delete nothing"
    )
    for sp in (p_verify, p_gc):
        sp.add_argument(
            "--cache-dir", default=".repro-cache", metavar="DIR",
            help="cache location (default .repro-cache/)",
        )
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_gc(args)
