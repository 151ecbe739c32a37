"""Cache-key derivation for the experiment runner.

A cached result may be reused only when *every* input that shaped it is
unchanged. The key is the SHA-256 of a canonical JSON document over
three things:

* the **experiment id**;
* the **source digest** (:func:`source_digest`) — one SHA-256 over the
  relative path and bytes of every ``*.py`` file in the installed
  ``repro`` package. Drivers, app and machine models, machine configs,
  sweeps, shape checks and the version all live in that source, so any
  edit to any of them misses. The key is coarse on purpose: an edit
  anywhere re-runs every driver, which costs about a second;
* the **fault-plan hash** — an injected run must never alias the
  fault-free one (``None`` hashes differently from every real plan,
  including the empty shield plan).

Deriving a key reads files only: it imports no driver and no model.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from functools import lru_cache
from typing import Any, List, Optional, Tuple, Union

NO_FAULTS = "no-faults"

#: The installed ``repro`` package directory (``src/repro`` in a checkout).
PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def source_digest(root: Union[str, pathlib.Path] = PACKAGE_ROOT) -> str:
    """SHA-256 over every ``*.py`` file under ``root``.

    Files are taken in sorted order of their POSIX path relative to
    ``root``; each contributes that path and its length-prefixed bytes.
    The digest therefore depends on the tree's content, not on where it
    is installed. Cached per ``root`` for the life of the process.
    """
    files: List[Tuple[str, str]] = []

    def walk(top: str, prefix: str) -> None:
        with os.scandir(top) as entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    walk(entry.path, prefix + entry.name + "/")
                elif entry.name.endswith(".py"):
                    files.append((prefix + entry.name, entry.path))

    walk(os.fspath(root), "")
    files.sort()
    digest = hashlib.sha256()
    for rel, path in files:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def fault_plan_hash(path: Optional[str]) -> str:
    """Hash of the fault plan at ``path`` (``NO_FAULTS`` when none).

    Hashes the *parsed, canonicalized* plan rather than raw file bytes,
    so cosmetic JSON reformatting does not flush the cache but any
    semantic change (one more event, a different node) does.
    """
    if path is None:
        return NO_FAULTS
    from repro.faults import FaultPlan

    plan = FaultPlan.load(str(path))
    return sha256_text(canonical_json(plan.to_dict()))


def cache_key(exp_id: str, *, tree: str, fault_hash: str) -> str:
    """SHA-256 cache key over the experiment id, source digest and plan."""
    return sha256_text(
        canonical_json(
            {"exp_id": exp_id, "source_sha256": tree, "fault_plan": fault_hash}
        )
    )


def cache_key_for(exp_id: str, faults_path: Optional[str] = None) -> str:
    """The live cache key for ``exp_id`` in the installed tree."""
    return cache_key(
        exp_id, tree=source_digest(), fault_hash=fault_plan_hash(faults_path)
    )
