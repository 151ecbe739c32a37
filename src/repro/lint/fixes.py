"""Autofix engine: apply the mechanical repairs findings carry.

Checkers attach a :class:`~repro.lint.core.Fix` — an ordered tuple of
:class:`~repro.lint.core.Edit` spans — to findings whose repair is
purely mechanical (insert ``yield from``, wrap a hold in
``try/finally``, wrap a set in ``sorted(...)``). This module turns those
edits into new file contents:

* :func:`apply_fixes` — apply every applicable fix to one source string,
  skipping fixes that overlap an already-accepted edit (first finding
  wins; the next ``--fix`` run picks up the remainder).
* :func:`fix_files` — group findings per file, compute the fixed text,
  and return per-file unified diffs; optionally write the files.

The engine is convergent: applying fixes removes the findings that
produced them, so a second ``--fix`` run emits an empty diff.
"""

from __future__ import annotations

import difflib
import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.core import Edit, Finding

#: Rules whose fixes are safe to apply mechanically. Findings outside
#: this set never carry fixes; the table is the documented contract.
FIXABLE_RULES = frozenset(
    {"SL101", "SL102", "SL103", "SL104", "SL203", "SL501", "SL901"}
)


def _offsets(source: str) -> List[int]:
    """Absolute offset of the start of each 1-based line (plus EOF)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _edit_span(edit: Edit, starts: List[int]) -> Tuple[int, int]:
    def offset(line: int, col: int) -> int:
        if line <= 0:
            return 0
        if line > len(starts) - 1:
            return starts[-1]  # past EOF: append
        return min(starts[line - 1] + col, starts[-1])

    return offset(edit.line, edit.col), offset(edit.end_line, edit.end_col)


def apply_fixes(source: str, findings: Sequence[Finding]) -> Tuple[str, List[Finding]]:
    """Apply every fix carried by ``findings`` to ``source``.

    Returns ``(new_source, applied)``. Fixes whose spans overlap an
    already-accepted edit are skipped — re-linting the fixed source
    surfaces them again for the next round.
    """
    starts = _offsets(source)
    accepted: List[Tuple[int, int, str, int]] = []  # (start, end, text, seq)
    applied: List[Finding] = []
    seq = 0
    for finding in sorted(findings, key=lambda f: (f.line, f.col, f.rule)):
        if finding.fix is None:
            continue
        spans = [_edit_span(e, starts) for e in finding.fix.edits]
        texts = [e.text for e in finding.fix.edits]
        if any(s > e for s, e in spans):
            continue
        if _overlaps(spans, accepted):
            continue
        for (s, e), t in zip(spans, texts):
            accepted.append((s, e, t, seq))
            seq += 1
        applied.append(finding)
    if not accepted:
        return source, []
    accepted.sort(key=lambda item: (item[0], item[3]))
    out: List[str] = []
    pos = 0
    for s, e, t, _ in accepted:
        out.append(source[pos:s])
        out.append(t)
        pos = e
    out.append(source[pos:])
    return "".join(out), applied


def _overlaps(
    spans: Sequence[Tuple[int, int]], accepted: Sequence[Tuple[int, int, str, int]]
) -> bool:
    for s, e in spans:
        for as_, ae, _, _ in accepted:
            if s < ae and as_ < e:  # proper range intersection
                return True
            if s == e == as_ == ae:  # two insertions at the same point
                return True
    return False


def fix_files(
    findings: Iterable[Finding],
    write: bool = False,
    expected_sources: Optional[Dict[str, str]] = None,
) -> Tuple[Dict[str, str], List[Finding], List[str]]:
    """Compute (and optionally write) fixed file contents.

    Returns ``(diff by path, applied findings, refused paths)``. Paths
    whose fixes all got skipped produce no diff entry.

    ``expected_sources`` maps each path to the source text the findings
    were computed against. A file whose on-disk content no longer
    matches was edited after the lint pass read it — its fix spans point at stale coordinates, so
    the file is *refused* (reported in the third element, never written)
    instead of silently clobbering the concurrent edit. Re-run the lint
    to fix it. Without ``expected_sources`` no guard applies (the
    historical behaviour, kept for in-memory callers).
    """
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        if f.fix is not None:
            by_path.setdefault(f.path, []).append(f)
    diffs: Dict[str, str] = {}
    applied_all: List[Finding] = []
    refused: List[str] = []
    for path in sorted(by_path):
        p = Path(path)
        try:
            source = p.read_text(encoding="utf-8")
        except OSError:
            continue
        if expected_sources is not None:
            expected = expected_sources.get(path)
            if expected is not None and _digest(expected) != _digest(source):
                refused.append(path)
                continue
        fixed, applied = apply_fixes(source, by_path[path])
        if not applied or fixed == source:
            continue
        applied_all.extend(applied)
        diffs[path] = unified_diff(source, fixed, path)
        if write:
            p.write_text(fixed, encoding="utf-8")
    return diffs, applied_all, refused


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unified_diff(old: str, new: str, path: str) -> str:
    return "".join(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
        )
    )
