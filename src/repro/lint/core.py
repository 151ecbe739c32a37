"""simlint driver: findings, pragmas, and the one pass over each file.

:func:`lint_source` parses a module once, runs the ``nondet`` rules in
one walk over it and the process-function rules in one walk over each
generator function (:mod:`repro.lint.rules`), then drops what a pragma
suppresses.

Suppression pragmas:

* line pragma, anywhere on *any* line of the offending (simple)
  statement — black-style trailing comments on the closing line of a
  wrapped call work::

      t = time.time()          # simlint: ignore[SL201]
      t = time.time()          # simlint: ignore[nondet]   (whole family)
      t = time.time()          # simlint: ignore           (any rule)

* file pragma, conventionally near the top of the module, silencing the
  named rules/families for the entire file::

      # simlint: ignore-file[SL501] — these tests hold slots bare on purpose
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.lint.rules import (
    check_nondet,
    check_process_function,
    is_generator,
    iter_function_defs,
)

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore(?!-file)(?:\[([^\]]*)\])?", re.IGNORECASE)
_FILE_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore-file(?:\[([^\]]*)\])?", re.IGNORECASE)

#: Sentinel in the per-line suppression map: every rule is ignored.
_ALL = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # e.g. "SL101"
    family: str  # e.g. "yield-from"
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.family}] {self.message}"


#: Rule id prefix (``SL<family-digit>``) → family name.
FAMILIES = {
    "SL0": "parse",
    "SL1": "yield-from",
    "SL2": "nondet",
    "SL5": "resource-safety",
    "SL9": "perf",
}


# -- suppression -----------------------------------------------------------

_COMPOUND_STMTS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _pragma_tokens(match: "re.Match") -> set:
    spec = match.group(1)
    if spec is None:
        return {_ALL}
    return {tok.strip() for tok in spec.split(",") if tok.strip()} or {_ALL}


def _suppressions(source: str) -> Tuple[Dict[int, set], set]:
    """(line → suppression tokens, file-wide suppression tokens)."""
    lines: Dict[int, set] = {}
    file_wide: set = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _FILE_PRAGMA_RE.search(text)
        if m:
            file_wide |= _pragma_tokens(m)
            continue
        m = _PRAGMA_RE.search(text)
        if m:
            lines.setdefault(lineno, set()).update(_pragma_tokens(m))
    return lines, file_wide


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """(lineno, end_lineno) of every *simple* statement, innermost last.

    Used to let a pragma anywhere on a wrapped statement (for example on
    the closing line, where black parks trailing comments) suppress a
    finding that points at the statement's first line.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, _COMPOUND_STMTS):
            end = getattr(node, "end_lineno", None) or node.lineno
            if end > node.lineno:
                spans.append((node.lineno, end))
    return spans


def _expand_pragma_lines(
    supp: Dict[int, set], spans: List[Tuple[int, int]]
) -> Dict[int, set]:
    """Spread each pragma over the innermost simple statement holding it."""
    if not spans:
        return supp
    out: Dict[int, set] = {ln: set(toks) for ln, toks in supp.items()}
    for pragma_line, tokens in supp.items():
        containing = [s for s in spans if s[0] <= pragma_line <= s[1]]
        if not containing:
            continue
        # innermost = narrowest span
        start, end = min(containing, key=lambda s: s[1] - s[0])
        for ln in range(start, end + 1):
            out.setdefault(ln, set()).update(tokens)
    return out


def _matches(tokens: set, finding: Finding) -> bool:
    return _ALL in tokens or finding.rule in tokens or finding.family in tokens


def _suppressed(finding: Finding, supp: Dict[int, set], file_wide: set) -> bool:
    if file_wide and _matches(file_wide, finding):
        return True
    tokens = supp.get(finding.line)
    return bool(tokens) and _matches(tokens, finding)


# -- drivers ---------------------------------------------------------------

def lint_source(source: str, filename: str = "<string>") -> List[Finding]:
    """Run every rule over one module's ``source``; returns kept findings."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            Finding(
                rule="SL001",
                family="parse",
                path=filename,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    hits = list(check_nondet(tree))
    for func in iter_function_defs(tree):
        if is_generator(func):
            hits.extend(check_process_function(func))
    if not hits:
        return []
    supp, file_wide = _suppressions(source)
    supp = _expand_pragma_lines(supp, _statement_spans(tree))
    findings = [
        Finding(rule, FAMILIES[rule[:3]], filename, node.lineno, node.col_offset, msg)
        for rule, node, msg in hits
    ]
    findings = [f for f in findings if not _suppressed(f, supp, file_wide)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: "str | Path") -> List[Finding]:
    """Lint one python file."""
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), filename=str(p))


def lint_paths(paths: Sequence["str | Path"]) -> List[Finding]:
    """Lint files and directory trees (``*.py``, recursively), one file at
    a time.

    Directory expansion skips paths containing a ``fixtures`` component
    (deliberately-bad lint fixtures); explicitly named files are always
    linted.
    """
    findings: List[Finding] = []
    for path in expand_paths(paths):
        findings.extend(lint_file(path))
    return findings


class NotAPythonFileError(ValueError):
    """An explicitly named, existing path that simlint cannot lint."""


#: Directory expansion skips any path with this component (the
#: deliberately bad lint fixtures).
_EXCLUDED = "fixtures"


def expand_paths(paths: Iterable["str | Path"]) -> List[Path]:
    """Expand files and directories into a sorted, deduplicated file list.

    Raises :class:`FileNotFoundError` for a missing path and
    :class:`NotAPythonFileError` for an explicitly named existing
    non-``.py`` file — both are usage errors, not silent clean passes.
    """
    return sorted(set(_expand(paths)))


def _expand(paths: Iterable["str | Path"]) -> Iterator[Path]:
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for f in p.rglob("*.py"):
                if _EXCLUDED not in f.parts:
                    yield f
        elif p.suffix == ".py" and p.exists():
            yield p
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        else:
            raise NotAPythonFileError(
                f"{p} is not a python file (only *.py files can be linted)"
            )
