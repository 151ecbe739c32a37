"""simlint command line.

Usage::

    python -m repro.lint [paths ...]       # default: src/ if it exists, else .
    python -m repro.lint --list-rules
    repro-lint src/ tests/ --select yield-from,SL201
    repro-lint src/ --fix                  # preview autofixes as a diff
    repro-lint src/ --fix --write          # apply them
    repro-lint src/ --format sarif -o lint.sarif
    repro lint src/                        # via the main repro CLI

Exit status: 0 when clean (or every finding was fixed), 1 when findings
remain, 2 on usage errors, 3 when ``--fix`` refused a file that changed
on disk after it was read (concurrent edit).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import (
    DEFAULT_EXCLUDES,
    NotAPythonFileError,
    all_checkers,
    expand_paths,
    known_selectors,
    lint_source,
    matching_rules,
)
from repro.lint.fixes import fix_files
from repro.lint.formats import FORMATS, render


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="simulation-correctness static analysis (simlint)",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src/)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids, families, or rule-id prefixes "
        "like SL2 to report (default: all)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        metavar="NAME",
        help="directory component to skip during expansion (repeatable; "
        f"default: {', '.join(DEFAULT_EXCLUDES)}; explicit files always lint)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="preview mechanical autofixes as a unified diff",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="with --fix: apply the autofixes to the files",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="output format (default: text)",
    )
    parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the rendered findings to FILE instead of stdout",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in all_checkers():
            print(f"[{cls.family}]")
            for rule, desc in sorted(cls.rules.items()):
                print(f"  {rule}  {desc}")
        return 0

    wanted = None
    if args.select:
        tokens = {tok.strip() for tok in args.select.split(",") if tok.strip()}
        known = known_selectors()
        wanted = set()
        unknown = set()
        for tok in tokens:
            if tok in known:
                wanted.add(tok)
                continue
            expanded = matching_rules(tok)  # prefix selector, e.g. SL2
            if expanded:
                wanted |= expanded
            else:
                unknown.add(tok)
        if unknown:
            # A typo'd selector must not silently report "clean".
            print(
                f"repro-lint: unknown rule/family in --select: "
                f"{', '.join(sorted(unknown))} (see --list-rules)",
                file=sys.stderr,
            )
            return 2
    if args.write and not args.fix:
        print("repro-lint: --write requires --fix", file=sys.stderr)
        return 2

    excludes = tuple(args.exclude) if args.exclude else DEFAULT_EXCLUDES
    try:
        files = expand_paths(args.paths or _default_paths(), excludes)
    except (FileNotFoundError, NotAPythonFileError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    sources = {str(f): f.read_text(encoding="utf-8") for f in files}
    findings = [
        finding
        for path, source in sources.items()
        for finding in lint_source(source, path)
    ]

    if wanted:
        findings = [f for f in findings if f.rule in wanted or f.family in wanted]

    if args.fix:
        diffs, applied, refused = fix_files(
            findings, write=args.write, expected_sources=sources
        )
        for path in sorted(diffs):
            print(diffs[path], end="")
        remaining = [f for f in findings if f not in applied]
        verb = "fixed" if args.write else "would fix"
        print(
            f"\nsimlint: {verb} {len(applied)} of {len(findings)} "
            f"finding(s) in {len(diffs)} file(s)",
            file=sys.stderr,
        )
        if refused:
            for path in refused:
                print(
                    f"repro-lint: {path} changed on disk after it was "
                    f"read — refusing to clobber the concurrent edit; "
                    f"re-run repro-lint to fix it",
                    file=sys.stderr,
                )
            return 3
        if args.write:
            for f in remaining:
                print(f)
            return 1 if remaining else 0
        return 1 if findings else 0

    rendered = render(findings, args.fmt)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"wrote {len(findings)} finding(s) to {args.output} "
              f"({args.fmt})", file=sys.stderr)
    elif rendered.strip() or args.fmt != "text":
        print(rendered, end="" if rendered.endswith("\n") else "\n")

    n = len(findings)
    if n:
        print(f"\nsimlint: {n} finding{'s' if n != 1 else ''}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
