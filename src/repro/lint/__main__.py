"""``python -m repro.lint [PATH ...]``: lint files and directory trees.

PATHs default to ``src/`` when it exists, else ``.``. Prints one finding
per line. Exit status: 0 when clean, 1 on findings, 2 on a missing path
or an explicitly named non-``.py`` file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.core import NotAPythonFileError, lint_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simulation-correctness static analysis (simlint)",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src/)"
    )
    args = parser.parse_args(argv)
    default = ["src"] if Path("src").is_dir() else ["."]
    try:
        findings = lint_paths(args.paths or default)
    except (FileNotFoundError, NotAPythonFileError) as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    n = len(findings)
    if n:
        print(f"\nsimlint: {n} finding{'s' if n != 1 else ''}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
