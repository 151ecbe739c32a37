"""Finding output formats: plain text, JSON, and SARIF 2.1.0.

``--format sarif`` makes CI integration free: GitHub (and most code
hosts) render SARIF uploads as inline annotations. One SARIF *result*
is emitted per finding; the *rules* table carries every registered rule
so viewers can show descriptions for ids that did not fire.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from repro.lint.core import Finding, all_rules
from repro.version import __version__

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

FORMATS = ("text", "json", "sarif")


def render_text(findings: Iterable[Finding]) -> str:
    return "\n".join(str(f) for f in findings)


def render_json(findings: Iterable[Finding]) -> str:
    return json.dumps(
        [f.to_dict() for f in findings], indent=2, sort_keys=True
    ) + "\n"


def _sarif_result(f: Finding) -> dict:
    return {
        "ruleId": f.rule,
        "level": "error",
        "message": {"text": f"[{f.family}] {f.message}"},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": f.line,
                        "startColumn": f.col + 1,
                    },
                }
            }
        ],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    """SARIF 2.1.0 for ``findings``, declaring every simlint rule."""
    table: List[dict] = [
        {
            "id": rule,
            "shortDescription": {"text": desc},
            "helpUri": "https://github.com/repro/docs/LINT.md",
        }
        for rule, desc in sorted(all_rules().items())
    ]
    results = [_sarif_result(f) for f in findings]
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "https://github.com/repro",
                        "version": __version__,
                        "rules": table,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render(findings: List[Finding], fmt: str) -> str:
    if fmt == "text":
        return render_text(findings)
    if fmt == "json":
        return render_json(findings)
    if fmt == "sarif":
        return render_sarif(findings)
    raise ValueError(f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
