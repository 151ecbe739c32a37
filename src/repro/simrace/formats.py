"""Certificate rendering: text, JSON, and SARIF.

SARIF output goes through the simlint renderer
(:mod:`repro.lint.formats`): each schedule-variant driver becomes a
finding under rule ``SL850``, anchored at the driver module's file. The
rule is declared here, in the only code that emits it, and the SARIF
rules table carries its description.
"""

from __future__ import annotations

import importlib
import json
import pathlib
from typing import List

from repro.simrace.certify import RACE_SCHEMA, Certificate

FORMATS = ("text", "json", "sarif")

#: The one rule ``repro race --format sarif`` reports under.
SL850 = (
    "driver results diverge under event-queue tie-break permutation "
    "(emitted by 'repro race')"
)

__all__ = ["FORMATS", "SL850", "render_certificates"]


def _driver_path(exp_id: str) -> str:
    """Repo-relative path of the driver module (best effort)."""
    from repro.core.registry import driver_module

    try:
        module = importlib.import_module(driver_module(exp_id))
        path = pathlib.Path(module.__file__ or "")
    except Exception:  # pragma: no cover - defensive
        return f"{exp_id}.py"
    try:
        return str(path.relative_to(pathlib.Path.cwd()))
    except ValueError:
        return str(path)


def _render_text(certs: List[Certificate]) -> str:
    lines = []
    for cert in certs:
        status = "invariant" if cert.schedule_invariant else "DIVERGES"
        origin = " (cached)" if cert.from_cache else ""
        lines.append(
            f"[{status:9s}] {cert.exp_id:14s} k={cert.k} "
            f"seed={cert.base_seed}{origin}"
        )
        if cert.divergence is not None:
            d = cert.divergence
            lines.append(f"    first divergence under seed {d['seed']}")
            lines.append(f"      at {d['path']}")
            lines.append(f"      baseline: {d['baseline']}")
            lines.append(f"      permuted: {d['permuted']}")
    bad = sum(1 for c in certs if not c.schedule_invariant)
    lines.append(
        f"{len(certs)} driver(s) certified: "
        f"{len(certs) - bad} schedule-invariant, {bad} divergent"
    )
    return "\n".join(lines) + "\n"


def _render_json(certs: List[Certificate]) -> str:
    doc = {
        "schema": RACE_SCHEMA,
        "certificates": [c.to_dict() for c in certs],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_sarif(certs: List[Certificate]) -> str:
    from repro.lint.core import Finding
    from repro.lint.formats import render_sarif

    findings = []
    for cert in certs:
        if cert.schedule_invariant:
            continue
        d = cert.divergence or {}
        findings.append(
            Finding(
                rule="SL850",
                family="schedule-race",
                path=_driver_path(cert.exp_id),
                line=1,
                col=0,
                message=(
                    f"driver '{cert.exp_id}' is not schedule-invariant: "
                    f"results diverge under tie-break permutation seed "
                    f"{d.get('seed')} at {d.get('path')} "
                    f"(baseline {d.get('baseline')} vs permuted "
                    f"{d.get('permuted')})"
                ),
            )
        )
    return render_sarif(findings, rules={"SL850": SL850})


def render_certificates(certs: List[Certificate], fmt: str) -> str:
    """Render ``certs`` as ``text``, ``json`` or ``sarif``."""
    if fmt == "text":
        return _render_text(certs)
    if fmt == "json":
        return _render_json(certs)
    if fmt == "sarif":
        return _render_sarif(certs)
    raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
