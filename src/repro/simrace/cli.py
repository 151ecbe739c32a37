"""``repro race`` — certify drivers schedule-invariant.

Usage::

    python -m repro race                      # certify all 26 drivers
    python -m repro race fig17 fig22 -k 8
    python -m repro race --list
    python -m repro race --format sarif -o race.sarif
    python -m repro.simrace fig02             # direct module entry point

Exit status: 0 when every certified driver is schedule-invariant, 1 when
any diverges, 2 on usage errors (unknown experiment ids follow the
``repro run`` convention).

Certificates are content-addressed cached under
``.repro-cache/race-v1/``, keyed on the result's cache key (experiment
id plus a digest of the whole ``repro`` source tree) and the race
parameters, so any source edit re-certifies; ``--no-cache`` bypasses
the store, ``--force`` re-certifies and refreshes entries.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.simrace.certify import (
    DEFAULT_PERMUTATIONS,
    Certificate,
    CertificateCache,
    certify_driver,
)
from repro.simrace.formats import FORMATS, render_certificates
from repro.simrace.permute import DEFAULT_SEED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro race",
        description=(
            "re-execute drivers under seeded permutations of the event "
            "queue's tie-breaking order and certify that result rows and "
            "obs counter totals are byte-identical"
        ),
    )
    parser.add_argument(
        "exp_ids", nargs="*", metavar="EXP_ID",
        help="experiment ids to certify (default: all registered)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_ids",
        help="list registered experiment ids and exit",
    )
    parser.add_argument(
        "-k", "--permutations", type=int, default=DEFAULT_PERMUTATIONS,
        metavar="K", help=f"seeded permutations per driver (default {DEFAULT_PERMUTATIONS})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, metavar="N",
        help=f"base seed the permutations derive from (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="certificate output format (default: text)",
    )
    parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the rendered certificates to FILE instead of stdout",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-certify even on a cache hit and refresh the entry",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the certificate cache (no reads, no writes)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="cache location (default .repro-cache/)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.registry import (
        UnknownExperimentError,
        experiment_titles,
        resolve_ids,
    )

    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_ids:
        for exp_id, title in experiment_titles().items():
            print(f"{exp_id:14s} {title}")
        return 0
    if args.permutations < 1:
        print("repro race: -k must be >= 1", file=sys.stderr)
        return 2

    try:
        ids = resolve_ids(args.exp_ids or None)
    except UnknownExperimentError as exc:
        print(exc)
        return 2

    cache = None if args.no_cache else CertificateCache(args.cache_dir)
    certs: List[Certificate] = []
    for exp_id in ids:
        t0 = time.perf_counter()  # simlint: ignore[SL201] — CLI progress, not model time
        cert = certify_driver(
            exp_id,
            k=args.permutations,
            base_seed=args.seed,
            cache=cache,
            force=args.force,
        )
        wall = time.perf_counter() - t0  # simlint: ignore[SL201] — CLI progress
        certs.append(cert)
        status = "ok" if cert.schedule_invariant else "DIVERGES"
        origin = "cached" if cert.from_cache else f"{wall:6.2f}s"
        print(f"[{status:8s}] {exp_id:14s} {origin}", file=sys.stderr)

    rendered = render_certificates(certs, args.fmt)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(rendered, encoding="utf-8")
        print(
            f"wrote {len(certs)} certificate(s) to {args.output} ({args.fmt})",
            file=sys.stderr,
        )
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")

    return 0 if all(c.schedule_invariant for c in certs) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
