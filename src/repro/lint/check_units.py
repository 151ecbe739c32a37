"""Unit-suffix consistency (family ``units``, rules SL301–SL303).

The repo's naming convention carries physical units in identifier
suffixes — ``_bytes``, ``_gib``, ``_gbps``, ``_us``, ``_s``, ``_flops``
and friends (see docs/LINT.md for the full table). That convention is
only protective if arithmetic respects it; these rules flag the mixes a
reviewer cannot see at a glance:

* SL301 — additive arithmetic (``+``/``-``) or comparison between two
  suffix-carrying expressions of *different* units — different dimension
  (``x_us + y_bytes``) or different scale of one dimension
  (``x_us + y_s``). Multiplication/division are unit *conversions* and
  are never flagged.
* SL302 — additive arithmetic or comparison between a suffix-carrying
  expression and a bare nonzero numeric literal (what unit is ``5``?).
  Comparisons against 0 (sign checks) are exempt.
* SL303 — a keyword argument whose name carries a unit suffix (the
  :mod:`repro.machine.specs` / :mod:`repro.mpi.costmodels` API style)
  receiving either a bare numeric literal or a name with a *different*
  suffix. The designated spec tables (``machine/configs.py``,
  ``machine/platforms.py``) are exempt from the literal form — they are
  the single documented home of raw calibration constants.

Unit information is read from Names, Attributes and called function
names (``bcast_s(...)`` is seconds); compound expressions are
conservatively treated as unit-less, so conversions like
``x_us * 1e-6`` silence the checker by construction.

These rules are purely local: a unit that flows into a callee's
positional parameter, or out of its return value, is not checked.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, Optional, Tuple

from repro.lint.core import Finding, register

#: suffix (lower-cased) → (dimension, scale-to-base-unit).
UNIT_SUFFIXES = {
    # time (base: seconds)
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    # data (base: bytes)
    "bytes": ("data", 1.0),
    "kib": ("data", 2.0**10),
    "mib": ("data", 2.0**20),
    "gib": ("data", 2.0**30),
    "kb": ("data", 1e3),
    "mb": ("data", 1e6),
    "gb": ("data", 1e9),
    # bandwidth (base: bytes/s)
    "bs": ("bandwidth", 1.0),
    "gbs": ("bandwidth", 1e9),
    "gbps": ("bandwidth", 1e9),
    # compute
    "flops": ("flops", 1.0),
    "gflops": ("flops", 1e9),
    # rates / frequencies
    "hz": ("freq", 1.0),
    "ghz": ("freq", 1e9),
    "gups": ("rate", 1e9),
}

#: words that end identifiers without being unit suffixes, e.g. ``total_gb``
#: is a unit but ``num_s`` does not occur; nothing needed yet.

_SPEC_TABLE_FILES = ("machine/configs.py", "machine/platforms.py")

_ADDITIVE = (ast.Add, ast.Sub)


def suffix_of(name: str) -> Optional[str]:
    """The unit suffix carried by ``name`` (lower-cased), if any."""
    if "_" not in name:
        return None
    tail = name.rsplit("_", 1)[1].lower()
    return tail if tail in UNIT_SUFFIXES else None


def unit_of(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(identifier, suffix) for expressions that carry a unit suffix.

    Names and attributes carry their own suffix; a call carries the
    suffix of the *called function's* name (``gather_s(...)`` → seconds).
    Anything compound returns None (conservative).
    """
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    elif isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            ident = node.func.attr
        elif isinstance(node.func, ast.Name):
            ident = node.func.id
        else:
            return None
    else:
        return None
    sfx = suffix_of(ident)
    return (ident, sfx) if sfx else None


def _is_nonzero_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value != 0
    )


@register
class UnitsChecker:
    family = "units"
    rules = {
        "SL301": "arithmetic/comparison mixes incompatible unit suffixes",
        "SL302": "arithmetic/comparison mixes a unit suffix with a bare literal",
        "SL303": "suffix-named parameter passed a literal or mismatched unit",
    }

    def check(self, tree: ast.Module, filename: str) -> Iterator[Finding]:
        is_spec_table = any(
            PurePath(filename).as_posix().endswith(t) for t in _SPEC_TABLE_FILES
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ADDITIVE):
                yield from self._check_pair(node, node.left, node.right, filename,
                                            allow_zero=True)
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for a, b in zip(operands, operands[1:]):
                    yield from self._check_pair(node, a, b, filename,
                                                allow_zero=True)
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, filename, is_spec_table)

    # -- arithmetic / comparisons -------------------------------------------
    def _check_pair(
        self, site: ast.AST, a: ast.AST, b: ast.AST, filename: str, allow_zero: bool
    ) -> Iterator[Finding]:
        ua, ub = unit_of(a), unit_of(b)
        if ua and ub:
            if ua[1] != ub[1]:
                da, db = UNIT_SUFFIXES[ua[1]][0], UNIT_SUFFIXES[ub[1]][0]
                how = (
                    f"different dimensions ({da} vs {db})"
                    if da != db
                    else f"different scales of {da} (_{ua[1]} vs _{ub[1]})"
                )
                yield self._finding(
                    "SL301", site, filename,
                    f"'{ua[0]}' and '{ub[0]}' carry {how} — convert one side "
                    f"explicitly before combining",
                )
            return
        for unit, other in ((ua, b), (ub, a)):
            if unit and _is_nonzero_number(other):
                yield self._finding(
                    "SL302", site, filename,
                    f"'{unit[0]}' (unit _{unit[1]}) combined with a bare "
                    f"numeric literal — name the constant with a matching "
                    f"unit suffix",
                )

    # -- suffix-named keyword parameters ------------------------------------
    def _check_call(
        self, node: ast.Call, filename: str, is_spec_table: bool
    ) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            param_sfx = suffix_of(kw.arg)
            if param_sfx is None:
                continue
            value_unit = unit_of(kw.value)
            if value_unit and value_unit[1] != param_sfx:
                yield self._finding(
                    "SL303", kw.value, filename,
                    f"parameter '{kw.arg}' (unit _{param_sfx}) receives "
                    f"'{value_unit[0]}' (unit _{value_unit[1]}) — convert "
                    f"explicitly",
                )
            elif _is_nonzero_number(kw.value) and not is_spec_table:
                yield self._finding(
                    "SL303", kw.value, filename,
                    f"parameter '{kw.arg}' (unit _{param_sfx}) receives a "
                    f"bare numeric literal — use a named, unit-suffixed "
                    f"constant (raw constants belong in machine/configs.py "
                    f"or machine/platforms.py)",
                )

    def _finding(self, rule: str, node: ast.AST, filename: str, msg: str) -> Finding:
        return Finding(
            rule=rule,
            family=self.family,
            path=filename,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=msg,
        )
