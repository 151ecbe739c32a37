"""Figure-shape validation.

The reproduction target is the *shape* of each paper result — orderings
(who wins), approximate factors, crossovers, flatness — not absolute
numbers from hardware we do not have. :class:`ShapeCheck` accumulates
named assertions about an :class:`~repro.core.experiment.ExperimentResult`
and reports them together, so EXPERIMENTS.md and the test suite share one
vocabulary.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class ShapeCheckFailure(AssertionError):
    """Raised by :meth:`ShapeCheck.raise_if_failed`."""


class _Check:
    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


class ShapeCheck:
    """A named collection of pass/fail observations about one experiment."""

    def __init__(self, exp_id: str, checks: Optional[List[_Check]] = None) -> None:
        self.exp_id = exp_id
        self.checks = [] if checks is None else checks

    # -- primitives ---------------------------------------------------------
    def expect(self, name: str, condition: bool, detail: str = "") -> bool:
        """Record an arbitrary condition."""
        self.checks.append(_Check(name, bool(condition), detail))
        return bool(condition)

    def expect_greater(self, name: str, a: float, b: float, margin: float = 1.0) -> bool:
        """``a > b × margin`` (margin < 1 loosens, > 1 demands headroom)."""
        return self.expect(
            name,
            a > b * margin,
            f"expected > {b * margin:.6g} (reference {b:.6g} × margin "
            f"{margin}), actual {a:.6g}",
        )

    def expect_ratio(
        self, name: str, a: float, b: float, lo: float, hi: float
    ) -> bool:
        """``lo <= a/b <= hi``."""
        ratio = a / b if b else float("inf")
        return self.expect(
            name,
            lo <= ratio <= hi,
            f"expected ratio in [{lo}, {hi}], actual {ratio:.4g} "
            f"(a={a:.6g}, b={b:.6g})",
        )

    def expect_close(self, name: str, a: float, b: float, rel: float = 0.1) -> bool:
        """``a`` within ``rel`` of ``b``."""
        ok = abs(a - b) <= rel * abs(b)
        return self.expect(
            name,
            ok,
            f"expected {b:.6g} within tolerance ±{rel:g} rel, actual "
            f"{a:.6g} (off by {abs(a - b) / abs(b) if b else float('inf'):.3g} rel)",
        )

    def expect_monotone(
        self, name: str, values: Sequence[float], increasing: bool = True,
        slack: float = 0.0,
    ) -> bool:
        """Sequence is (weakly) monotone, tolerating ``slack`` relative dips."""
        ok = True
        for a, b in zip(values, values[1:]):
            if increasing and b < a * (1.0 - slack):
                ok = False
            if not increasing and b > a * (1.0 + slack):
                ok = False
        direction = "non-decreasing" if increasing else "non-increasing"
        return self.expect(
            name,
            ok,
            f"expected {direction} (slack {slack:g}), actual {list(values)}",
        )

    def expect_flat(self, name: str, values: Sequence[float], rel: float = 0.3) -> bool:
        """max/min spread within ``rel`` of the mean (weak-scaling flatness)."""
        if not values:
            return self.expect(name, False, "expected non-empty sequence, actual []")
        mean = sum(values) / len(values)
        spread = (max(values) - min(values)) / mean if mean else float("inf")
        return self.expect(
            name,
            spread <= rel,
            f"expected max-min spread <= {rel:g} of mean, actual "
            f"{spread:.3g} over {list(values)}",
        )

    # -- reporting -----------------------------------------------------------
    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[str]:
        """Failed checks as self-contained lines: ``[exp_id] name: detail``.

        Each line names the figure/experiment, the check, the expected
        value/tolerance and the actual value — so a CI log line is enough
        to act on without re-running the experiment.
        """
        return [
            f"[{self.exp_id}] {c.name}: {c.detail}"
            for c in self.checks
            if not c.passed
        ]

    def summary(self) -> str:
        lines = [f"shape checks for {self.exp_id}:"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f" — {c.detail}" if c.detail else ""))
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise ShapeCheckFailure(
                f"{self.exp_id}: {len(self.failures)} shape check(s) failed:\n  "
                + "\n  ".join(self.failures)
            )
