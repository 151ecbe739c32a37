"""Figure 23: AORSA parallel performance (grind times by phase)."""

from __future__ import annotations

from repro.apps.aorsa import AORSAModel
from repro.core.experiment import ExperimentResult
from repro.core.registry import register
from repro.core.validate import ShapeCheck
from repro.machine.configs import xt3_dc, xt3_xt4_combined, xt4

CONFIGS = (
    ("4k XT3", 4096),
    ("4k XT4", 4096),
    ("8k XT4", 8192),
    ("16k XT3/4", 16000),
    ("22.5k XT3/4", 22500),
)


def _model(label: str, cores: int) -> AORSAModel:
    if "XT3/4" in label:
        return AORSAModel(xt3_xt4_combined("VN"), cores)
    if "XT3" in label:
        return AORSAModel(xt3_dc("VN"), cores)
    return AORSAModel(xt4("VN"), cores)


@register("fig23")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig23",
        title="AORSA parallel performance",
        xlabel="configuration",
        ylabel="grind time (minutes)",
    )
    labels = [label for label, _ in CONFIGS]
    models = [_model(label, cores) for label, cores in CONFIGS]
    result.add("Ax=b", labels, [m.solve_minutes() for m in models])
    result.add("Calc QL operator", labels, [m.ql_minutes() for m in models])
    result.add("Total", labels, [m.total_minutes() for m in models])
    result.notes = (
        "300x300 spectral grid (complex matrix order 270,000); solver is "
        "the complex-modified HPL model. "
        f"Solver efficiency at 4k XT4: {models[1].solver_efficiency():.1%}, "
        f"at 22.5k: {models[4].solver_efficiency():.1%}."
    )
    return result


def shape_checks(result: ExperimentResult) -> ShapeCheck:
    check = ShapeCheck("fig23")
    total = result.get_series("Total")
    solve = result.get_series("Ax=b")
    ql = result.get_series("Calc QL operator")
    check.expect_monotone(
        "total grind time strong-scales", total.y, increasing=False
    )
    check.expect_greater(
        "XT4 faster than XT3 at 4k", total.value_at("4k XT3"),
        total.value_at("4k XT4"),
    )
    for label in ("4k XT4", "22.5k XT3/4"):
        check.expect_greater(
            f"solve dominates QL at {label}", solve.value_at(label),
            ql.value_at(label),
        )
    m4k = _model("4k XT4", 4096)
    m22 = _model("22.5k XT3/4", 22500)
    check.expect_close("~78.4% of peak at 4k", m4k.solver_efficiency(), 0.784, rel=0.05)
    check.expect(
        "~65% of peak at 22.5k", 0.60 < m22.solver_efficiency() < 0.74,
        f"{m22.solver_efficiency():.3f}",
    )
    big = AORSAModel(xt3_xt4_combined("VN"), 22500, nx=500, ny=500)
    check.expect_greater(
        "500x500 grid restores efficiency",
        big.solver_efficiency(),
        m22.solver_efficiency(),
    )
    return check
