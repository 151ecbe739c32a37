"""Per-figure/table experiment drivers.

Each ``figNN_*.py`` module regenerates one paper artifact as an
:class:`~repro.core.experiment.ExperimentResult` and exposes a
``shape_checks(result)`` function encoding the paper's qualitative
claims about it.

Importing this package imports no driver. The static manifest in
:mod:`repro.core.registry` names every driver module, and
:func:`~repro.core.registry.get_experiment` imports one on first use,
where its ``@register("<exp id>")`` decorator records it.
"""
