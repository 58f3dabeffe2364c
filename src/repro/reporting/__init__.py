"""Turning simulation results into the paper's tables and figures.

:mod:`repro.reporting.experiments` exposes one function per evaluation
artefact (``table1`` ... ``figure11``); each returns an
:class:`ExperimentArtifact` whose ``render()`` produces the table/series the
paper reports, regenerated from this repository's synthetic substrate.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tables": ("format_table",),
        "figures": ("FigureSeries",),
        "experiments": (
            "ExperimentArtifact",
            "ALL_EXPERIMENTS",
            "run_experiment",
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure1",
            "figure2",
            "figure3",
            "figure4_7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
        ),
    },
)
