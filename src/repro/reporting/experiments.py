"""One entry point per table and figure of the paper's evaluation.

Every function regenerates the corresponding artefact from the synthetic
substrate and returns an :class:`ExperimentArtifact` holding both the raw
data (for programmatic checks — the test-suite and EXPERIMENTS.md use these)
and a rendered plain-text form.

The suite-wide artefacts (Tables 2/4/5, Figures 3-10) share one cached
campaign per ``scale``, so regenerating all of them costs a single suite
simulation; the sensitivity artefacts (Tables 6-7, Figure 11) run as
parameter sweeps on the same engine (:mod:`repro.engine.sweeps`).  Both
paths execute on :class:`repro.engine.ExecutionEngine`:
``repro.simulation.campaign.set_campaign_defaults`` (which the CLI hands
the ``EngineConfig`` built from its engine flags) selects parallelism,
backend and a persistent result cache without touching the entry
points below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.fcm import FcmPredictor
from repro.core.registry import create_predictor
from repro.errors import ReportingError
from repro.isa.opcodes import CATEGORY_OF, Category, REPORTED_CATEGORIES
from repro.reporting.figures import FigureSeries
from repro.reporting.tables import Grid
from repro.sequences.analysis import (
    measure_learning,
    prediction_outcomes,
    predictor_behaviour_table,
)
from repro.sequences.generators import repeated_stride_sequence
from repro.simulation.campaign import DEFAULT_SCALE, CampaignResult, run_campaign
from repro.simulation.correlation import SUBSET_LABELS, average_correlation, correlation_breakdown
from repro.simulation.improvement import combined_improvement_curves_by_category
from repro.simulation.metrics import build_accuracy_report
from repro.simulation.sensitivity import flag_sensitivity, input_sensitivity, order_sensitivity
from repro.simulation.value_profile import (
    average_value_profiles,
    bucket_labels,
    profile_from_tallies,
)


@dataclass
class ExperimentArtifact:
    """A regenerated table or figure.

    Attributes
    ----------
    identifier:
        The paper's name for the artefact (``"table2"``, ``"figure3"``, ...).
    title:
        Human-readable caption mirroring the paper's caption.
    data:
        Structured result (dict, :class:`FigureSeries`, ...) for programmatic
        consumption.
    text:
        Rendered plain-text form (what the CLI prints).
    grids:
        Machine-readable grids (:class:`repro.reporting.tables.Grid`),
        one per table the text rendering shows.  This is the canonical
        numeric form the reproduction artifact digests, diffs and writes
        as CSV/Markdown (see :mod:`repro.artifact`); ``text`` is always a
        rendering of these grids, so the two cannot disagree.
    """

    identifier: str
    title: str
    data: Any
    text: str
    grids: tuple[Grid, ...] = ()

    def render(self) -> str:
        return self.text


def _grid_artifact(identifier: str, title: str, data: Any, *grids: Grid) -> ExperimentArtifact:
    """Build an artifact whose text renders its grids (the common case)."""
    return ExperimentArtifact(
        identifier, title, data, "\n\n".join(grid.render() for grid in grids), grids=tuple(grids)
    )


# --------------------------------------------------------------------------- #
# Micro-experiments (no workload substrate required)
# --------------------------------------------------------------------------- #
def table1(length: int = 64, period: int = 4) -> ExperimentArtifact:
    """Table 1: learning time / learning degree per sequence class."""
    measured = predictor_behaviour_table(
        predictor_names=("l", "s2", "fcm3"), length=length, period=period
    )
    headers = ["Sequence", "L: LT", "L: LD(%)", "S2: LT", "S2: LD(%)", "FCM3: LT", "FCM3: LD(%)"]
    rows = []
    for sequence_class, row in measured.items():
        cells: list[object] = [sequence_class.value]
        for name in ("l", "s2", "fcm3"):
            profile = row[name]
            cells.append(profile.learning_time)
            cells.append(profile.learning_degree)
        rows.append(cells)
    grid = Grid("Table 1 — predictor behaviour per sequence class", headers, rows)
    return _grid_artifact(
        "table1", "Behaviour of prediction models for value sequences", measured, grid
    )


def figure1(sequence: str = "aaabcaaabcaaa") -> ExperimentArtifact:
    """Figure 1: finite context models of orders 0-3 on the example sequence."""
    symbols = sorted(set(sequence))
    encoding = {symbol: index + 1 for index, symbol in enumerate(symbols)}
    decoding = {code: symbol for symbol, code in encoding.items()}
    values = [encoding[symbol] for symbol in sequence]
    models: dict[int, dict[str, Any]] = {}
    for order in range(4):
        predictor = FcmPredictor(order=order)
        for value in values:
            predictor.update(0, value)
        prediction = predictor.predict(0)
        contexts = {
            "".join(decoding[v] for v in context): {
                decoding[value]: count for value, count in counts.items()
            }
            for context, counts in predictor.contexts_for(0).items()
        }
        models[order] = {
            "prediction": decoding.get(prediction.value),
            "contexts": contexts,
        }
    rows = [[order, models[order]["prediction"], models[order]["contexts"]] for order in models]
    grid = Grid(
        f"Figure 1 — finite context models over {sequence!r}",
        ["Order", "Prediction", "Context counts"],
        rows,
    )
    return _grid_artifact("figure1", "Finite context models", models, grid)


def figure2(period: int = 4, repetitions: int = 3) -> ExperimentArtifact:
    """Figure 2: stride vs order-2 fcm behaviour on a repeated stride sequence."""
    values = repeated_stride_sequence(period * repetitions, period=period)
    stride_outcomes = prediction_outcomes(create_predictor("s2"), values)
    fcm_outcomes = prediction_outcomes(create_predictor("fcm2"), values)
    stride_profile = measure_learning(create_predictor("s2"), values)
    fcm_profile = measure_learning(create_predictor("fcm2"), values)
    data = {
        "sequence": values,
        "stride": {"outcomes": stride_outcomes, "profile": stride_profile},
        "fcm2": {"outcomes": fcm_outcomes, "profile": fcm_profile},
    }
    rows = [
        ["sequence"] + values,
        ["stride prediction"] + [p if p is not None else "-" for p, _ in stride_outcomes],
        ["stride correct"] + ["y" if ok else "." for _, ok in stride_outcomes],
        ["fcm2 prediction"] + [p if p is not None else "-" for p, _ in fcm_outcomes],
        ["fcm2 correct"] + ["y" if ok else "." for _, ok in fcm_outcomes],
    ]
    headers = ["step"] + [str(i) for i in range(len(values))]
    grid = Grid("Figure 2 — computational vs context based prediction", headers, rows)
    return _grid_artifact("figure2", "Computational vs context based prediction", data, grid)


def table3() -> ExperimentArtifact:
    """Table 3: instruction categories and their opcodes."""
    groups: dict[Category, list[str]] = {}
    for opcode, category in CATEGORY_OF.items():
        groups.setdefault(category, []).append(opcode.value)
    rows = [
        [category.value, ", ".join(sorted(opcodes))]
        for category, opcodes in groups.items()
        if category not in (Category.STORE, Category.CONTROL)
    ]
    grid = Grid("Table 3 — instruction categories", ["Category", "Opcodes"], rows)
    return _grid_artifact("table3", "Instruction categories", groups, grid)


# --------------------------------------------------------------------------- #
# Suite-wide artefacts (share one campaign per scale)
# --------------------------------------------------------------------------- #
def _campaign(scale: float | None) -> CampaignResult:
    return run_campaign(scale=DEFAULT_SCALE if scale is None else scale)


def table2(scale: float | None = None) -> ExperimentArtifact:
    """Table 2: benchmark characteristics (dynamic and predicted instructions)."""
    campaign = _campaign(scale)
    rows = []
    data: dict[str, dict[str, float]] = {}
    for benchmark in campaign.benchmarks():
        stats = campaign.statistics[benchmark]
        data[benchmark] = {
            "dynamic_instructions": stats.total_dynamic_instructions,
            "predicted_instructions": stats.predicted_instructions,
            "fraction_predicted": stats.fraction_predicted,
        }
        rows.append(
            [
                benchmark,
                stats.total_dynamic_instructions,
                stats.predicted_instructions,
                100.0 * stats.fraction_predicted,
            ]
        )
    grid = Grid(
        "Table 2 — benchmark characteristics (synthetic suite)",
        ["Benchmark", "Dynamic instr.", "Predicted instr.", "Predicted (%)"],
        rows,
    )
    return _grid_artifact("table2", "Benchmark characteristics", data, grid)


def _category_table(scale: float | None, static: bool) -> tuple[dict, Grid]:
    campaign = _campaign(scale)
    categories = [category for category in Category if category.value in
                  ("AddSub", "Loads", "Logic", "Shift", "Set", "MultDiv", "Lui", "Other")]
    data: dict[str, dict[str, float]] = {}
    rows = []
    for category in categories:
        row: list[object] = [category.value]
        data[category.value] = {}
        for benchmark in campaign.benchmarks():
            stats = campaign.statistics[benchmark]
            if static:
                value: float = stats.category_static_counts.get(category, 0)
            else:
                value = stats.category_dynamic_percentages().get(category, 0.0)
            data[category.value][benchmark] = value
            row.append(value)
        rows.append(row)
    which = "static count" if static else "dynamic (%)"
    grid = Grid(
        f"Table {'4' if static else '5'} — predicted instructions, {which}",
        ["Type"] + list(campaign.benchmarks()),
        rows,
    )
    return data, grid


def table4(scale: float | None = None) -> ExperimentArtifact:
    """Table 4: static count of predicted instructions per category."""
    data, grid = _category_table(scale, static=True)
    return _grid_artifact("table4", "Predicted instructions — static count", data, grid)


def table5(scale: float | None = None) -> ExperimentArtifact:
    """Table 5: dynamic percentage of predicted instructions per category."""
    data, grid = _category_table(scale, static=False)
    return _grid_artifact("table5", "Predicted instructions — dynamic %", data, grid)


def _accuracy_figure(scale: float | None, category: Category | None, name: str, title: str) -> ExperimentArtifact:
    campaign = _campaign(scale)
    report = build_accuracy_report(campaign.simulations)
    figure = FigureSeries(
        name=title,
        x_label="benchmark",
        y_label="% of predictions correct",
        x_values=list(campaign.benchmarks()),
    )
    for predictor in campaign.predictor_names:
        figure.add_series(predictor, report.benchmark_series(predictor, category))
    return _grid_artifact(name, title, figure, figure.to_grid())


def figure3(scale: float | None = None) -> ExperimentArtifact:
    """Figure 3: overall prediction success for all instructions."""
    return _accuracy_figure(scale, None, "figure3", "Figure 3 — prediction success (all instructions)")


def figure4_7(scale: float | None = None) -> ExperimentArtifact:
    """Figures 4-7: prediction success for AddSub, Loads, Logic and Shift."""
    campaign = _campaign(scale)
    report = build_accuracy_report(campaign.simulations)
    figures: dict[str, FigureSeries] = {}
    mapping = {
        "figure4": Category.ADDSUB,
        "figure5": Category.LOADS,
        "figure6": Category.LOGIC,
        "figure7": Category.SHIFT,
    }
    grids = []
    for identifier, category in mapping.items():
        figure = FigureSeries(
            name=f"{identifier} ({category.value})",
            x_label="benchmark",
            y_label=f"% of predictions correct ({category.value})",
            x_values=list(campaign.benchmarks()),
        )
        for predictor in campaign.predictor_names:
            figure.add_series(predictor, report.benchmark_series(predictor, category))
        figures[identifier] = figure
        grids.append(figure.to_grid())
    return _grid_artifact(
        "figure4_7", "Prediction success per instruction type", figures, *grids
    )


def figure8(scale: float | None = None) -> ExperimentArtifact:
    """Figure 8: contribution of the different predictors (set correlation)."""
    campaign = _campaign(scale)
    breakdowns = [
        correlation_breakdown(simulation) for simulation in campaign.simulations.values()
    ]
    averaged = average_correlation(breakdowns)
    figure = FigureSeries(
        name="Figure 8",
        x_label="instruction group",
        y_label="% of predictions per correctness subset",
        x_values=["All"] + [category.value for category in REPORTED_CATEGORIES],
    )
    for label in SUBSET_LABELS:
        values = [averaged.overall[label]] + [
            averaged.by_category[category][label] for category in REPORTED_CATEGORIES
        ]
        figure.add_series(label, values)
    data = {"average": averaged, "per_benchmark": dict(zip(campaign.benchmarks(), breakdowns))}
    return _grid_artifact("figure8", "Contribution of different predictors", data, figure.to_grid())


def figure9(scale: float | None = None) -> ExperimentArtifact:
    """Figure 9: cumulative improvement of fcm over stride."""
    campaign = _campaign(scale)
    curves = combined_improvement_curves_by_category(
        list(campaign.simulations.values()), fcm_name="fcm3", stride_name="s2"
    )
    x_values = [str(x) for x in sorted(curves["All"].points)]
    figure = FigureSeries(
        name="Figure 9",
        x_label="% of improving static instructions",
        y_label="normalised cumulative improvement (%)",
        x_values=x_values,
    )
    for label, curve in curves.items():
        figure.add_series(
            label, [curve.points.get(int(x), 100.0 if curve.points else 0.0) for x in x_values]
        )
    return _grid_artifact("figure9", "Cumulative improvement of FCM over stride", curves, figure.to_grid())


def figure10(scale: float | None = None) -> ExperimentArtifact:
    """Figure 10: unique-value profiles of static and dynamic instructions."""
    campaign = _campaign(scale)
    profiles = [profile_from_tallies(campaign.pc_tallies(name)) for name in campaign.benchmarks()]
    averaged = average_value_profiles(profiles)
    groups = ["All"] + [category.value for category in REPORTED_CATEGORIES]
    figure = FigureSeries(
        name="Figure 10",
        x_label="instruction group (s. = static view, d. = dynamic view)",
        y_label="% of instructions per unique-value bucket",
        x_values=[f"s.{group}" for group in groups] + [f"d.{group}" for group in groups],
    )
    for label in bucket_labels():
        values = [averaged.static_percent[group][label] for group in groups] + [
            averaged.dynamic_percent[group][label] for group in groups
        ]
        figure.add_series(label, values)
    data = {"average": averaged, "per_benchmark": dict(zip(campaign.benchmarks(), profiles))}
    return _grid_artifact("figure10", "Values and instruction behaviour", data, figure.to_grid())


# --------------------------------------------------------------------------- #
# Sensitivity studies (gcc)
#
# These render through the engine-backed sweep layer: each entry point is a
# thin façade over a SweepSpec executed by repro.engine.sweeps, so the
# studies honour the configured --jobs/--cache-dir defaults, deduplicate
# shared traces and are zero-compute on a warm cache, while remaining
# bit-identical to the historical serial loops.
# --------------------------------------------------------------------------- #
def table6(scale: float | None = None) -> ExperimentArtifact:
    """Table 6: gcc sensitivity to different input files (order-2 fcm)."""
    points = input_sensitivity(scale=DEFAULT_SCALE if scale is None else scale)
    rows = [[point.setting, point.predictions, point.accuracy] for point in points]
    grid = Grid(
        "Table 6 — gcc sensitivity to input files (fcm order 2)",
        ["Input file", "Predictions", "Correct (%)"],
        rows,
    )
    return _grid_artifact("table6", "gcc input-file sensitivity", points, grid)


def table7(scale: float | None = None) -> ExperimentArtifact:
    """Table 7: gcc sensitivity to compilation flags (order-2 fcm)."""
    points = flag_sensitivity(scale=DEFAULT_SCALE if scale is None else scale)
    rows = [[point.setting, point.predictions, point.accuracy] for point in points]
    grid = Grid(
        "Table 7 — gcc sensitivity to flags (fcm order 2)",
        ["Flags", "Predictions", "Correct (%)"],
        rows,
    )
    return _grid_artifact("table7", "gcc flag sensitivity", points, grid)


def figure11(scale: float | None = None, max_order: int = 8) -> ExperimentArtifact:
    """Figure 11: gcc prediction accuracy versus fcm order."""
    orders = tuple(range(1, max_order + 1))
    accuracies = order_sensitivity(
        orders=orders, scale=DEFAULT_SCALE if scale is None else scale
    )
    figure = FigureSeries(
        name="Figure 11",
        x_label="predictor order",
        y_label="prediction accuracy (%)",
        x_values=[str(order) for order in orders],
    )
    figure.add_series("fcm", [accuracies[order] for order in orders])
    return _grid_artifact("figure11", "gcc sensitivity to fcm order", accuracies, figure.to_grid())


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentArtifact]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4_7": figure4_7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
}


def run_experiment(identifier: str, **kwargs) -> ExperimentArtifact:
    """Run one experiment by identifier (``"table2"``, ``"figure3"``, ...)."""
    try:
        factory = ALL_EXPERIMENTS[identifier]
    except KeyError as exc:
        raise ReportingError(
            f"unknown experiment {identifier!r}; known: {', '.join(sorted(ALL_EXPERIMENTS))}"
        ) from exc
    return factory(**kwargs)
