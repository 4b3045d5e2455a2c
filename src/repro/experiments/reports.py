"""Plain-text rendering of the paper's tables and figures.

The benchmark harness and the CLI print the reproduced artefacts with these
helpers: the Table I coverage matrix, Table II parameter grids, Table III
sensitivity, the Figure 4–7 boxplot summaries (rendered as min/median/max
rows per method and scenario), Table IV recall tables and Table V runtimes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.experiments.efficiency import RuntimeMeasurement
from repro.experiments.parameters import ParameterGrid
from repro.experiments.results import ResultSet
from repro.experiments.sensitivity import SensitivityResult
from repro.matchers.registry import coverage_table

__all__ = [
    "format_table",
    "render_coverage_table",
    "render_parameter_grids",
    "render_sensitivity_table",
    "render_boxplot_figure",
    "render_recall_table",
    "render_runtime_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Format a simple fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [[str(h)] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_coverage_table() -> str:
    """Render Table I: methods × match types."""
    rows = coverage_table()
    if not rows:
        return "(no matchers registered)"
    match_type_columns = [key for key in rows[0] if key not in ("method", "code")]
    headers = ["Method", "Code"] + [key.replace("_", " ") for key in match_type_columns]
    body = [
        [row["method"], row["code"]] + ["X" if row[key] else "" for key in match_type_columns]
        for row in rows
    ]
    return format_table(headers, body)


def render_parameter_grids(grids: Mapping[str, ParameterGrid]) -> str:
    """Render Table II: parameter values per method."""
    rows = []
    for method_name in sorted(grids):
        grid = grids[method_name]
        if not grid.grid and not grid.fixed:
            rows.append([method_name, "(defaults)", "-"])
        for parameter, values in sorted(grid.fixed.items()):
            rows.append([method_name, parameter, str(values)])
        for parameter, values in sorted(grid.grid.items()):
            rows.append([method_name, parameter, ", ".join(str(v) for v in values)])
    return format_table(["Method", "Parameter", "Values"], rows)


def render_sensitivity_table(results: Sequence[SensitivityResult]) -> str:
    """Render Table III: min/median/max std-dev of recall per varied parameter."""
    rows = [
        [
            result.method,
            result.parameter,
            f"{result.min_std:.2f}",
            f"{result.median_std:.2f}",
            f"{result.max_std:.2f}",
        ]
        for result in results
    ]
    return format_table(["Method", "Varying parameter", "Min std", "Median std", "Max std"], rows)


def render_boxplot_figure(
    results: ResultSet,
    title: str,
    methods: Sequence[str] | None = None,
    scenarios: Sequence[str] | None = None,
) -> str:
    """Render a Figure 4–7 style summary: recall stats per method and scenario."""
    stats = results.boxplot_by_method_and_scenario()
    method_names = list(methods) if methods else results.methods()
    scenario_names = list(scenarios) if scenarios else results.scenarios()
    rows = []
    for scenario in scenario_names:
        for method in method_names:
            entry = stats.get((method, scenario))
            if entry is None:
                continue
            rows.append(
                [
                    scenario,
                    method,
                    f"{entry.minimum:.2f}",
                    f"{entry.median:.2f}",
                    f"{entry.maximum:.2f}",
                    entry.count,
                ]
            )
    table = format_table(["Scenario", "Method", "Min", "Median", "Max", "Runs"], rows)
    return f"{title}\n{table}"


def render_recall_table(results_by_dataset: Mapping[str, ResultSet], title: str) -> str:
    """Render a Table IV style recall table: methods × dataset sources."""
    dataset_names = list(results_by_dataset)
    methods: list[str] = sorted(
        {method for results in results_by_dataset.values() for method in results.methods()}
    )
    rows = []
    for method in methods:
        row: list[object] = [method]
        for dataset in dataset_names:
            best = results_by_dataset[dataset].best_recall_by_method().get(method)
            row.append(f"{best:.3f}" if best is not None else "-")
        rows.append(row)
    table = format_table(["Method"] + dataset_names, rows)
    return f"{title}\n{table}"


def render_runtime_table(measurements: Sequence[RuntimeMeasurement]) -> str:
    """Render Table V: average runtime per experiment in seconds."""
    rows = [
        [m.method, f"{m.average_seconds:.3f}", "instance" if m.uses_instances else "schema"]
        for m in measurements
    ]
    return format_table(["Method", "Average runtime (s)", "Kind"], rows)
