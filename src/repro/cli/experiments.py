"""Paper-experiment commands: ``coverage``, ``parameters``, ``fabricate``, ``run``, ``match``."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.options import add_method_option, fail, positive_int
from repro.data.csv_io import UNREADABLE_CSV, read_csv, write_csv
from repro.datasets import chembl_assays_table, open_data_table, tpcdi_prospect_table
from repro.experiments.parameters import default_parameter_grids
from repro.experiments.reports import (
    render_boxplot_figure,
    render_coverage_table,
    render_parameter_grids,
)
from repro.experiments.runner import ExperimentRunner
from repro.fabrication import FabricationConfig, Fabricator, Scenario
from repro.matchers.registry import create_matcher

_SOURCES = {
    "tpcdi": tpcdi_prospect_table,
    "opendata": open_data_table,
    "chembl": chembl_assays_table,
}


def register(subparsers: argparse._SubParsersAction) -> None:
    coverage = subparsers.add_parser("coverage", help="print the Table I coverage matrix")
    coverage.set_defaults(func=_command_coverage)

    params = subparsers.add_parser("parameters", help="print the Table II parameter grids")
    params.add_argument("--fast", action="store_true", help="show the thinned laptop-scale grids")
    params.set_defaults(func=_command_parameters)

    fabricate = subparsers.add_parser("fabricate", help="fabricate dataset pairs to CSV files")
    fabricate.add_argument("--source", choices=sorted(_SOURCES), default="tpcdi")
    fabricate.add_argument("--rows", type=int, default=400, help="seed table row count")
    fabricate.add_argument("--output", type=Path, default=Path("fabricated_pairs"))
    fabricate.add_argument("--scenario", choices=[s.value for s in Scenario], default=None)
    fabricate.set_defaults(func=_command_fabricate)

    run = subparsers.add_parser("run", help="run the experiment grid and print summaries")
    run.add_argument("--source", choices=sorted(_SOURCES), default="tpcdi")
    run.add_argument("--rows", type=int, default=200, help="seed table row count")
    run.add_argument("--methods", nargs="*", default=None, help="subset of method names to run")
    run.add_argument("--full-grid", action="store_true", help="use the full Table II grids")
    run.add_argument("--output", type=Path, default=None, help="write results JSON to this path")
    run.set_defaults(func=_command_run)

    match = subparsers.add_parser("match", help="match two CSV files")
    match.add_argument("source_csv", type=Path)
    match.add_argument("target_csv", type=Path)
    add_method_option(match)
    match.add_argument("--top", type=positive_int, default=20, help="number of ranked matches to print")
    match.set_defaults(func=_command_match)


def _command_coverage(args: argparse.Namespace) -> int:
    print(render_coverage_table())
    return 0


def _command_parameters(args: argparse.Namespace) -> int:
    print(render_parameter_grids(default_parameter_grids(fast=args.fast)))
    return 0


def _command_fabricate(args: argparse.Namespace) -> int:
    seed_table = _SOURCES[args.source](num_rows=args.rows)
    fabricator = Fabricator(FabricationConfig())
    scenarios = [Scenario(args.scenario)] if args.scenario else None
    pairs = fabricator.fabricate(seed_table, scenarios=scenarios)
    args.output.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        write_csv(pair.source, args.output / f"{pair.name}__source.csv")
        write_csv(pair.target, args.output / f"{pair.name}__target.csv")
        ground_truth_path = args.output / f"{pair.name}__ground_truth.csv"
        with ground_truth_path.open("w", encoding="utf-8") as handle:
            handle.write("source_column,target_column\n")
            for source_column, target_column in pair.ground_truth:
                handle.write(f"{source_column},{target_column}\n")
    print(f"fabricated {len(pairs)} pairs from {args.source} into {args.output}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    seed_table = _SOURCES[args.source](num_rows=args.rows)
    fabricator = Fabricator(FabricationConfig())
    pairs = fabricator.fabricate(seed_table)
    grids = default_parameter_grids(fast=not args.full_grid)
    runner = ExperimentRunner(grids=grids, progress_callback=lambda msg: print("  " + msg))
    total = runner.total_runs(len(pairs), args.methods)
    print(f"running {total} experiments over {len(pairs)} pairs")
    results = runner.run_all(pairs, methods=args.methods)
    print(render_boxplot_figure(results, title=f"Recall@ground-truth summaries ({args.source})"))
    if args.output is not None:
        results.to_json(args.output)
        print(f"results written to {args.output}")
    return 0


def _command_match(args: argparse.Namespace) -> int:
    tables = []
    for path in (args.source_csv, args.target_csv):
        try:
            tables.append(read_csv(path))
        except UNREADABLE_CSV as exc:
            return fail(f"cannot read {path}: {exc}")
    result = create_matcher(args.method).get_matches(*tables)
    for match in result.top_k(args.top):
        print(f"{match.score:.3f}  {match.source}  ~  {match.target}")
    return 0
