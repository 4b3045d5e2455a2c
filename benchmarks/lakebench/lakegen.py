"""Seeded CSV lake generator with planted ground truth (stdlib + numpy only).

Writes ``<out>/lake/*.csv`` (the tables the program indexes),
``<out>/queries/*.csv`` (the query tables) and ``<out>/truth.json`` (which
lake tables were planted as related to which query, and by which scenario).
Nothing here imports the program under test: the program only ever sees the
files.

Two profiles:

``families``
    The paper's four relatedness scenarios, fabricated from three wide seed
    schemas with realistic column names.  Every *family* is one seed table;
    its planted relatives are a **unionable** table (horizontal split with
    50 % row overlap), a **view-unionable** one (horizontal + vertical
    split, no shared rows), a **joinable** one (vertical split sharing the
    key columns, same rows) and a **semantically-joinable** one (joinable
    with renamed columns and perturbed values).  Queries are further slices
    of the seed table, plus one narrow one (keys and two columns) per family.  The rest of the lake — the majority — is unrelated
    background: slices of other domains that borrow a few generic columns
    (names and value pools, never identifiers) from a seed schema.

``overlap``
    Ontology-neutral column names (``field_N``) and graded value overlap:
    every *group* has a cohort whose share of the query's values falls from
    1.0 to 0.5, and everything outside the group is value-disjoint.  This is
    the shape on which SemProp's sketch bound is admissible, so a cascaded
    rerank can skip the disjoint majority.
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = ["LakeShape", "generate", "FAMILIES", "OVERLAP"]

FIRST = "ada alan grace linus barbara ken dennis margaret edsger donald frances john jean niklaus radia tim anita guido leslie shafi".split()
LAST = "lovelace turing hopper torvalds liskov thompson ritchie hamilton dijkstra knuth allen backus sammet wirth perlman lee borg rossum lamport goldwasser".split()
CITIES = "amsterdam delft rotterdam utrecht leiden berlin munich paris lyon madrid lisbon porto vienna zurich geneva oslo bergen stockholm turin milan".split()
COUNTRIES = "netherlands germany france spain portugal austria switzerland norway sweden italy".split()
STATES = "north south east west central coastal highland lowland".split()
EMPLOYERS = "acme globex initech umbrella hooli stark wayne wonka tyrell soylent".split()
PRODUCTS = "lamp desk chair shelf sofa table stool bench mirror rug clock vase frame plant".split()
BRANDS = "norda velta kubo lumen arbor tessa ondo pavo".split()
CATEGORIES = "lighting seating storage decor textile outdoor office kitchen".split()
PAYMENTS = "card cash transfer voucher invoice".split()
STATUSES = "open shipped delivered returned cancelled".split()
ORGANISMS = "homo_sapiens mus_musculus rattus_norvegicus danio_rerio escherichia_coli".split()
ASSAY_TYPES = "binding functional adme toxicity physicochemical".split()
TARGETS = "kinase protease receptor channel transporter nuclease ligase synthase".split()
TISSUES = "liver kidney brain heart lung muscle skin blood".split()
UNITS = "nM uM mM percent ratio".split()
JOURNALS = "jmedchem bmcl nature science cell plosone".split()
SENSORS = "thermo hygro baro anemo pluvio lux".split()
ROUTES = "alpha bravo charlie delta echo foxtrot golf hotel".split()

# (column name, its name in the semantically-joinable relative, value spec).
# The first two columns of every schema are its key columns.
Schema = Sequence[tuple[str, str, tuple]]
CUSTOMERS: Schema = [
    ("customer_id", "client_no", ("id", "CU")),
    ("email", "mail_address", ("email",)),
    ("first_name", "given_name", ("pick", FIRST)),
    ("last_name", "surname", ("pick", LAST)),
    ("gender", "sex", ("pick", ["f", "m", "x"])),
    ("phone", "telephone", ("code", "+31-", 9)),
    ("city", "town", ("pick", CITIES)),
    ("state", "region", ("pick", STATES)),
    ("country", "nation", ("pick", COUNTRIES)),
    ("postal_code", "zip", ("code", "", 5)),
    ("birth_date", "date_of_birth", ("date", 1950, 2004)),
    ("income", "salary", ("int", 18000, 240000)),
    ("credit_rating", "credit_score", ("int", 300, 850)),
    ("employer", "company", ("pick", EMPLOYERS)),
]
ORDERS: Schema = [
    ("order_id", "purchase_no", ("id", "OR")),
    ("tracking_code", "shipment_ref", ("code", "TR", 10)),
    ("order_date", "purchased_on", ("date", 2015, 2024)),
    ("product_name", "item", ("pick", PRODUCTS)),
    ("category", "product_group", ("pick", CATEGORIES)),
    ("brand", "manufacturer", ("pick", BRANDS)),
    ("quantity", "units", ("int", 1, 40)),
    ("unit_price", "price_each", ("float", 2.0, 900.0)),
    ("discount", "rebate", ("float", 0.0, 0.4)),
    ("total_amount", "order_value", ("float", 5.0, 9000.0)),
    ("payment_method", "paid_by", ("pick", PAYMENTS)),
    ("warehouse", "depot", ("pick", CITIES)),
    ("status", "order_state", ("pick", STATUSES)),
]
ASSAYS: Schema = [
    ("assay_id", "experiment_no", ("id", "AS")),
    ("compound_id", "molecule_ref", ("code", "CHEM", 7)),
    ("target_name", "protein", ("pick", TARGETS)),
    ("organism", "species", ("pick", ORGANISMS)),
    ("assay_type", "experiment_kind", ("pick", ASSAY_TYPES)),
    ("measurement", "reading", ("float", 0.01, 5000.0)),
    ("unit", "measure_unit", ("pick", UNITS)),
    ("confidence", "reliability", ("int", 0, 9)),
    ("journal", "publication", ("pick", JOURNALS)),
    ("year", "published_in", ("int", 1990, 2024)),
    ("tissue", "organ", ("pick", TISSUES)),
    ("ph", "acidity", ("float", 5.5, 8.5)),
    ("temperature", "degrees", ("float", 20.0, 40.0)),
]
# Background domains: no family is ever drawn from these.  A background table
# is a slice of one domain plus a few *generic* columns borrowed from a seed
# schema (names and value pools shared, identifiers not), which is what puts
# it on a query's shortlist without making it related.
DOMAINS: Sequence[Schema] = [
    [
        ("sample_no", "", ("id", "SM")),
        ("device_serial", "", ("code", "DV", 8)),
        ("sensor_kind", "", ("pick", SENSORS)),
        ("channel", "", ("pick", ROUTES)),
        ("reading_value", "", ("float", -40.0, 120.0)),
        ("battery_level", "", ("int", 0, 100)),
        ("recorded_on", "", ("date", 2018, 2024)),
        ("cache_hit", "", ("pick", ["yes", "no"])),
    ],
    [
        ("request_no", "", ("id", "RQ")),
        ("session_token", "", ("code", "ss", 12)),
        ("http_verb", "", ("pick", ["get", "put", "post", "delete", "head"])),
        ("url_path", "", ("code", "/v1/items/", 6)),
        ("response_bytes", "", ("int", 120, 900000)),
        ("latency_ms", "", ("float", 0.2, 4000.0)),
        ("referrer", "", ("pick", CITIES)),
        ("observed_on", "", ("date", 2020, 2024)),
    ],
    [
        ("variant_no", "", ("id", "VR")),
        ("chromosome", "", ("int", 1, 22)),
        ("allele", "", ("pick", ["a", "c", "g", "t"])),
        ("zygosity", "", ("pick", ["hom", "het", "hemi"])),
        ("read_depth", "", ("int", 4, 400)),
        ("quality_flag", "", ("pick", ["pass", "lowq", "filtered"])),
        ("gene_symbol", "", ("code", "GN", 4)),
        ("consequence", "", ("pick", ["missense", "synonymous", "intron", "splice"])),
    ],
    [
        ("ticket_no", "", ("id", "TK")),
        ("opened_on", "", ("date", 2019, 2024)),
        ("severity", "", ("pick", ["low", "medium", "high", "critical"])),
        ("component", "", ("pick", SENSORS + ROUTES)),
        ("assignee", "", ("pick", LAST)),
        ("resolution", "", ("pick", ["fixed", "wontfix", "duplicate", "invalid"])),
        ("wind_speed", "", ("float", 0.0, 35.0)),
        ("humidity", "", ("int", 5, 100)),
    ],
]
#: Seed-schema columns a background table may borrow.
GENERIC = frozenset(
    "email first_name last_name gender phone income credit_rating "
    "category brand quantity discount payment_method warehouse "
    "target_name organism assay_type measurement unit confidence journal tissue".split()
)
SEED_SCHEMAS = (CUSTOMERS, ORDERS, ASSAYS)


@dataclass(frozen=True)
class LakeShape:
    """Size of one generated lake."""

    profile: str
    tables: int
    rows: int
    groups: int  # families, or overlap groups
    queries_per_group: int
    cohort: int = 0  # overlap profile: related tables per group

    def as_dict(self) -> dict:
        return asdict(self)


#: Default shapes; the workloads pass their own sizes.
FAMILIES = LakeShape("families", tables=400, rows=200, groups=8, queries_per_group=3)
OVERLAP = LakeShape("overlap", tables=96, rows=200, groups=2, queries_per_group=12, cohort=24)


def _column(rng: np.random.Generator, spec: tuple, n: int, namespace: str) -> list[str]:
    kind = spec[0]
    if kind == "id":
        return [f"{spec[1]}{namespace}-{i:05d}" for i in range(n)]
    if kind == "email":
        first = rng.choice(FIRST, n)
        number = rng.integers(0, 10**6, n)
        return [f"{a}.{namespace}{b:06d}@example.org" for a, b in zip(first, number)]
    if kind == "code":
        digits = rng.integers(0, 10 ** spec[2], n)
        return [f"{spec[1]}{namespace}{d:0{spec[2]}d}" for d in digits]
    if kind == "pick":
        return [str(v) for v in rng.choice(spec[1], n)]
    if kind == "int":
        return [str(v) for v in rng.integers(spec[1], spec[2] + 1, n)]
    if kind == "float":
        return [f"{v:.3f}" for v in rng.uniform(spec[1], spec[2], n)]
    if kind == "date":
        years = rng.integers(spec[1], spec[2] + 1, n)
        months = rng.integers(1, 13, n)
        days = rng.integers(1, 29, n)
        return [f"{y:04d}-{m:02d}-{d:02d}" for y, m, d in zip(years, months, days)]
    raise ValueError(f"unknown column spec {spec!r}")


def _perturb(rng: np.random.Generator, values: list[str], share: float) -> list[str]:
    """Upper-case or truncate *share* of the cells (noisy instances)."""
    out = list(values)
    for i in np.flatnonzero(rng.random(len(out)) < share):
        out[i] = out[i].upper() if rng.random() < 0.5 else out[i][:-1]
    return out


def _write(path: Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _sub(columns: dict[str, list[str]], names: Sequence[str], rows: slice):
    return list(names), [columns[name][rows] for name in names]


def _families(rng: np.random.Generator, shape: LakeShape, lake: Path, queries: Path) -> dict:
    rows = shape.rows
    # Which columns a table has is drawn from the shape alone, so every seed
    # builds the same schemas around different values: cost differences
    # between seeds then come from the data, not from a luckier lake.
    layout = np.random.default_rng([shape.tables, shape.groups, shape.queries_per_group])
    truth_queries: dict[str, dict] = {}
    planted: dict[str, str] = {}
    for family in range(shape.groups):
        schema = SEED_SCHEMAS[family % len(SEED_SCHEMAS)]
        names = [name for name, _, _ in schema]
        keys, rest = names[:2], names[2:]
        namespace = f"{family:02d}{rng.integers(0, 1000):03d}"
        seed_table = {
            name: _column(rng, spec, 2 * rows, namespace) for name, _, spec in schema
        }
        half = len(rest) // 2
        view_columns = keys[:1] + [rest[i] for i in sorted(layout.choice(len(rest), max(2, (3 * len(rest)) // 5), replace=False))]
        relatives = {
            "unionable": _sub(seed_table, names, slice(rows // 2, rows // 2 + rows)),
            "view_unionable": _sub(seed_table, view_columns, slice(rows, 2 * rows)),
            "joinable": _sub(seed_table, keys + rest[:half], slice(0, rows)),
        }
        renamed = {name: alias for name, alias, _ in schema}
        sem_names, sem_columns = _sub(seed_table, keys + rest[half:], slice(0, rows))
        relatives["semantically_joinable"] = (
            [renamed[name] for name in sem_names],
            [_perturb(rng, column, 0.3) for column in sem_columns],
        )
        related = []
        for scenario, (header, columns) in relatives.items():
            table = f"rel_{family:02d}_{scenario}"
            _write(lake / f"{table}.csv", header, columns)
            planted[table] = scenario
            related.append(table)
        # One extra, *narrow* query per family (keys + two columns): matchers
        # whose cost grows with the column product get a cheap query class.
        for variant in range(shape.queries_per_group + 1):
            narrow = variant == shape.queries_per_group
            start = (variant * rows) // (2 * (shape.queries_per_group + 1))
            drop = len(rest) - 2 if narrow else 2 * (variant % 4)
            dropped = set(layout.choice(len(rest), drop, replace=False).tolist())
            kept = keys + [name for i, name in enumerate(rest) if i not in dropped]
            query = f"query_{family:02d}_{'narrow' if narrow else variant}"
            _write(queries / f"{query}.csv", *_sub(seed_table, kept, slice(start, start + rows)))
            truth_queries[query] = {"family": family, "narrow": narrow, "related": sorted(related)}
    for index in range(shape.tables - len(planted)):
        domain = DOMAINS[index % len(DOMAINS)]
        generic = [c for c in SEED_SCHEMAS[index % len(SEED_SCHEMAS)] if c[0] in GENERIC]
        own = sorted(layout.choice(len(domain), int(layout.integers(5, len(domain) + 1)), replace=False))
        borrowed = sorted(layout.choice(len(generic), int(layout.integers(2, 5)), replace=False))
        picked = [domain[i] for i in own] + [generic[i] for i in borrowed]
        namespace = f"b{index:04d}"
        _write(
            lake / f"bg_{index:04d}.csv",
            [name for name, _, _ in picked],
            [_column(rng, spec, rows, namespace) for _, _, spec in picked],
        )
    return {"queries": truth_queries, "planted": planted}


def _overlap(rng: np.random.Generator, shape: LakeShape, lake: Path, queries: Path) -> dict:
    rows, num_columns = shape.rows, 5
    header = [f"field_{c}" for c in range(num_columns)]
    truth_queries: dict[str, dict] = {}
    planted: dict[str, str] = {}

    def table(value_of: Callable[[int, int], str]) -> list[list[str]]:
        return [[value_of(c, r) for r in range(rows)] for c in range(num_columns)]

    for group in range(shape.groups):
        token = f"g{group}x{rng.integers(0, 16**6):06x}"
        related = []
        for member in range(shape.cohort):
            keep = 1.0 - 0.5 * member / max(1, shape.cohort - 1)
            cut = int(rows * keep)
            name = f"overlap_{group}_{member:02d}"
            _write(lake / f"{name}.csv", header, table(
                lambda c, r: f"{token}_{c}_{r}" if r < cut else f"{name}_{token}_{c}_{r}"
            ))
            planted[name] = f"overlap_{keep:.2f}"
            related.append(name)
        for variant in range(shape.queries_per_group):
            # Each variant swaps a different 2 % tail for private values, so
            # queries are distinct tables that still rank the cohort alike.
            own = rows - (variant * rows) // 50
            name = f"query_{group}_{variant}"
            _write(queries / f"{name}.csv", header, table(
                lambda c, r: f"{token}_{c}_{r}" if r < own else f"{name}_{token}_{c}_{r}"
            ))
            truth_queries[name] = {"family": group, "narrow": False, "related": sorted(related)}
    for index in range(shape.tables - len(planted)):
        token = f"j{index}x{rng.integers(0, 16**6):06x}"
        _write(lake / f"disjoint_{index:03d}.csv", header, table(lambda c, r: f"{token}_{c}_{r}"))
    return {"queries": truth_queries, "planted": planted}


def generate(out_dir: Path, seed: int, shape: LakeShape) -> dict:
    """Write lake, queries and ``truth.json`` under *out_dir*; returns the truth."""
    lake, queries = out_dir / "lake", out_dir / "queries"
    lake.mkdir(parents=True)
    queries.mkdir()
    rng = np.random.default_rng([seed, len(shape.profile), shape.tables, shape.rows])
    builder = {"families": _families, "overlap": _overlap}[shape.profile]
    truth = {"seed": seed, "shape": shape.as_dict(), **builder(rng, shape, lake, queries)}
    (out_dir / "truth.json").write_text(
        json.dumps(truth, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory (must not exist)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", choices=("families", "overlap"), default="families")
    parser.add_argument("--tables", type=int)
    parser.add_argument("--rows", type=int)
    args = parser.parse_args(argv)
    base = FAMILIES if args.profile == "families" else OVERLAP
    shape = LakeShape(**{**base.as_dict(), **{
        key: value for key in ("tables", "rows") if (value := getattr(args, key)) is not None
    }})
    truth = generate(args.out, args.seed, shape)
    print(f"{shape.tables} tables, {len(truth['queries'])} queries -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
