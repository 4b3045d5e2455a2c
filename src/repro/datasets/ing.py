"""Synthetic stand-ins for the proprietary ING dataset pairs.

Section V-B describes two production pairs from ING Bank Netherlands that
cannot be published:

* **ING#1** — two SCRUM backlog tables (33 columns × 935 rows and 16 columns
  × 972 rows) with dates, team ids, owner teams, tasks, EPIC names and many
  hash/description columns whose words recur across contexts.  Matching
  columns have identical or very similar names and almost-identical values.
* **ING#2** — an application-inventory pair: a wide denormalised table
  (59 columns × 1000 rows) with low-level information and a 25-column
  business-oriented table, where the second table's column names carry
  suffixes and the ground truth maps single business columns to *multiple*
  technical columns.

The generators below reproduce those structural challenges synthetically and
ship a hand-written ground truth, so Table IV can be regenerated.
"""

from __future__ import annotations

from repro.data.table import Column, Table
from repro.datasets.vocabulary import APPLICATION_WORDS, TEAM_NAMES, ValueSampler
from repro.fabrication.pairs import DatasetPair, Scenario

__all__ = ["ing_backlog_pair", "ing_application_pair", "ing_pairs"]


def ing_backlog_pair(num_rows: int = 300, seed: int = 55) -> DatasetPair:
    """ING#1: two SCRUM backlog tables with near-identical shared columns."""
    sampler = ValueSampler(seed)
    rows = num_rows
    teams = list(TEAM_NAMES)
    epics = [f"EPIC-{sampler.integer(100, 999)}" for _ in range(25)]
    task_words = ("implement", "refactor", "migrate", "review", "deploy", "test", "design", "document", "integrate", "monitor")
    status_values = ("todo", "in progress", "review", "done", "blocked")

    # Shared backbone columns appear in both systems with (nearly) the same
    # names and almost identical values.
    shared_values = {
        "sprint_id": [f"SPR-{sampler.integer(1, 60):03d}" for _ in range(rows)],
        "team_id": [sampler.choice(teams) for _ in range(rows)],
        "owner_team": [sampler.choice(teams) for _ in range(rows)],
        "epic_name": [sampler.choice(epics) for _ in range(rows)],
        "task_description": [sampler.sentence(task_words, 6) for _ in range(rows)],
        "story_points": [sampler.choice(("1", "2", "3", "5", "8", "13")) for _ in range(rows)],
        "status": [sampler.choice(status_values) for _ in range(rows)],
        "start_date": [sampler.date(2018, 2020) for _ in range(rows)],
        "end_date": [sampler.date(2019, 2021) for _ in range(rows)],
        "assignee": [sampler.person_name() for _ in range(rows)],
        "reporter": [sampler.person_name() for _ in range(rows)],
        "item_hash": [sampler.hash_token(16) for _ in range(rows)],
    }

    wide_columns = [Column(name, list(values)) for name, values in shared_values.items()]
    # Extra technical columns unique to the first (33-column) system.
    for extra_name in (
        "board_id", "backlog_rank", "parent_item_hash", "labels", "component",
        "created_by", "created_at", "updated_at", "resolution", "priority",
        "time_spent_hours", "remaining_hours", "original_estimate", "watchers",
        "comments_count", "blocked_reason", "release_version", "environment",
        "acceptance_criteria", "risk_level", "audit_hash",
    ):
        if extra_name in ("parent_item_hash", "audit_hash"):
            values = [sampler.hash_token(16) for _ in range(rows)]
        elif extra_name in ("created_at", "updated_at"):
            values = [sampler.date(2018, 2021) for _ in range(rows)]
        elif extra_name in ("time_spent_hours", "remaining_hours", "original_estimate"):
            values = [sampler.integer(1, 80) for _ in range(rows)]
        elif extra_name in ("watchers", "comments_count", "backlog_rank", "board_id"):
            values = [sampler.integer(1, 500) for _ in range(rows)]
        elif extra_name == "priority":
            values = [sampler.choice(("low", "medium", "high", "critical")) for _ in range(rows)]
        elif extra_name == "risk_level":
            values = [sampler.choice(("green", "amber", "red")) for _ in range(rows)]
        else:
            values = [sampler.sentence(task_words, 4) for _ in range(rows)]
        wide_columns.append(Column(extra_name, values))
    wide = Table("ing_backlog_system1", wide_columns)

    # The 16-column system shares the backbone (slightly renamed in places)
    # plus a few of its own columns; values are near-identical copies.
    narrow_renames = {
        "sprint_id": "sprint",
        "team_id": "team",
        "owner_team": "owner_team",
        "epic_name": "epic",
        "task_description": "task_description",
        "story_points": "points",
        "status": "status",
        "start_date": "start_date",
        "end_date": "end_date",
        "assignee": "assignee",
        "reporter": "reported_by",
        "item_hash": "item_hash",
    }
    narrow_columns = [
        Column(narrow_renames[name], list(values)) for name, values in shared_values.items()
    ]
    narrow_columns.extend(
        [
            Column("velocity", [sampler.integer(10, 60) for _ in range(rows)]),
            Column("capacity", [sampler.integer(20, 80) for _ in range(rows)]),
            Column("retrospective_notes", [sampler.sentence(task_words, 5) for _ in range(rows)]),
            Column("scrum_master", [sampler.person_name() for _ in range(rows)]),
        ]
    )
    narrow = Table("ing_backlog_system2", narrow_columns)

    ground_truth = [(name, narrow_renames[name]) for name in shared_values]
    pair = DatasetPair(
        name="ing_1",
        source=wide,
        target=narrow,
        ground_truth=ground_truth,
        scenario=Scenario.JOINABLE,
        variant=None,
        metadata={"source_dataset": "ing", "description": "SCRUM backlog systems"},
    )
    pair.validate()
    return pair


def ing_application_pair(num_rows: int = 300, seed: int = 56) -> DatasetPair:
    """ING#2: wide technical application inventory vs. business-oriented view.

    The ground truth maps business columns to (possibly several) technical
    columns; technical column names carry suffixes (``_cd``, ``_ref``,
    ``_src``) that hurt schema-based matching, while values are highly
    similar, which favours distribution-based matching — mirroring Table IV.
    """
    sampler = ValueSampler(seed)
    rows = num_rows
    app_names = [f"{sampler.choice(APPLICATION_WORDS)} {sampler.choice(('Core', 'Hub', 'Service', 'Engine'))}" for _ in range(60)]
    teams = list(TEAM_NAMES)
    departments = ("Retail", "Wholesale", "Risk", "Operations", "Technology", "Finance")
    env_values = ("prod", "acc", "test", "dev")
    criticality = ("mission critical", "business critical", "supporting", "experimental")

    base = {
        "application_name": [sampler.choice(app_names) for _ in range(rows)],
        "owner_team": [sampler.choice(teams) for _ in range(rows)],
        "manager_name": [sampler.person_name() for _ in range(rows)],
        "department": [sampler.choice(departments) for _ in range(rows)],
        "hardware_host": [f"srv-{sampler.integer(100, 999)}.{sampler.choice(('ams', 'rtm', 'fra'))}.bank" for _ in range(rows)],
        "environment": [sampler.choice(env_values) for _ in range(rows)],
        "criticality": [sampler.choice(criticality) for _ in range(rows)],
        "used_by_application": [sampler.choice(app_names) for _ in range(rows)],
        "uses_application": [sampler.choice(app_names) for _ in range(rows)],
        "annual_cost": [sampler.amount(10_000, 2_000_000) for _ in range(rows)],
        "user_count": [sampler.integer(5, 20000) for _ in range(rows)],
        "go_live_date": [sampler.date(2000, 2020) for _ in range(rows)],
    }

    # Technical table: multiple cryptically named variants per business
    # concept (abbreviated, suffixed — as in the paper the technical system's
    # column names "contain suffixes that complicate schema-based matching")
    # plus plenty of unrelated low-level columns (59 columns in the paper).
    wide_columns: list[Column] = []
    suffix_variants = {
        "application_name": ("apl_nm_cd", "apl_nm_ref"),
        "owner_team": ("ownr_tm_cd", "ownr_tm_src"),
        "manager_name": ("mgr_prsn_ref",),
        "department": ("dept_cd",),
        "hardware_host": ("hw_hst_ref", "hw_hst_src"),
        "environment": ("env_cd",),
        "criticality": ("crt_lvl_cd",),
        "used_by_application": ("usd_by_apl_ref",),
        "uses_application": ("uses_apl_ref",),
        "annual_cost": ("ann_cst_amt",),
        "user_count": ("usr_cnt_nbr",),
        "go_live_date": ("golive_dt",),
    }
    ground_truth: list[tuple[str, str]] = []
    for business_name, technical_names in suffix_variants.items():
        for technical_name in technical_names:
            wide_columns.append(Column(technical_name, list(base[business_name])))
            ground_truth.append((business_name, technical_name))

    low_level_words = ("queue", "batch", "node", "shard", "pool", "cache", "token", "socket", "thread", "kernel")
    for i in range(59 - len(wide_columns)):
        kind = i % 4
        name = f"{sampler.choice(low_level_words)}_{sampler.choice(('id', 'cfg', 'metric', 'flag'))}_{i:02d}"
        if kind == 0:
            values = [sampler.hash_token(10) for _ in range(rows)]
        elif kind == 1:
            values = [sampler.integer(0, 10_000) for _ in range(rows)]
        elif kind == 2:
            values = [sampler.choice(("true", "false")) for _ in range(rows)]
        else:
            values = [round(sampler.rng.uniform(0, 1), 4) for _ in range(rows)]
        wide_columns.append(Column(name, values))
    technical = Table("ing_app_inventory_technical", wide_columns)

    # Business table: the 12 business columns plus 13 extra descriptive ones.
    business_columns = [Column(name, list(values)) for name, values in base.items()]
    for extra in (
        "business_owner", "service_window", "support_level", "vendor",
        "contract_end_date", "compliance_status", "recovery_time_objective",
        "recovery_point_objective", "data_classification", "country",
        "business_description", "review_date", "architecture_domain",
    ):
        if extra in ("contract_end_date", "review_date"):
            values = [sampler.date(2020, 2026) for _ in range(rows)]
        elif extra in ("recovery_time_objective", "recovery_point_objective"):
            values = [sampler.integer(1, 72) for _ in range(rows)]
        elif extra == "country":
            values = [sampler.country() for _ in range(rows)]
        elif extra == "business_owner":
            values = [sampler.person_name() for _ in range(rows)]
        else:
            values = [sampler.sentence(("core", "banking", "platform", "customer", "facing", "internal", "regulatory"), 4) for _ in range(rows)]
        business_columns.append(Column(extra, values))
    business = Table("ing_app_inventory_business", business_columns)

    pair = DatasetPair(
        name="ing_2",
        source=business,
        target=technical,
        ground_truth=ground_truth,
        scenario=Scenario.JOINABLE,
        variant=None,
        metadata={"source_dataset": "ing", "description": "application inventory"},
    )
    pair.validate()
    return pair


def ing_pairs(num_rows: int = 300, seed: int = 55) -> list[DatasetPair]:
    """Both ING pairs (ING#1 backlog, ING#2 application inventory)."""
    return [ing_backlog_pair(num_rows=num_rows, seed=seed), ing_application_pair(num_rows=num_rows, seed=seed + 1)]
