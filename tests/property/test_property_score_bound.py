"""Property-based test of the admissibility contract the rerank cascade rests on.

The cascade may skip a candidate only because a matcher declared
``bounds_admissible()`` and its ``score_bound`` fell below the top-k cutoff,
so the contract is: *no* column-pair score ``match_prepared`` can produce
exceeds ``score_bound(prepared_query, candidate_signals(...))`` — with the
signals computed exactly as the lake engine computes them, from sketches made
with the store's :class:`~repro.lake.profiles.SketchConfig`.  Where a
matcher's calibration assumptions break it must answer ``+inf``, which the
same inequality enforces (a finite answer there is a wrong skip waiting to
happen) and the SemProp-specific tests pin one configuration at a time.

The three scheduling-only overrides (JaccardLevenshtein, DistributionBased,
Ensemble) leave ``bounds_admissible()`` at ``False``; each gets a generated
counterexample here — a table pair scoring above its "bound" — so that
whether to promote or delete them is decided on evidence.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.discovery.cascade import candidate_signals
from repro.lake.profiles import SketchConfig, sketch_table
from repro.matchers.distribution_based import DistributionBasedMatcher
from repro.matchers.ensemble import EnsembleMatcher
from repro.matchers.jaccard_levenshtein import JaccardLevenshteinMatcher
from repro.matchers.registry import available_matchers, create_matcher
from repro.matchers.semprop import SemPropMatcher

#: Few distinct values, so generated columns overlap; near-identical
#: spellings and numbers, so fuzzy and distribution matchers have something
#: to find; case/whitespace variants, so both normalisations are exercised.
_VALUES = st.sampled_from(
    ["delft", "Delft ", "delfd", "gouda", "goudb", "leiden", "7", "8", "9", "7.1", "8.1", None]
)
#: ``field_N`` links to nothing in the business ontology; the others do.
_NEUTRAL_NAMES = [f"field_{i}" for i in range(4)]
_LINKED_NAMES = ["customer_name", "city", "account_balance", "price"]
_MAX_ROWS = 12


@st.composite
def tables(draw, name: str, column_names=None) -> Table:
    names = draw(
        st.lists(
            st.sampled_from(column_names or _NEUTRAL_NAMES + _LINKED_NAMES),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    rows = draw(st.integers(min_value=0, max_value=_MAX_ROWS))
    columns = {
        column: draw(st.lists(_VALUES, min_size=rows, max_size=rows)) for column in names
    }
    return Table(name, columns)


def table_pairs(column_names=None):
    return st.tuples(tables("query", column_names), tables("candidate", column_names))


#: What the store may have been sketched with: the default, a narrower
#: signature, a different permutation family.
sketch_configs = st.sampled_from(
    [SketchConfig(), SketchConfig(num_permutations=64), SketchConfig(seed=11)]
)


def _bound_and_best(matcher, query: Table, candidate: Table, config: SketchConfig):
    """``(score_bound, highest pair score)`` the way the lake engine gets them."""
    signals = candidate_signals(
        sketch_table(query, config, content_hash=""),
        sketch_table(candidate, config).columns,
        seed=config.seed,
    )
    prepared_query = matcher.prepare(query)
    bound = matcher.score_bound(prepared_query, signals)
    result = matcher.match_prepared(prepared_query, matcher.prepare(candidate))
    return bound, max((match.score for match in result), default=0.0)


def _admissible_matchers() -> dict[str, object]:
    """Every registered matcher that lets the cascade skip, at its defaults,
    plus the SemProp configurations under which its bound must give up."""
    matchers = {name: create_matcher(name) for name in available_matchers()}
    matchers["semprop sample_size=4"] = SemPropMatcher(sample_size=4)
    matchers["semprop num_permutations=64"] = SemPropMatcher(num_permutations=64)
    matchers["semprop coherent_threshold=0"] = SemPropMatcher(coherent_threshold=0.0)
    return {label: m for label, m in matchers.items() if m.bounds_admissible()}


_ADMISSIBLE = _admissible_matchers()


def test_semprop_is_what_declares_admissibility_today():
    assert {type(m) for m in _ADMISSIBLE.values()} == {SemPropMatcher}


class TestAdmissibleBoundsDominateEveryPairScore:
    @pytest.mark.parametrize("label", sorted(_ADMISSIBLE))
    @settings(max_examples=300, deadline=None)
    @given(pair=table_pairs(), config=sketch_configs)
    def test_no_pair_scores_above_the_bound(self, label, pair, config):
        bound, best = _bound_and_best(_ADMISSIBLE[label], *pair, config)
        assert best <= bound

    @settings(max_examples=40, deadline=None)
    @given(pair=table_pairs(_NEUTRAL_NAMES))
    def test_semprop_bound_is_finite_where_its_assumptions_hold(self, pair):
        """Not vacuous: the clean configuration gets a number, and a tight one."""
        bound, best = _bound_and_best(SemPropMatcher(), *pair, SketchConfig())
        assert bound <= 0.5 and best <= bound


class TestSemPropGivesUpWhereItCannotVouch:
    """Each broken assumption answers ``+inf`` (score exactly), one at a time."""

    @settings(max_examples=25, deadline=None)
    @given(pair=table_pairs(), linked=st.sampled_from(_LINKED_NAMES))
    def test_ontology_linked_query_column(self, pair, linked):
        query, candidate = pair
        columns = {column.name: column.values for column in query.columns}
        query = Table("query", {**columns, linked: [None] * query.num_rows})
        matcher = SemPropMatcher()
        assert any(matcher.prepare(query).payload["links"].values())
        bound, _ = _bound_and_best(matcher, query, candidate, SketchConfig())
        assert bound == math.inf

    @settings(max_examples=25, deadline=None)
    @given(
        pair=table_pairs(_NEUTRAL_NAMES),
        config=st.sampled_from([SketchConfig(num_permutations=64), SketchConfig(seed=11)]),
    )
    def test_signature_width_or_seed_mismatch(self, pair, config):
        bound, _ = _bound_and_best(SemPropMatcher(), *pair, config)
        assert bound == math.inf

    @settings(max_examples=40, deadline=None)
    @given(pair=table_pairs(_NEUTRAL_NAMES))
    def test_row_count_above_sample_size(self, pair):
        query, candidate = pair
        bound, _ = _bound_and_best(SemPropMatcher(sample_size=4), *pair, SketchConfig())
        truncates = query.num_rows > 4 or any(
            len(column.non_missing()) > 4 for column in candidate.columns
        )
        assert (bound == math.inf) == truncates


#: Why each scheduling-only override cannot be promoted, as one line each.
_SCHEDULING_ONLY = {
    "jaccardlevenshtein": (
        JaccardLevenshteinMatcher,
        "edit-distance tolerance matches values the exact-set sketch Jaccard calls disjoint",
    ),
    "distributionbased": (
        DistributionBasedMatcher,
        "per-pair quantile EMD and the store's hash-rank histogram distance are unrelated",
    ),
    "ensemble": (
        lambda: EnsembleMatcher([JaccardLevenshteinMatcher(), DistributionBasedMatcher()]),
        "members' rankings are min-max normalised, so the top pair scores 1.0 whatever they bound",
    ),
}


class TestSchedulingOnlyBoundsAreNotAdmissible:
    @pytest.mark.parametrize("label", sorted(_SCHEDULING_ONLY))
    def test_a_generated_pair_scores_above_the_bound(self, label, record_property):
        factory, reason = _SCHEDULING_ONLY[label]
        matcher = factory()
        assert not matcher.bounds_admissible()

        def exceeds(pair) -> bool:
            bound, best = _bound_and_best(matcher, *pair, SketchConfig())
            return best > bound

        query, candidate = find(
            table_pairs(_NEUTRAL_NAMES),
            exceeds,
            settings=settings(max_examples=2000, deadline=None, database=None, derandomize=True),
        )
        bound, best = _bound_and_best(matcher, query, candidate, SketchConfig())
        assert math.isfinite(bound) and best > bound
        record_property(
            "counterexample",
            {
                "matcher": matcher.name,
                "why": reason,
                "query": {c.name: c.values for c in query.columns},
                "candidate": {c.name: c.values for c in candidate.columns},
                "score_bound": bound,
                "best_pair_score": best,
            },
        )
