"""Property-based test of the one rule the rerank cascade rests on.

The cascade skips a candidate whenever its ``score_bound`` is finite and
falls below the top-k cutoff, so the rule is: a finite bound is sound —
*no* column-pair score ``match_prepared`` can produce exceeds
``score_bound(prepared_query, candidate_signals(...))``, with the signals
computed exactly as the lake engine computes them — from the signature
block of a :class:`~repro.lake.index.LakeIndex` holding the candidate —
and from sketches made with the store's
:class:`~repro.lake.profiles.SketchConfig`.  A matcher that
cannot guarantee that answers ``+inf``.  The dominance property runs over
every registered matcher, with nothing filtered out; where SemProp's
calibration assumptions break it must answer ``+inf``, which the same
inequality enforces (a finite answer there is a wrong skip waiting to
happen) and the SemProp-specific tests pin one configuration at a time.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.discovery.cascade import candidate_signals
from repro.lake.index import LakeIndex, LSHParams
from repro.lake.profiles import SketchConfig, sketch_table
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
    """``(score_bound, highest pair score)`` the way the lake engine gets them.

    An infinite bound dominates whatever the matcher scores, so the pair is
    matched only when the bound is something else.
    """
    index = LakeIndex(config, LSHParams(bands=config.num_permutations // 4))
    index.add(sketch_table(candidate, config))
    (signals,) = candidate_signals(
        sketch_table(query, config, content_hash=""),
        [candidate.name],
        *index.signature_block([candidate.name]),
        seed=config.seed,
    ).values()
    prepared_query = matcher.prepare(query)
    bound = matcher.score_bound(prepared_query, signals)
    if bound == math.inf:
        return bound, None
    result = matcher.match_prepared(prepared_query, matcher.prepare(candidate))
    return bound, max((match.score for match in result), default=0.0)


def _bound_matchers() -> dict[str, object]:
    """Every registered matcher at its defaults, plus the SemProp
    configurations under which its bound must give up."""
    matchers = {name: create_matcher(name) for name in available_matchers()}
    matchers["semprop sample_size=4"] = SemPropMatcher(sample_size=4)
    matchers["semprop num_permutations=64"] = SemPropMatcher(num_permutations=64)
    matchers["semprop coherent_threshold=0"] = SemPropMatcher(coherent_threshold=0.0)
    return matchers


_MATCHERS = _bound_matchers()


class TestFiniteBoundsDominateEveryPairScore:
    @pytest.mark.parametrize("label", sorted(_MATCHERS))
    @settings(max_examples=300, deadline=None)
    @given(pair=table_pairs(), config=sketch_configs)
    def test_no_pair_scores_above_the_bound(self, label, pair, config):
        bound, best = _bound_and_best(_MATCHERS[label], *pair, config)
        assert bound == math.inf or best <= bound

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
