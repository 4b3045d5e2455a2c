"""Property-based tests for MinHash signatures and match-result invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcher_support import reference_jaccard, reference_jaccard_matrix
from repro.data.table import ColumnRef
from repro.matchers.base import Match, MatchResult
from repro.sketches.minhash import jaccard_matrix, minhash_signatures

value_sets = st.sets(st.text(min_size=1, max_size=6), min_size=0, max_size=30)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The signatures of *a* and *b*, each a one-row matrix."""
    signatures, _ = minhash_signatures([a, b], num_permutations=64)
    return signatures[:1], signatures[1:]


class TestMinHashProperties:
    @settings(max_examples=30)
    @given(value_sets, value_sets)
    def test_estimate_bounded(self, a, b):
        assert 0.0 <= jaccard_matrix(*_pair(a, b))[0, 0] <= 1.0

    @settings(max_examples=30)
    @given(value_sets)
    def test_identity_estimate_is_one(self, a):
        assert jaccard_matrix(*_pair(a, a))[0, 0] == 1.0

    @settings(max_examples=30)
    @given(value_sets, value_sets)
    def test_symmetry(self, a, b):
        sig_a, sig_b = _pair(a, b)
        assert jaccard_matrix(sig_a, sig_b)[0, 0] == jaccard_matrix(sig_b, sig_a)[0, 0]
        assert jaccard_matrix(sig_a, sig_b)[0, 0] == reference_jaccard(
            sig_a[0].tolist(), sig_b[0].tolist()
        )


#: Zero to three columns of small, overlapping value sets (empty sets sign
#: every permutation with 2**32 - 1).
columns = st.lists(st.sets(st.sampled_from("abcdefgh"), max_size=6), max_size=3)


class TestJaccardMatrixAgainstTheListForm:
    """The matrix kernel gives every cell the double the per-pair Python count does."""

    @settings(max_examples=60)
    @given(columns, columns, st.integers(min_value=1, max_value=24))
    def test_matrix_form_equals_reference(self, columns_a, columns_b, width):
        signatures_a, _ = minhash_signatures(columns_a, num_permutations=width)
        signatures_b, _ = minhash_signatures(columns_b, num_permutations=width)
        expected = reference_jaccard_matrix(signatures_a.tolist(), signatures_b.tolist())
        for dtype in (np.uint64, np.uint32):  # a widened copy, the signatures as made
            matrix_a = signatures_a.astype(dtype)
            matrix_b = signatures_b.astype(dtype)
            actual = jaccard_matrix(matrix_a, matrix_b)
            assert actual.shape == expected.shape
            assert actual.dtype == expected.dtype
            assert (actual == expected).all()

    @given(columns, st.integers(min_value=1, max_value=8))
    def test_widths_must_agree(self, columns_a, width):
        signatures_a, _ = minhash_signatures(columns_a or [{"a"}], num_permutations=width)
        wider, _ = minhash_signatures([{"a"}], num_permutations=width + 1)
        with pytest.raises(ValueError, match="same number of permutations"):
            reference_jaccard_matrix(signatures_a.tolist(), wider.tolist())
        with pytest.raises(ValueError, match="same number of permutations"):
            jaccard_matrix(signatures_a, wider)


scores = st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=0, max_size=30)


class TestMatchResultProperties:
    @given(scores)
    def test_ranking_sorted_descending(self, values):
        matches = [
            Match(score, ColumnRef("s", f"a{i}"), ColumnRef("t", f"b{i}"))
            for i, score in enumerate(values)
        ]
        result = MatchResult(matches)
        ranked_scores = [match.score for match in result]
        assert ranked_scores == sorted(ranked_scores, reverse=True)

    @given(scores, st.integers(min_value=0, max_value=40))
    def test_top_k_is_prefix(self, values, k):
        matches = [
            Match(score, ColumnRef("s", f"a{i}"), ColumnRef("t", f"b{i}"))
            for i, score in enumerate(values)
        ]
        result = MatchResult(matches)
        top = result.top_k(k)
        assert len(top) == min(k, len(result))
        assert top.ranked_pairs() == result.ranked_pairs()[: len(top)]

    @given(scores)
    def test_one_to_one_never_reuses_columns(self, values):
        matches = [
            Match(score, ColumnRef("s", f"a{i % 3}"), ColumnRef("t", f"b{i % 4}"))
            for i, score in enumerate(values)
        ]
        filtered = MatchResult(matches).one_to_one()
        sources = [match.source for match in filtered]
        targets = [match.target for match in filtered]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))
