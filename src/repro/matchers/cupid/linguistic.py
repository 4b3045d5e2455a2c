"""Cupid's linguistic matching phase.

Linguistic matching computes name-based similarity between elements of the
two schema trees that belong to compatible categories.  Following Madhavan et
al. (VLDB 2001) the phase has three steps: normalisation (tokenisation,
abbreviation expansion), categorisation (grouping by data-type category) and
comparison (thesaurus lookups combined with token-level string similarity).

The paper notes that the original Cupid is not openly available and that the
Valentine authors used WordNet as thesaurus; here the bundled mini-thesaurus
(see :mod:`repro.text.thesaurus`) plays that role, and name similarity also
serves as the data-type compatibility surrogate, as in the paper.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.types import DataType, type_compatibility
from repro.matchers.cupid.schema_tree import SchemaElement
from repro.text.distance import jaro_winkler_similarity, monge_elkan
from repro.text.thesaurus import Thesaurus, default_thesaurus
from repro.text.tokenize import tokenize_identifier

__all__ = [
    "name_similarity",
    "linguistic_similarity",
    "category_compatibility",
    "token_pair_work",
]


#: Upper bound on distinct names whose token tuples are kept, emptied when
#: reached.  Matching all 30 queries of the lakebench gate lake against its
#: 72 tables (674 columns) leaves 300 entries: 96 distinct column names plus
#: a table and a schema name per table.
_NAME_TOKENS_LIMIT = 1 << 14

#: Upper bound on the token-pair score table, emptied when reached.  The
#: same 30 x 72 matches leave 10,222 entries (119 distinct column tokens;
#: 987,450 of 997,672 lookups hit).
_TOKEN_PAIR_LIMIT = 1 << 16


class _TokenPairTable:
    """Per-process scores of ordered token pairs, per thesaurus fingerprint.

    ``max(relation_score, jaro_winkler)`` is a pure function of the two
    tokens and the thesaurus content, so it is computed once per distinct
    ``(fingerprint, token_a, token_b)`` and shared by every match this
    process runs.  Scoped per process, not per matcher: an experiment
    worker unpickles a fresh matcher for every run and must still hit.  Keyed by
    :meth:`Thesaurus.fingerprint`, so a mutated thesaurus never reads a
    score computed before the mutation.  Module state, so it is never
    pickled into a matcher or a prepared payload.
    """

    __slots__ = ("scores", "lookups", "misses")

    def __init__(self) -> None:
        self.scores: dict[tuple[str, str, str], float] = {}
        #: Monotonic work census; callers report differences across a match.
        self.lookups = 0
        self.misses = 0


_TOKEN_PAIRS = _TokenPairTable()
_NAME_TOKENS: dict[str, tuple[str, ...]] = {}


def token_pair_work() -> tuple[int, int]:
    """Token-pair ``(hits, misses)`` of this process so far (monotonic)."""
    return _TOKEN_PAIRS.lookups - _TOKEN_PAIRS.misses, _TOKEN_PAIRS.misses


def _name_tokens(name: str) -> tuple[str, ...]:
    """Tokens of *name*, tokenised once per distinct name."""
    tokens = _NAME_TOKENS.get(name)
    if tokens is None:
        tokens = tuple(tokenize_identifier(name))
        if len(_NAME_TOKENS) >= _NAME_TOKENS_LIMIT:
            _NAME_TOKENS.clear()
        _NAME_TOKENS[name] = tokens
    return tokens


def name_similarity(
    name_a: str,
    name_b: str,
    thesaurus: Thesaurus | None = None,
) -> float:
    """Token-level name similarity combining thesaurus and string evidence.

    For every token pair the score is the maximum of the thesaurus relation
    score and the Jaro–Winkler string similarity; token scores are combined
    with a Monge–Elkan style averaging in both directions.

    Each name is tokenised once per distinct name and each ordered token
    pair is scored once per distinct pair and thesaurus content (see
    :class:`_TokenPairTable`); the combination itself is recomputed, so the
    result is the same float as the uncached computation.  No symmetry is
    assumed: ``(a, b)`` and ``(b, a)`` are separate entries.
    """
    thesaurus = thesaurus or default_thesaurus()
    tokens_a = _name_tokens(name_a)
    tokens_b = _name_tokens(name_b)
    if not tokens_a or not tokens_b:
        return 0.0
    scores = _TOKEN_PAIRS.scores
    fingerprint = thesaurus.fingerprint()

    def token_score(token_a: str, token_b: str) -> float:
        key = (fingerprint, token_a, token_b)
        score = scores.get(key)
        if score is None:
            lexical = thesaurus.relation_score(token_a, token_b)
            string = jaro_winkler_similarity(token_a, token_b)
            score = max(lexical, string)
            _TOKEN_PAIRS.misses += 1
            if len(scores) >= _TOKEN_PAIR_LIMIT:
                scores.clear()
            scores[key] = score
        return score

    _TOKEN_PAIRS.lookups += 2 * len(tokens_a) * len(tokens_b)
    forward = monge_elkan(tokens_a, tokens_b, inner=token_score)
    backward = monge_elkan(tokens_b, tokens_a, inner=token_score)
    return (forward + backward) / 2.0


def category_compatibility(element_a: SchemaElement, element_b: SchemaElement) -> float:
    """Compatibility of two elements' categories in [0, 1].

    Inner nodes compare by category equality; leaves compare through the
    data-type compatibility table.
    """
    if element_a.is_leaf and element_b.is_leaf:
        type_a = element_a.data_type or DataType.UNKNOWN
        type_b = element_b.data_type or DataType.UNKNOWN
        return type_compatibility(type_a, type_b)
    return 1.0 if element_a.category == element_b.category else 0.5


def linguistic_similarity(
    element_a: SchemaElement,
    element_b: SchemaElement,
    thesaurus: Thesaurus | None = None,
) -> float:
    """Linguistic similarity of two schema elements.

    The product of name similarity and category compatibility, as in Cupid's
    ``lsim = cat_compatibility * name_similarity``.
    """
    return category_compatibility(element_a, element_b) * name_similarity(
        element_a.name, element_b.name, thesaurus=thesaurus
    )
