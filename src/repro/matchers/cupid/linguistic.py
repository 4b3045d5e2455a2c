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
Categorisation is applied by TreeMatch (:mod:`repro.matchers.cupid.structural`),
which scales each name similarity by its pair's category compatibility.
"""

from __future__ import annotations

from typing import Sequence

from repro.text.distance import jaro_winkler_similarity, monge_elkan
from repro.text.thesaurus import Thesaurus, default_thesaurus
from repro.text.tokenize import tokenize_identifier

__all__ = ["name_similarities", "name_pair_work"]


#: Upper bound on distinct names whose token tuples are kept, emptied when
#: reached.  Matching all 30 queries of the lakebench gate lake against its
#: 72 tables (674 columns) leaves 300 entries: 96 distinct column names plus
#: a table and a schema name per table.
_NAME_TOKENS_LIMIT = 1 << 14

#: Upper bound on the name-pair score table, emptied when reached.  The
#: same 30 x 72 matches leave 12,480 entries: 3,840 column-name pairs
#: (179,488 of their 183,328 lookups hit) and 8,640 table / schema name
#: pairs, four per match.
_NAME_PAIR_LIMIT = 1 << 16


class _NamePairTable:
    """Per-process name similarities of ordered name pairs, per thesaurus fingerprint.

    A name similarity is a pure function of the two names and the
    thesaurus content, so it is computed once per distinct
    ``(fingerprint, name_a, name_b)`` and shared by every match this process
    runs.  Scoped per process, not per matcher: an experiment worker
    unpickles a fresh matcher for every run and must still hit.  Keyed by
    :meth:`Thesaurus.fingerprint`, so a mutated thesaurus never reads a score
    computed before the mutation.  Module state, so it is never pickled into
    a matcher or a prepared payload.
    """

    __slots__ = ("scores", "lookups", "misses")

    def __init__(self) -> None:
        self.scores: dict[tuple[str, str, str], float] = {}
        #: Monotonic work census; callers report differences across a match.
        self.lookups = 0
        self.misses = 0


_NAME_PAIRS = _NamePairTable()
_NAME_TOKENS: dict[str, tuple[str, ...]] = {}


def name_pair_work() -> tuple[int, int]:
    """Name-pair ``(hits, misses)`` of this process so far (monotonic)."""
    return _NAME_PAIRS.lookups - _NAME_PAIRS.misses, _NAME_PAIRS.misses


def _name_tokens(name: str) -> tuple[str, ...]:
    """Tokens of *name*, tokenised once per distinct name."""
    tokens = _NAME_TOKENS.get(name)
    if tokens is None:
        tokens = tuple(tokenize_identifier(name))
        if len(_NAME_TOKENS) >= _NAME_TOKENS_LIMIT:
            _NAME_TOKENS.clear()
        _NAME_TOKENS[name] = tokens
    return tokens


def _score_names(name_a: str, name_b: str, thesaurus: Thesaurus) -> float:
    """The uncached similarity of one name pair (see :func:`name_similarities`)."""
    tokens_a = _name_tokens(name_a)
    tokens_b = _name_tokens(name_b)
    if not tokens_a or not tokens_b:
        return 0.0

    def token_score(token_a: str, token_b: str) -> float:
        lexical = thesaurus.relation_score(token_a, token_b)
        string = jaro_winkler_similarity(token_a, token_b)
        return max(lexical, string)

    forward = monge_elkan(tokens_a, tokens_b, inner=token_score)
    backward = monge_elkan(tokens_b, tokens_a, inner=token_score)
    return (forward + backward) / 2.0


def name_similarities(
    names_a: Sequence[str],
    names_b: Sequence[str],
    thesaurus: Thesaurus | None = None,
) -> list[float]:
    """Token-level name similarity of every pair in ``names_a x names_b``, row-major.

    A pair's score combines thesaurus and string evidence: for every token
    pair it is the maximum of the thesaurus relation score and the
    Jaro–Winkler string similarity, and token scores are combined with a
    Monge–Elkan style averaging in both directions.

    Each ordered name pair is scored once per process and thesaurus content
    (see :class:`_NamePairTable`), so a lookup returns the float the first
    computation produced.  No symmetry is assumed: ``(a, b)`` and ``(b, a)``
    are separate entries.
    """
    thesaurus = thesaurus or default_thesaurus()
    fingerprint = thesaurus.fingerprint()
    scores = _NAME_PAIRS.scores
    result = []
    for name_a in names_a:
        for name_b in names_b:
            key = (fingerprint, name_a, name_b)
            score = scores.get(key)
            if score is None:
                score = _score_names(name_a, name_b, thesaurus)
                _NAME_PAIRS.misses += 1
                if len(scores) >= _NAME_PAIR_LIMIT:
                    scores.clear()
                scores[key] = score
            result.append(score)
    _NAME_PAIRS.lookups += len(result)
    return result

