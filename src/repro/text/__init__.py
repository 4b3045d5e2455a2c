"""String similarity, tokenisation, stemming and thesaurus substrate."""

from repro.text.distance import (
    dice_coefficient,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    monge_elkan,
    normalized_levenshtein,
)
from repro.text.stemmer import stem
from repro.text.thesaurus import Thesaurus, default_thesaurus
from repro.text.tokenize import (
    ABBREVIATIONS,
    character_ngrams,
    expand_abbreviation,
    normalize_identifier,
    split_identifier,
    tokenize_identifier,
    word_tokens,
)

__all__ = [
    "levenshtein_distance",
    "normalized_levenshtein",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_coefficient",
    "monge_elkan",
    "stem",
    "Thesaurus",
    "default_thesaurus",
    "ABBREVIATIONS",
    "character_ngrams",
    "expand_abbreviation",
    "normalize_identifier",
    "split_identifier",
    "tokenize_identifier",
    "word_tokens",
]
