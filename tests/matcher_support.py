"""What several matcher test suites share: light configs, a name corpus and
the uncached thesaurus reference the name-level kernels are pinned against.

``tests/`` is on ``sys.path`` (the root ``conftest.py`` lives here), so any
test module can ``from matcher_support import ...``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.text.stemmer import stem
from repro.text.thesaurus import _HYPERNYM_PAIRS, _SYNONYM_GROUPS, Thesaurus
from repro.text.tokenize import ABBREVIATIONS, tokenize_identifier

__all__ = [
    "LIGHT_MATCHER_CONFIGS",
    "lakebench_column_names",
    "reference_relation_score",
    "term_corpus",
]

#: One lightweight configuration per registered matcher: every payload shape
#: and scoring path at seconds scale.  ``test_cascade_engine.py`` asserts the
#: map covers the registry, so a newly registered matcher fails loudly there
#: until it is added here.
LIGHT_MATCHER_CONFIGS: dict[str, dict[str, object]] = {
    "comaschema": {},
    "comainstance": {"sample_size": 50},
    "cupid": {},
    "distributionbased": {"sample_size": 50},
    "embdi": {
        "dimensions": 8,
        "sentence_length": 8,
        "walks_per_node": 1,
        "epochs": 1,
        "max_rows": 4,
    },
    "jaccardlevenshtein": {"sample_size": 8},
    "semprop": {"num_permutations": 16, "sample_size": 50},
    "similarityflooding": {"max_iterations": 50},
}

_LAKEGEN = Path(__file__).resolve().parents[1] / "benchmarks" / "lakebench" / "lakegen.py"


def lakebench_column_names() -> list[str]:
    """Every column name (and semantic alias) lakebench's generator can emit.

    Read from the generator's schema tables; ``lakegen`` is stdlib + numpy
    and imports nothing of the program under test.
    """
    module = sys.modules.get("_lakegen_schemas")
    if module is None:
        spec = importlib.util.spec_from_file_location("_lakegen_schemas", _LAKEGEN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    schemas = [*module.SEED_SCHEMAS, *module.DOMAINS]
    names = {name for schema in schemas for column in schema for name in column[:2] if name}
    names.update(f"field_{i}" for i in range(5))  # the ``overlap`` profile
    return sorted(names)


def term_corpus() -> list[str]:
    """Every term the bundled lexicon, the abbreviation table and lakebench know."""
    terms = {term for group in _SYNONYM_GROUPS for term in group}
    terms.update(term for pair in _HYPERNYM_PAIRS for term in pair)
    terms.update(ABBREVIATIONS)
    terms.update(ABBREVIATIONS.values())
    for name in lakebench_column_names():
        terms.update(tokenize_identifier(name))
    return sorted(terms)


def reference_relation_score(thesaurus: Thesaurus, a: str, b: str) -> float:
    """``Thesaurus.relation_score`` as it was before the key table (PR 19).

    Kept verbatim as the reference: every predicate re-stems both terms and
    the neighbourhood test copies both synonym sets.
    """
    synonyms, hypernyms = thesaurus._synonyms, thesaurus._hypernyms

    def key(term: str) -> str:
        return stem(str(term).strip().lower().replace(" ", ""))

    def synonyms_of(term: str) -> set[str]:
        return set(synonyms.get(key(term), set()))

    def are_synonyms() -> bool:
        key_a, key_b = key(a), key(b)
        if key_a == key_b:
            return True
        return key_b in synonyms.get(key_a, set())

    def are_hypernyms() -> bool:
        key_a, key_b = key(a), key(b)
        return key_b in hypernyms.get(key_a, set()) or key_a in hypernyms.get(key_b, set())

    if are_synonyms():
        return 1.0
    if are_hypernyms():
        return 0.8
    if synonyms_of(a) & synonyms_of(b):
        return 0.6
    return 0.0
