"""Bundled mini-thesaurus: the offline substitute for WordNet.

The paper's Cupid implementation uses WordNet as a thesaurus for linguistic
matching.  No network access or NLTK corpora are available in this
reproduction, so we bundle a compact synonym/hypernym lexicon that covers the
vocabulary appearing in the synthetic dataset generators (customers, clients,
addresses, products, chemistry assay terms, SCRUM/IT terms, music/artist
terms).  The lexicon is intentionally small; anything it misses falls back to
string similarity in the matchers, exactly as Cupid does for out-of-thesaurus
terms.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.text.stemmer import stem

__all__ = ["Thesaurus", "default_thesaurus"]

# Groups of mutual synonyms.  Order inside a group is irrelevant.
_SYNONYM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("client", "customer", "patron", "buyer", "purchaser", "account holder"),
    ("person", "individual", "people", "human"),
    ("name", "title", "label", "designation"),
    ("firstname", "forename", "given name"),
    ("lastname", "surname", "family name"),
    ("address", "location", "residence", "street"),
    ("city", "town", "municipality"),
    ("country", "nation", "state", "land"),
    ("postalcode", "zipcode", "zip", "postcode"),
    ("phone", "telephone", "mobile", "cell"),
    ("email", "mail", "electronic mail"),
    ("birthdate", "birthday", "dateofbirth", "dob"),
    ("salary", "wage", "income", "pay", "earnings"),
    ("employee", "worker", "staff", "personnel"),
    ("employer", "company", "firm", "organization", "corporation", "enterprise", "business"),
    ("department", "division", "unit", "section"),
    ("manager", "supervisor", "head", "lead", "boss", "owner"),
    ("product", "item", "article", "goods"),
    ("price", "cost", "amount", "charge", "fee"),
    ("quantity", "count", "number", "amount"),
    ("date", "day", "time"),
    ("year", "yr"),
    ("identifier", "id", "key", "code", "reference"),
    ("description", "summary", "detail", "comment", "note", "text"),
    ("category", "type", "kind", "class", "group"),
    ("value", "measurement", "measure", "result", "reading"),
    ("gender", "sex"),
    ("spouse", "partner", "husband", "wife"),
    ("parent", "father", "mother"),
    ("child", "kid", "offspring"),
    ("song", "track", "tune", "recording"),
    ("album", "record", "release"),
    ("artist", "singer", "musician", "performer"),
    ("genre", "style", "category"),
    ("assay", "experiment", "test", "trial"),
    ("compound", "chemical", "molecule", "substance"),
    ("target", "protein", "receptor"),
    ("organism", "species"),
    ("cell", "cellline"),
    ("dose", "dosage", "concentration"),
    ("journal", "publication", "source"),
    ("sprint", "iteration", "cycle"),
    ("task", "ticket", "issue", "story", "workitem"),
    ("team", "squad", "group", "crew"),
    ("application", "app", "software", "system", "program"),
    ("server", "host", "machine", "hardware"),
    ("status", "state", "condition"),
    ("region", "area", "zone", "territory"),
    ("revenue", "income", "turnover", "sales"),
    ("balance", "amount", "total"),
    ("agency", "office", "bureau"),
    ("vehicle", "car", "automobile"),
    ("movie", "film", "picture"),
    ("actor", "performer", "cast"),
    ("director", "filmmaker"),
    ("rating", "score", "grade"),
    ("university", "college", "school", "institute"),
    ("hospital", "clinic", "medicalcenter"),
)

# (specific, general) hypernym pairs — specific IS-A general.
_HYPERNYM_PAIRS: tuple[tuple[str, str], ...] = (
    ("customer", "person"),
    ("client", "person"),
    ("employee", "person"),
    ("manager", "employee"),
    ("singer", "artist"),
    ("artist", "person"),
    ("actor", "person"),
    ("director", "person"),
    ("city", "location"),
    ("country", "location"),
    ("region", "location"),
    ("address", "location"),
    ("street", "address"),
    ("zipcode", "address"),
    ("salary", "amount"),
    ("price", "amount"),
    ("revenue", "amount"),
    ("balance", "amount"),
    ("compound", "substance"),
    ("protein", "substance"),
    ("assay", "experiment"),
    ("sprint", "interval"),
    ("task", "workitem"),
    ("application", "system"),
    ("server", "system"),
    ("song", "work"),
    ("album", "work"),
    ("movie", "work"),
    ("firstname", "name"),
    ("lastname", "name"),
    ("surname", "name"),
    ("birthdate", "date"),
    ("year", "date"),
)


#: Shared empty lookup result, so a miss allocates nothing.
_NO_KEYS: frozenset[str] = frozenset()


class Thesaurus:
    """A small synonym/hypernym lexicon with stem-normalised lookups.

    Every lookup normalises its terms to *keys* (lowercased, space-free
    stems) and then works on keys alone: dict and set membership, no
    re-stemming and no set copies.  A term's key is a pure function of the
    term, so it is computed once per distinct term and kept in a bounded
    term -> key table; the table is dropped on pickling (a matcher shipped
    to a pool worker rebuilds it on demand) and survives mutation, because
    adding a group or a hypernym changes which keys are related, never the
    key of a term.

    Parameters
    ----------
    synonym_groups:
        Iterable of groups of mutually synonymous terms.
    hypernym_pairs:
        Iterable of ``(specific, general)`` pairs.
    """

    #: Upper bound on the term -> key table, emptied when reached.  The
    #: bundled lexicon has 211 terms; Cupid over the lakebench gate lake (72
    #: tables, 674 columns) adds 139 distinct tokens.
    _KEY_TABLE_LIMIT = 1 << 14

    def __init__(
        self,
        synonym_groups: Iterable[tuple[str, ...]] = (),
        hypernym_pairs: Iterable[tuple[str, str]] = (),
    ) -> None:
        self._synonyms: dict[str, set[str]] = {}
        self._hypernyms: dict[str, set[str]] = {}
        self._keys: dict[str, str] = {}
        for group in synonym_groups:
            self.add_synonym_group(group)
        for specific, general in hypernym_pairs:
            self.add_hypernym(specific, general)

    def _key(self, term: str) -> str:
        term = str(term)
        key = self._keys.get(term)
        if key is None:
            key = stem(term.strip().lower().replace(" ", ""))
            if len(self._keys) >= self._KEY_TABLE_LIMIT:
                self._keys.clear()
            self._keys[term] = key
        return key

    def __getstate__(self) -> dict:
        """Drop the term -> key table when pickling (rebuilt on demand)."""
        state = self.__dict__.copy()
        state["_keys"] = {}
        return state

    def fingerprint(self) -> str:
        """Short content-based digest of the lexicon (stable across processes).

        Matchers fold it into their configuration fingerprint so prepared
        artifacts built under different thesauri can never be confused.
        Cached between mutations because matchers consult it on the
        per-candidate hot path.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            import hashlib

            payload = repr(
                (
                    sorted((k, tuple(sorted(v))) for k, v in self._synonyms.items()),
                    sorted((k, tuple(sorted(v))) for k, v in self._hypernyms.items()),
                )
            )
            cached = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()
            self._fingerprint_cache = cached
        return cached

    def add_synonym_group(self, terms: Iterable[str]) -> None:
        """Register a group of mutually synonymous terms."""
        keys = {self._key(term) for term in terms if term}
        for key in keys:
            self._synonyms.setdefault(key, set()).update(keys)
        self._fingerprint_cache: Optional[str] = None

    def add_hypernym(self, specific: str, general: str) -> None:
        """Register ``specific IS-A general``."""
        self._hypernyms.setdefault(self._key(specific), set()).add(self._key(general))
        self._fingerprint_cache = None

    def synonyms(self, term: str) -> set[str]:
        """Return the synonym keys of *term* (including itself if known)."""
        return set(self._synonyms.get(self._key(term), _NO_KEYS))

    def _synonymous(self, key_a: str, key_b: str) -> bool:
        return key_a == key_b or key_b in self._synonyms.get(key_a, _NO_KEYS)

    def _hypernymous(self, key_a: str, key_b: str) -> bool:
        return key_b in self._hypernyms.get(key_a, _NO_KEYS) or key_a in self._hypernyms.get(
            key_b, _NO_KEYS
        )

    def are_synonyms(self, a: str, b: str) -> bool:
        """True when *a* and *b* share a synonym group (or have equal stems)."""
        return self._synonymous(self._key(a), self._key(b))

    def are_hypernyms(self, a: str, b: str) -> bool:
        """True when one of the terms is a registered hypernym of the other."""
        return self._hypernymous(self._key(a), self._key(b))

    def relation_score(self, a: str, b: str) -> float:
        """Score the lexical relation of two terms.

        Following Cupid's linguistic-matching conventions: identical stems or
        synonyms score 1.0, hypernym/hyponym pairs score 0.8, shared synonym
        neighbourhood (both synonyms of a common term) scores 0.6, otherwise
        0.0 (the caller is expected to fall back to string similarity).
        """
        key_a, key_b = self._key(a), self._key(b)
        if self._synonymous(key_a, key_b):
            return 1.0
        if self._hypernymous(key_a, key_b):
            return 0.8
        if not self._synonyms.get(key_a, _NO_KEYS).isdisjoint(
            self._synonyms.get(key_b, _NO_KEYS)
        ):
            return 0.6
        return 0.0

    def __contains__(self, term: str) -> bool:
        key = self._key(term)
        return key in self._synonyms or key in self._hypernyms

    def __len__(self) -> int:
        return len(self._synonyms)


_DEFAULT: Optional[Thesaurus] = None


def default_thesaurus() -> Thesaurus:
    """Return the shared bundled thesaurus instance (lazily constructed)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Thesaurus(_SYNONYM_GROUPS, _HYPERNYM_PAIRS)
    return _DEFAULT
