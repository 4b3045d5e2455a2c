"""Deterministic substitute for pre-trained word embeddings.

SemProp relies on large pre-trained word embeddings (word2vec / GloVe trained
on news corpora).  Those models cannot be downloaded offline, so this module
provides a deterministic character-n-gram hashing embedder: every token is
mapped to a fixed-dimensional vector by hashing its character n-grams into
buckets (the FastText trick without training).  The substitution preserves
the property the paper's evaluation hinges on — generic, corpus-agnostic
vectors carry *lexical* but not *domain* semantics, so SemProp's semantic
matcher under-performs on domain-specific data — while giving tokens with
shared sub-strings similar vectors.

A small curated list of semantic anchor groups adds mild "world knowledge"
(countries and their abbreviations, person-name variants), which is what a
general-purpose pre-trained model would know.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.text.tokenize import character_ngrams, word_tokens

__all__ = ["PretrainedEmbeddings", "default_pretrained_embeddings"]

_SEMANTIC_ANCHORS: tuple[tuple[str, ...], ...] = (
    ("usa", "states", "unitedstates", "america", "us"),
    ("china", "chn", "prc"),
    ("netherlands", "nl", "holland"),
    ("germany", "deu", "de"),
    ("france", "fra", "fr"),
    ("uk", "britain", "unitedkingdom", "gb"),
    ("canada", "can", "ca"),
    ("india", "ind", "in"),
    ("spain", "esp", "es"),
    ("italy", "ita", "it"),
    ("male", "m", "man"),
    ("female", "f", "woman"),
)


class PretrainedEmbeddings:
    """Hash-based token embeddings with optional semantic anchor groups.

    Parameters
    ----------
    dimensions:
        Embedding dimensionality.
    ngram_sizes:
        Character n-gram sizes hashed into the vector.
    anchors:
        Groups of tokens forced to share an additional common component,
        mimicking the world knowledge of a real pre-trained model.
    """

    def __init__(
        self,
        dimensions: int = 50,
        ngram_sizes: Sequence[int] = (3, 4),
        anchors: Iterable[tuple[str, ...]] = _SEMANTIC_ANCHORS,
    ) -> None:
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self.ngram_sizes = tuple(ngram_sizes)
        self._anchor_of: dict[str, int] = {}
        self._anchor_vectors: dict[int, np.ndarray] = {}
        for group_id, group in enumerate(anchors):
            vector = self._hash_vector(f"__anchor_{group_id}__")
            self._anchor_vectors[group_id] = vector
            for token in group:
                self._anchor_of[token.lower()] = group_id
        # Embeddings are pure functions of (config, input): memoise them.
        # SemProp re-embeds the same ontology aliases for every column of
        # every table it links, so without these caches the per-table prepare
        # cost is dominated by redundant n-gram hashing.  Bounded so a
        # long-lived process sketching arbitrary text cannot grow without
        # limit; cached arrays are frozen because callers share them.
        self._vector_cache: dict[str, np.ndarray] = {}
        self._text_cache: dict[str, np.ndarray] = {}

    #: Upper bound on entries kept per memoisation cache.
    _CACHE_LIMIT = 1 << 16

    def _hash_vector(self, text: str) -> np.ndarray:
        """Deterministic pseudo-random unit vector derived from *text*."""
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        vector = rng.standard_normal(self.dimensions)
        norm = np.linalg.norm(vector)
        return vector / norm if norm else vector

    def vector(self, token: str) -> np.ndarray:
        """Return the embedding of a single token (never fails; memoised)."""
        token = str(token).strip().lower()
        if not token:
            return np.zeros(self.dimensions)
        cached = self._vector_cache.get(token)
        if cached is not None:
            return cached
        pieces = [self._hash_vector(token)]
        for size in self.ngram_sizes:
            for gram in character_ngrams(token, n=size, pad=True):
                pieces.append(self._hash_vector(gram))
        vector = np.mean(pieces, axis=0)
        anchor_id = self._anchor_of.get(token)
        if anchor_id is not None:
            vector = 0.4 * vector + 0.6 * self._anchor_vectors[anchor_id]
        norm = np.linalg.norm(vector)
        vector = vector / norm if norm else vector
        if len(self._vector_cache) < self._CACHE_LIMIT:
            vector.flags.writeable = False
            self._vector_cache[token] = vector
        return vector

    def text_vector(self, text: str) -> np.ndarray:
        """Average token embedding of arbitrary text (identifier or cell value).

        Memoised: SemProp compares every column name against every ontology
        alias, so the same identifiers recur constantly.
        """
        key = str(text)
        cached = self._text_cache.get(key)
        if cached is not None:
            return cached
        tokens = word_tokens(text)
        if not tokens:
            vector = np.zeros(self.dimensions)
        else:
            vectors = [self.vector(token) for token in tokens]
            vector = np.mean(vectors, axis=0)
            norm = np.linalg.norm(vector)
            vector = vector / norm if norm else vector
        if len(self._text_cache) < self._CACHE_LIMIT:
            vector.flags.writeable = False
            self._text_cache[key] = vector
        return vector

    def fingerprint(self) -> str:
        """Short content-based digest of the embedder configuration.

        Covers dimensionality, n-gram sizes and the anchor groups — the full
        definition of the (deterministic) embedding function — so matchers
        can fold it into their configuration fingerprint.  Cached: the
        configuration is immutable after construction and matchers consult
        this on the per-candidate hot path.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            payload = repr(
                (self.dimensions, self.ngram_sizes, sorted(self._anchor_of.items()))
            )
            cached = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()
            self._fingerprint_cache = cached
        return cached

    def __getstate__(self) -> dict:
        """Drop the memoisation caches when pickling.

        A parallel ``lake prepare`` or ``lake watch --prepare`` ships its
        matcher (and therefore this embedder) to every pool worker; a warm
        cache can hold tens of MB of vectors the workers rebuild cheaply on
        demand.
        """
        state = self.__dict__.copy()
        state["_vector_cache"] = {}
        state["_text_cache"] = {}
        return state

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of two texts' average embeddings, in [-1, 1]."""
        vec_a = self.text_vector(text_a)
        vec_b = self.text_vector(text_b)
        denom = np.linalg.norm(vec_a) * np.linalg.norm(vec_b)
        if denom == 0:
            return 0.0
        return float(np.dot(vec_a, vec_b) / denom)


_DEFAULT: PretrainedEmbeddings | None = None


def default_pretrained_embeddings() -> PretrainedEmbeddings:
    """Shared default instance (constructing hash tables is cheap but reusable)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PretrainedEmbeddings()
    return _DEFAULT
