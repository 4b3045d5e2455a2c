"""Vocabulary construction for embedding training.

EmbDI trains word2vec-style embeddings over sentences generated by random
walks on a graph of rows/columns/values.  The vocabulary maps tokens to
contiguous integer ids, keeps frequency counts and provides the sub-sampling
and negative-sampling tables the trainer needs.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Vocabulary"]


class Vocabulary:
    """Token ↔ id mapping with frequency statistics.

    Parameters
    ----------
    min_count:
        Tokens occurring fewer than *min_count* times are dropped.
    """

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.min_count = min_count
        self._counts: Counter = Counter()
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        self._finalized = False

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def add_sentence(self, tokens: Iterable[str]) -> None:
        """Count the tokens of one sentence."""
        if self._finalized:
            raise RuntimeError("vocabulary is already finalized")
        self._counts.update(str(token) for token in tokens)

    def add_corpus(self, sentences: Iterable[Sequence[str]]) -> None:
        """Count tokens over many sentences."""
        for sentence in sentences:
            self.add_sentence(sentence)

    def finalize(self) -> "Vocabulary":
        """Freeze the vocabulary: assign ids to tokens above ``min_count``."""
        if self._finalized:
            return self
        kept = [tok for tok, cnt in self._counts.most_common() if cnt >= self.min_count]
        self._id_to_token = kept
        self._token_to_id = {token: i for i, token in enumerate(kept)}
        self._finalized = True
        return self

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int | None:
        """Return the id of *token*, or ``None`` when out of vocabulary."""
        return self._token_to_id.get(str(token))

    @property
    def tokens(self) -> list[str]:
        """All in-vocabulary tokens ordered by id."""
        return list(self._id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Convert a token sequence to ids, dropping out-of-vocabulary tokens."""
        encoded = []
        for token in tokens:
            token_id = self._token_to_id.get(str(token))
            if token_id is not None:
                encoded.append(token_id)
        return encoded

    # ------------------------------------------------------------------ #
    # sampling tables
    # ------------------------------------------------------------------ #
    def unigram_table(self, power: float = 0.75) -> np.ndarray:
        """Negative-sampling probabilities proportional to ``count ** power``."""
        counts = np.array(
            [self._counts[token] for token in self._id_to_token], dtype=float
        )
        if counts.size == 0:
            return counts
        weights = counts ** power
        return weights / weights.sum()

    def keep_probabilities(self, subsample_threshold: float = 1e-3) -> np.ndarray:
        """Word2vec sub-sampling keep probability per token id."""
        counts = np.array(
            [self._counts[token] for token in self._id_to_token], dtype=float
        )
        if counts.size == 0:
            return counts
        frequencies = counts / counts.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            keep = np.sqrt(subsample_threshold / frequencies) + (
                subsample_threshold / frequencies
            )
        return np.clip(keep, 0.0, 1.0)
