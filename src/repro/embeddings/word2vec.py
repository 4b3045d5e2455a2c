"""Skip-gram word2vec with negative sampling (pure numpy).

EmbDI trains local embeddings with word2vec over random-walk sentences; no
gensim is available offline, so this module implements the skip-gram /
negative-sampling training loop directly.  It is vectorised per centre word
and deterministic given a seed, which keeps the experiment suite reproducible
at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.vocab import Vocabulary

__all__ = ["Word2VecConfig", "Word2VecModel", "train_word2vec"]


@dataclass(frozen=True)
class Word2VecConfig:
    """Hyper-parameters of skip-gram training.

    Defaults follow the EmbDI configuration reported in Table II of the paper
    (window 3, 300 dimensions), scaled for laptop runs via ``epochs``.
    """

    dimensions: int = 300
    window_size: int = 3
    negative_samples: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    epochs: int = 3
    min_count: int = 1
    subsample_threshold: float = 1e-3
    seed: int = 13


class Word2VecModel:
    """A trained embedding table with lookup and similarity helpers."""

    def __init__(self, vocabulary: Vocabulary, vectors: np.ndarray) -> None:
        if len(vocabulary) != vectors.shape[0]:
            raise ValueError("vector count does not match vocabulary size")
        self.vocabulary = vocabulary
        self.vectors = vectors

    @property
    def dimensions(self) -> int:
        return int(self.vectors.shape[1]) if self.vectors.size else 0

    def __contains__(self, token: str) -> bool:
        return token in self.vocabulary

    def vector(self, token: str) -> np.ndarray | None:
        """Return the embedding of *token*, or ``None`` if out of vocabulary."""
        token_id = self.vocabulary.id_of(token)
        if token_id is None:
            return None
        return self.vectors[token_id]

    def similarity(self, token_a: str, token_b: str) -> float:
        """Cosine similarity between two tokens (0.0 when either is unknown)."""
        vec_a, vec_b = self.vector(token_a), self.vector(token_b)
        if vec_a is None or vec_b is None:
            return 0.0
        denom = np.linalg.norm(vec_a) * np.linalg.norm(vec_b)
        if denom == 0:
            return 0.0
        return float(np.dot(vec_a, vec_b) / denom)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -10.0, 10.0)))


def train_word2vec(
    sentences: Sequence[Sequence[str]],
    config: Word2VecConfig | None = None,
) -> Word2VecModel:
    """Train skip-gram embeddings with negative sampling over *sentences*.

    Parameters
    ----------
    sentences:
        Token sequences (already tokenised).
    config:
        Training hyper-parameters; defaults to :class:`Word2VecConfig`.
    """
    config = config or Word2VecConfig()
    rng = np.random.default_rng(config.seed)

    vocabulary = Vocabulary(min_count=config.min_count)
    vocabulary.add_corpus(sentences)
    vocabulary.finalize()
    vocab_size = len(vocabulary)
    if vocab_size == 0:
        return Word2VecModel(vocabulary, np.zeros((0, config.dimensions)))

    input_vectors = (rng.random((vocab_size, config.dimensions)) - 0.5) / config.dimensions
    output_vectors = np.zeros((vocab_size, config.dimensions))
    negative_table = vocabulary.unigram_table()
    keep_probabilities = vocabulary.keep_probabilities(config.subsample_threshold)

    encoded_sentences = [vocabulary.encode(sentence) for sentence in sentences]
    encoded_sentences = [s for s in encoded_sentences if len(s) > 1]
    total_steps = max(1, sum(len(s) for s in encoded_sentences) * config.epochs)
    step = 0

    for _ in range(config.epochs):
        for sentence in encoded_sentences:
            kept = [
                token_id
                for token_id in sentence
                if rng.random() < keep_probabilities[token_id]
            ]
            if len(kept) < 2:
                kept = sentence
            for position, centre in enumerate(kept):
                step += 1
                progress = step / total_steps
                learning_rate = max(
                    config.min_learning_rate,
                    config.learning_rate * (1.0 - progress),
                )
                window = rng.integers(1, config.window_size + 1)
                start = max(0, position - window)
                stop = min(len(kept), position + window + 1)
                context_ids = [
                    kept[i] for i in range(start, stop) if i != position
                ]
                if not context_ids:
                    continue
                negatives = rng.choice(
                    vocab_size,
                    size=config.negative_samples * len(context_ids),
                    p=negative_table,
                )
                centre_vec = input_vectors[centre]
                gradient_centre = np.zeros_like(centre_vec)
                # Positive examples.
                for context in context_ids:
                    score = _sigmoid(np.dot(centre_vec, output_vectors[context]))
                    gradient = (1.0 - score) * learning_rate
                    gradient_centre += gradient * output_vectors[context]
                    output_vectors[context] += gradient * centre_vec
                # Negative examples.
                for negative in negatives:
                    if negative == centre:
                        continue
                    score = _sigmoid(np.dot(centre_vec, output_vectors[negative]))
                    gradient = -score * learning_rate
                    gradient_centre += gradient * output_vectors[negative]
                    output_vectors[negative] += gradient * centre_vec
                input_vectors[centre] += gradient_centre

    return Word2VecModel(vocabulary, input_vectors)
