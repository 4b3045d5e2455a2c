"""Tests for the skip-gram word2vec trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.vocab import Vocabulary
from repro.embeddings.word2vec import Word2VecConfig, Word2VecModel, train_word2vec


def _toy_corpus() -> list[list[str]]:
    """Two 'topics' that never co-occur: letters and digits."""
    letters = [["alpha", "beta", "gamma", "delta"] for _ in range(30)]
    digits = [["one", "two", "three", "four"] for _ in range(30)]
    return letters + digits


class TestTraining:
    def test_empty_corpus_gives_empty_model(self):
        model = train_word2vec([], Word2VecConfig(dimensions=8))
        assert model.dimensions in (0, 8)
        assert model.vector("anything") is None

    def test_vectors_have_requested_dimension(self):
        model = train_word2vec([["a", "b", "c"]], Word2VecConfig(dimensions=16, epochs=1))
        assert model.vector("a").shape == (16,)

    def test_deterministic_given_seed(self):
        config = Word2VecConfig(dimensions=12, epochs=1, seed=5)
        model_a = train_word2vec(_toy_corpus(), config)
        model_b = train_word2vec(_toy_corpus(), config)
        np.testing.assert_allclose(model_a.vectors, model_b.vectors)

    def test_cooccurring_tokens_more_similar_than_disjoint(self):
        config = Word2VecConfig(dimensions=24, epochs=5, seed=3, negative_samples=4)
        model = train_word2vec(_toy_corpus(), config)
        within = model.similarity("alpha", "beta")
        across = model.similarity("alpha", "two")
        assert within > across


class TestModel:
    def test_similarity_of_unknown_token_is_zero(self):
        model = train_word2vec([["a", "b"]], Word2VecConfig(dimensions=8, epochs=1))
        assert model.similarity("a", "zzz") == 0.0

    def test_vector_count_must_match_vocabulary(self):
        vocab = Vocabulary()
        vocab.add_sentence(["a", "b"])
        vocab.finalize()
        with pytest.raises(ValueError):
            Word2VecModel(vocab, np.zeros((5, 3)))

    def test_contains(self):
        model = train_word2vec([["a", "b"]], Word2VecConfig(dimensions=4, epochs=1))
        assert "a" in model
        assert "zzz" not in model
