"""Tests for the embedding vocabulary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.vocab import Vocabulary


class TestVocabulary:
    def test_basic_build_and_lookup(self):
        vocab = Vocabulary()
        vocab.add_corpus([["a", "b", "a"], ["b", "c"]])
        vocab.finalize()
        assert len(vocab) == 3
        assert vocab.unigram_table(power=1.0)[vocab.id_of("a")] == pytest.approx(2 / 5)
        assert vocab.tokens[vocab.id_of("a")] == "a"

    def test_min_count_filters_rare_tokens(self):
        vocab = Vocabulary(min_count=2)
        vocab.add_corpus([["a", "a", "b"]])
        vocab.finalize()
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.id_of("b") is None

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)

    def test_encode_drops_oov(self):
        vocab = Vocabulary()
        vocab.add_sentence(["x", "y"])
        vocab.finalize()
        encoded = vocab.encode(["x", "unknown", "y"])
        assert len(encoded) == 2

    def test_add_after_finalize_rejected(self):
        vocab = Vocabulary()
        vocab.add_sentence(["a"])
        vocab.finalize()
        with pytest.raises(RuntimeError):
            vocab.add_sentence(["b"])

    def test_finalize_idempotent(self):
        vocab = Vocabulary()
        vocab.add_sentence(["a", "b"])
        vocab.finalize()
        size = len(vocab)
        vocab.finalize()
        assert len(vocab) == size

    def test_unigram_table_is_distribution(self):
        vocab = Vocabulary()
        vocab.add_corpus([["a"] * 10 + ["b"] * 2])
        vocab.finalize()
        table = vocab.unigram_table()
        assert table.sum() == pytest.approx(1.0)
        assert table[vocab.id_of("a")] > table[vocab.id_of("b")]

    def test_keep_probabilities_bounded(self):
        vocab = Vocabulary()
        vocab.add_corpus([["the"] * 1000 + ["rare"]])
        vocab.finalize()
        keep = vocab.keep_probabilities()
        assert np.all(keep >= 0.0) and np.all(keep <= 1.0)
        assert keep[vocab.id_of("rare")] >= keep[vocab.id_of("the")]

    def test_ordering_by_frequency(self):
        vocab = Vocabulary()
        vocab.add_corpus([["common"] * 5 + ["rare"]])
        vocab.finalize()
        assert vocab.tokens[0] == "common"
