"""Tests for the pretrained-embedding substitute."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.pretrained import PretrainedEmbeddings, default_pretrained_embeddings


class TestPretrainedEmbeddings:
    def test_deterministic_vectors(self):
        embeddings = PretrainedEmbeddings(dimensions=32)
        np.testing.assert_allclose(embeddings.vector("country"), embeddings.vector("country"))

    def test_unit_norm(self):
        embeddings = PretrainedEmbeddings(dimensions=32)
        assert np.linalg.norm(embeddings.vector("customer")) == pytest.approx(1.0)

    def test_empty_token_is_zero_vector(self):
        embeddings = PretrainedEmbeddings(dimensions=16)
        assert np.allclose(embeddings.vector(""), 0.0)

    def test_shared_ngrams_increase_similarity(self):
        embeddings = PretrainedEmbeddings(dimensions=64)
        related = embeddings.similarity("customer", "customers")
        unrelated = embeddings.similarity("customer", "assay")
        assert related > unrelated

    def test_anchor_groups_tie_country_variants(self):
        embeddings = default_pretrained_embeddings()
        anchored = embeddings.similarity("usa", "states")
        lexical = embeddings.similarity("usa", "uzbekistan")
        assert anchored > lexical

    def test_identity_similarity_is_one(self):
        embeddings = default_pretrained_embeddings()
        assert embeddings.similarity("price", "price") == pytest.approx(1.0)

    def test_text_vector_averages_tokens(self):
        embeddings = PretrainedEmbeddings(dimensions=32)
        assert embeddings.text_vector("customer name").shape == (32,)
        assert np.allclose(embeddings.text_vector(""), 0.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            PretrainedEmbeddings(dimensions=0)

    def test_default_instance_cached(self):
        assert default_pretrained_embeddings() is default_pretrained_embeddings()

