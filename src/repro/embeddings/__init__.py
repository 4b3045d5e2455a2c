"""Embedding substrate: vocabulary, word2vec trainer and pretrained substitute."""
