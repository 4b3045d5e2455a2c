"""Ontology substrate: class hierarchies and bundled domain ontologies."""
