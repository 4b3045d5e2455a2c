"""Tests for the ontology model and bundled domain ontologies."""

from __future__ import annotations

import pytest

from repro.ontology.domain import business_ontology
from repro.ontology.model import Ontology, OntologyClass


@pytest.fixture
def animals() -> Ontology:
    return Ontology(
        "animals",
        [
            OntologyClass("animal"),
            OntologyClass("mammal", parents=("animal",)),
            OntologyClass("dog", ("hound", "canine"), parents=("mammal",)),
            OntologyClass("cat", parents=("mammal",)),
            OntologyClass("fish", parents=("animal",)),
        ],
    )


class TestOntologyModel:
    def test_membership_and_length(self, animals):
        assert "dog" in animals
        assert "unicorn" not in animals
        assert len(animals) == 5

    def test_labels_include_name(self, animals):
        assert set(animals.labels_of("dog")) == {"dog", "hound", "canine"}
        assert animals.labels_of("unknown") == []

    def test_ancestors(self, animals):
        assert animals._ancestors("dog") == {"mammal", "animal"}
        assert animals._ancestors("animal") == set()

    def test_related_via_shared_ancestry(self, animals):
        assert animals.related("dog", "cat")
        assert animals.related("dog", "mammal")
        assert animals.related("dog", "dog")
        assert animals.related("dog", "fish")  # share 'animal'

    def test_unrelated_classes(self, animals):
        other = Ontology("x", [OntologyClass("rock")])
        other.add_class(OntologyClass("pebble", parents=("rock",)))
        assert not other.related("rock", "missing")  # missing class: not related
        assert other.related("pebble", "rock")

    def test_iteration_and_get(self, animals):
        names = {cls.name for cls in animals}
        assert names == set(animals.class_names)
        assert animals.get("cat").name == "cat"
        assert animals.get("nothing") is None


class TestDomainOntologies:
    def test_business_ontology_structure(self):
        ontology = business_ontology()
        assert "customer" in ontology
        assert "person" in ontology._ancestors("customer")
        assert ontology.related("customer", "employee")
        assert "postal code" in ontology.labels_of("postal_code")
