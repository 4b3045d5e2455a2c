"""The synthetic domain ontology bundled with the suite.

The paper runs SemProp with the EFO ontology on ChEMBL data.  EFO is not
redistributable here, so we bundle a compact business/people ontology that
mirrors the vocabulary of the synthetic dataset generators; SemProp takes
any other :class:`~repro.ontology.model.Ontology` through its ``ontology``
parameter.  SemProp's behaviour only depends on being able (or failing) to
link attribute names to ontology classes, which this preserves.
"""

from __future__ import annotations

from repro.ontology.model import Ontology, OntologyClass

__all__ = ["business_ontology"]


def business_ontology() -> Ontology:
    """A compact business/people ontology: SemProp's default."""
    classes = [
        OntologyClass("agent", ("agent", "actor")),
        OntologyClass("person", ("person", "individual", "human"), parents=("agent",)),
        OntologyClass("customer", ("customer", "client", "buyer"), parents=("person",)),
        OntologyClass("employee", ("employee", "worker", "staff"), parents=("person",)),
        OntologyClass("organization", ("organization", "company", "firm", "employer"), parents=("agent",)),
        OntologyClass("team", ("team", "squad", "group"), parents=("organization",)),
        OntologyClass("location", ("location", "place", "address")),
        OntologyClass("city", ("city", "town"), parents=("location",)),
        OntologyClass("country", ("country", "nation", "state"), parents=("location",)),
        OntologyClass("postal_code", ("postal code", "zipcode", "zip"), parents=("location",)),
        OntologyClass("artifact", ("artifact", "object")),
        OntologyClass("product", ("product", "item", "goods"), parents=("artifact",)),
        OntologyClass("application", ("application", "software", "system"), parents=("artifact",)),
        OntologyClass("work", ("work", "creative work"), parents=("artifact",)),
        OntologyClass("song", ("song", "track", "recording"), parents=("work",)),
        OntologyClass("album", ("album", "record"), parents=("work",)),
        OntologyClass("movie", ("movie", "film"), parents=("work",)),
        OntologyClass("monetary_amount", ("amount", "price", "salary", "revenue", "balance")),
        OntologyClass("date", ("date", "year", "birthday", "time")),
        OntologyClass("identifier", ("identifier", "id", "key", "code")),
        OntologyClass("description", ("description", "comment", "note", "text")),
    ]
    return Ontology("business", classes)
