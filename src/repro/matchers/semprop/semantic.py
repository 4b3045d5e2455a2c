"""SemProp's semantic matcher: linking schema elements to ontology classes.

SemProp (Fernandez et al., ICDE 2018 — "Seeping Semantics") links attribute
and table names to classes of a domain ontology using word-embedding
similarity, then relates schema elements *transitively* through those links:
two columns match semantically when they link (strongly and coherently
enough) to the same or related ontology classes.

This module implements the link computation.  Embeddings come from the
deterministic pre-trained substitute (see
:mod:`repro.embeddings.pretrained`), which intentionally carries only lexical
signal — reproducing the paper's observation that generic pre-trained vectors
help little on domain-specific vocabulary.
"""

from __future__ import annotations

from repro.embeddings.pretrained import PretrainedEmbeddings, default_pretrained_embeddings
from repro.matchers.semprop.links import SemanticLink
from repro.ontology.model import Ontology
from repro.text.tokenize import tokenize_identifier

__all__ = ["link_to_ontology", "coherence_score"]


def link_to_ontology(
    element_name: str,
    ontology: Ontology,
    embeddings: PretrainedEmbeddings | None = None,
    threshold: float = 0.5,
    top_k: int = 3,
) -> list[SemanticLink]:
    """Link a schema element name to ontology classes by embedding similarity.

    Parameters
    ----------
    element_name:
        Attribute or table name.
    ontology:
        Domain ontology whose class labels are candidate link targets.
    embeddings:
        Pre-trained embedding substitute used to embed names and labels.
    threshold:
        Minimum cosine similarity for a link (``sem.threshold`` in Table II).
    top_k:
        At most this many links (strongest first) are returned.
    """
    embeddings = embeddings or default_pretrained_embeddings()
    element_text = " ".join(tokenize_identifier(element_name)) or str(element_name)
    links: list[SemanticLink] = []
    for class_name in ontology.class_names:
        best = 0.0
        for label in ontology.labels_of(class_name):
            best = max(best, embeddings.similarity(element_text, label))
        if best >= threshold:
            links.append(SemanticLink(element=element_name, ontology_class=class_name, strength=best))
    links.sort(key=lambda link: -link.strength)
    return links[:top_k]


def coherence_score(links_a: list[SemanticLink], links_b: list[SemanticLink], ontology: Ontology) -> float:
    """Coherence of two link sets: how strongly they point at related classes.

    The score is the maximum over pairs of links of
    ``min(strength_a, strength_b)`` for links whose ontology classes are
    identical or related (shared ancestry); 0 when no such pair exists.
    """
    best = 0.0
    for link_a in links_a:
        for link_b in links_b:
            if ontology.related(link_a.ontology_class, link_b.ontology_class):
                best = max(best, min(link_a.strength, link_b.strength))
    return best
