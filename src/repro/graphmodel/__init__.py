"""Graph substrate: schema graphs (:mod:`.schema_graph`) and similarity
propagation (:mod:`.propagation`), both on networkx."""
