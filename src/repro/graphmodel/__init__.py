"""Graph substrate: schema graphs (:mod:`.schema_graph`) and similarity
propagation (:mod:`.propagation`).  Only the graph builders load networkx."""
