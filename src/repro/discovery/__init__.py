"""Dataset discovery layer: table-level relatedness (:mod:`.relatedness`),
repository search (:mod:`.search`), cascade pricing (:mod:`.cascade`) and
the prepared-candidate store (:mod:`.prepared`, :mod:`.prepared_codec`)."""
