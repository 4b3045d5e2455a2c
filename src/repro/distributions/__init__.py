"""Distribution substrate: quantile histograms (:mod:`.histograms`) and Earth
Mover's Distance (:mod:`.emd`).  Only the EMD linear program loads scipy."""
