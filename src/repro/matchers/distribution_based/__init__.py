"""Distribution-based matcher package: :mod:`.matcher` and :mod:`.clustering`."""
