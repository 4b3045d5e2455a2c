"""EmbDI matcher package: :mod:`.matcher`, :mod:`.graph` and :mod:`.walks`."""
