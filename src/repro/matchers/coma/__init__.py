"""COMA composite matcher package: :mod:`.matcher` (the two registered
matchers), :mod:`.component_matchers` and :mod:`.combination`."""
