"""``python -m repro.cli``."""

import sys

from repro.cli import main

# Guarded: spawned pool workers re-import this module as ``__mp_main__``.
if __name__ == "__main__":
    sys.exit(main())
