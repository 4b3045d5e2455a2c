"""Dataset-pair fabrication: splits, noise, scenarios and the fabricator.

Import a name from the module that defines it: :mod:`.pairs` (``Scenario``,
``NoiseVariant``, ``DatasetPair``), :mod:`.fabricator`, :mod:`.scenarios`,
:mod:`.splitting` or :mod:`.noise`.  This module loads none of the heavy
ones, so the CLI, whose parser needs only ``Scenario``, does not load the
fabricator.  It re-exports ``NoiseVariant`` from the light :mod:`.pairs`
(which the CLI loads anyway), because the pinned paper-fidelity suite names
it through the package.
"""

from repro.fabrication.pairs import NoiseVariant

__all__ = ["NoiseVariant"]
