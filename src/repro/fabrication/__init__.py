"""Dataset-pair fabrication: splits, noise, scenarios and the fabricator.

Import a name from the module that defines it: :mod:`.pairs` (``Scenario``,
``NoiseVariant``, ``DatasetPair``), :mod:`.fabricator`, :mod:`.scenarios`,
:mod:`.splitting` or :mod:`.noise`.  This module loads none of them, so the
CLI, whose parser needs only ``Scenario``, does not load the fabricator.
"""
