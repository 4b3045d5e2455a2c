"""Schema matching methods (the core contribution of the suite).

Each method lives in its own module and is reached by name through
:mod:`.registry`: ``matcher_class("SemProp")`` imports the SemProp module and
no other, so a process loads only the matchers it runs.
:mod:`.base` holds the protocol they share.
"""
