"""One hypothesis profile for the whole suite.

Every property test draws the same examples on every run (``derandomize``),
keeps no example database between runs and has no per-example deadline, so
two runs of the suite test the same inputs.  A test's own ``@settings``
inherits this profile and sets only what differs, such as ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("pifmap", derandomize=True, database=None, deadline=None)
settings.load_profile("pifmap")
