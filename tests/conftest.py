"""One BLAS thread and one hypothesis profile for the whole suite.

The goldens are pinned under one BLAS thread: OpenBLAS splits a long dot
product across threads, and the order of its partial sums moves the last
bits of a Gram or ``Z'y`` entry, so a tall pin would depend on the host's
core count.  The thread counts are set here, before anything imports
numpy.

Every property test draws the same examples on every run (``derandomize``),
keeps no example database between runs and has no per-example deadline, so
two runs of the suite test the same inputs.  A test's own ``@settings``
inherits this profile and sets only what differs, such as ``max_examples``.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("pifmap", derandomize=True, database=None, deadline=None)
settings.load_profile("pifmap")
