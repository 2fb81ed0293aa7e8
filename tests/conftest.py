"""Import umacsim before any test module imports numpy.

Importing umacsim pins BLAS to one thread unless the environment says
otherwise, but BLAS reads that setting only when numpy is first imported.
The test modules import numpy first, so without this import the tests would
run BLAS on its default thread count next to the split passes of
`umacsim.detection`, a configuration no CLI or benchmark run uses.
"""
import umacsim  # noqa: F401
