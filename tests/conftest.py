"""Settings shared by every test module."""

import os

# One BLAS thread unless the caller chose otherwise. The tests multiply
# small matrices, where a second BLAS thread only adds waiting: on 2 vCPUs
# with the other one busy, a B=64 batched step took 293 ms with two
# threads against 27 ms with one. numpy reads these variables when it is
# first imported, which happens after pytest loads this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
