"""featmim: desk-scale masked image modeling with deep-feature targets.

Students reconstruct frozen teacher features at masked patch positions;
teachers are ranked by the token-diversity of their outputs.

Importing the package pins BLAS to one thread, so that a run's bytes do not
depend on the host's core count. The setting only takes effect when numpy
has not been imported yet, as for `python -m featmim` and the console script.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
