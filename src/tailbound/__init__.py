"""Concentration bounds for sums of independent bounded random variables,
sharpened with information from the variables' first p moments.

Each module lists its public names in its own __all__; the package
re-exports them all.
"""

from . import (bennett, distributions, errors, hoeffding, mgf, moments,
               oracle, special)
from .bennett import *
from .distributions import *
from .errors import *
from .hoeffding import *
from .mgf import *
from .moments import *
from .oracle import *
from .special import *

__version__ = "0.1.0"
# one pure-Python kernel; perfbench/worker.py records this name, so it stays
kernel_backend = "python"

__all__ = ["kernel_backend", "__version__"]
for _module in (bennett, distributions, errors, hoeffding, mgf, moments,
                oracle, special):
    __all__ += _module.__all__
del _module
