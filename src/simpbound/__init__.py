"""Simpson-functional error certification on rotated complex segments.

The package parses a scalar expression in ``x``, differentiates it
symbolically, verifies to machine precision the equality between the
Simpson functional minus the path mean and a kernel-weighted integral of
f', and checks four closed-form bounds against the measured error, gated
by a sampled chord certificate for |f'|^q along the path.

Records are immutable named tuples, copied with ``._replace``, except
:class:`PhiInterval`, which computes its ``chord`` once, at construction.

The package exports every name in the ``__all__`` of ``bounds``,
``convexity``, ``domain``, ``expr``, ``identity`` and ``quad``, in that
order; each public name is declared once, in the module that defines it.
The command line (``cli``) and the renderers (``report``) are imported
only when asked for.
"""

from .bounds import *
from .convexity import *
from .domain import *
from .expr import *
from .identity import *
from .quad import *

__version__ = "0.1.0"

__all__ = (bounds.__all__ + convexity.__all__ + domain.__all__
           + expr.__all__ + identity.__all__ + quad.__all__)
