"""Desk-scale numerics for finite-dimensional operator systems.

Matrix calculus, operator-system spans with certified distances, real-valued
sentences evaluated by nested seeded optimization, structure-detection
defects paired with exact oracles, and u.c.p. maps through Choi matrices.
"""

from .matrices import *  # each module's __all__ is the package's export list
from .systems import *
from .logic import *
from .defects import *
from .ucp import *

__version__ = "0.1.0"
