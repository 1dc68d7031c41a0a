"""Exact divisor calculus on the double rational function field Q(x,y).

The package provides exact polynomial arithmetic over Q, prime divisors
and divisors of Q(x), Q(y) and Q(x,y), divisor residues and
correspondences, divisor-valued norm pairings, the genus-0 Arakelov
degree and the residue scalar product in closed form, a deterministic
explorer for self-products, and the acceptance suites with their
numeric oracles (``suites`` and ``oracles``, which the root does not
import).  A batch CLI (``doublefield``) exposes every operation.
"""

from .arakelov import (
    bracket,
    deg_Kp,
    explore_self_products,
    principal_move,
    residue_scalar_product,
)
from .divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    Place,
    UnaryPlace,
    degree_K,
    divisor_of_upoly,
    place_bidegree,
    principal_divisor,
)
from .errors import (
    DegreeBound,
    DoubleFieldError,
    InputError,
    NotCoprime,
    NotDegreeOne,
    ParseError,
)
from .exact import (
    BPoly,
    UPoly,
    clear_caches,
    factor_b,
    factor_q,
    resultant_x,
)
from .pairing import (
    SIDE_K,
    SIDE_KPRIME,
    SelfPairing,
    pair,
    self_pair_degree_one,
)
from .residues import correspondence, residue_mod_Kp_degree_one, residue_mod_degree_one

__version__ = "0.1.0"
