"""Exact divisor calculus on the double rational function field Q(x,y).

The package provides exact polynomial arithmetic over Q, prime divisors
and divisors of Q(x), Q(y) and Q(x,y), divisor residues and
correspondences, divisor-valued norm pairings, a genus-0 Arakelov
intersection layer over Z, the residue scalar product built from it,
and a deterministic explorer for self-products.  A batch CLI
(``doublefield``) exposes every operation.
"""

from .arakelov import (
    ArakelovDivisorKp,
    arakelov_from_divisor,
    arch_lambda,
    bracket,
    deg_Kp,
    explore_self_products,
    fs_kappa_closed_form,
    fs_kappa_quadrature,
    fs_point_integral,
    fs_point_integral_quadrature,
    g_fs,
    intersect,
    principal_arakelov,
    principal_move,
    residue_scalar_product,
)
from .charts import fiber_divisor, infx_fiber_divisor
from .divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    Place,
    UnaryPlace,
    degree_K,
    degree_over_K,
    degree_over_Kp,
    divisor_of_upoly,
    principal_divisor,
    valuation,
)
from .errors import (
    DegreeBound,
    DoubleFieldError,
    EqualIsoms,
    InputError,
    NotCoprime,
    NotDegreeOne,
    ParseError,
    PrecisionFailure,
)
from .exact import (
    BPoly,
    UPoly,
    clear_caches,
    complex_roots,
    factor_b,
    factor_q,
    gcd_u,
    resultant_x,
    squarefree_decomposition,
)
from .pairing import (
    SIDE_K,
    SIDE_KPRIME,
    SelfPairing,
    pair,
    self_pair_degree_one,
)
from .residues import (
    RationalIsom,
    correspondence,
    different_divisor,
    residue_iso,
    residue_mod_Kp_degree_one,
    residue_mod_degree_one,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
