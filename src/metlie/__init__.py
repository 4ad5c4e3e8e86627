"""Exact computer algebra for the free metabelian Lie ring over Z.

Primitivity of element systems is decided through the minors ideal of the
Jacobi matrix (strong Groebner bases over Z, with fast necessary conditions
on the abelianization and on finite quotient rings), and the primitive <->
uniformly-distributed correspondence is verified empirically by exhaustive
enumeration over finite metabelian matrix Lie rings.
"""

from metlie.poly import (
    Poly,
    QuotientParams,
    ResourceLimitError,
)
from metlie.expr import LieParseError, parse
from metlie.ring import (
    BasisTerm,
    MElement,
    from_basis,
    to_basis,
)
from metlie.calculus import (
    det,
    jacobi_matrix,
    minors,
)
from metlie.primitivity import (
    GroebnerLimitError,
    PrimitivityVerdict,
    ideal_contains_one,
    is_primitive,
)
from metlie.model import (
    BudgetError,
    FiniteModel,
    UniformityReport,
    uniformity_check,
    uniformity_check_abelian,
)

__version__ = "0.1.0"
