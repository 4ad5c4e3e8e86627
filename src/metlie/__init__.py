"""Exact computer algebra for the free metabelian Lie ring over Z.

Primitivity of element systems is decided through the minors ideal of the
Jacobi matrix (strong Groebner bases over Z, with fast necessary conditions
on the abelianization and on finite quotient rings), and the primitive <->
uniformly-distributed correspondence is verified empirically by exhaustive
enumeration over finite metabelian matrix Lie rings.
"""

from metlie.poly import (
    Poly,
    QPoly,
    QuotientParams,
    ResourceLimitError,
    divexact,
    ideal_contains_finite,
    reduce_pqm,
)
from metlie.expr import LieParseError, parse
from metlie.ring import (
    BasisTerm,
    MElement,
    endo_apply,
    from_basis,
    from_expr,
    to_basis,
)
from metlie.calculus import (
    PolyMatrix,
    det,
    jacobi_matrix,
    jacobi_substituted,
    matmul,
    minors,
    sigma,
)
from metlie.primitivity import (
    GroebnerBasis,
    GroebnerLimitError,
    PrimitivityVerdict,
    abelian_primitive,
    groebner_z,
    ideal_contains,
    ideal_contains_one,
    is_automorphism_system,
    is_primitive,
    quotient_primitivity_check,
)
from metlie.model import (
    BudgetError,
    FiniteModel,
    ModelElement,
    ModelParams,
    UniformityReport,
    eval_closed_form,
    uniformity_check,
    uniformity_check_abelian,
)

__version__ = "0.1.0"
