"""detstrata: exact invariants of the rank stratification of matrix spaces.

Local Euler obstructions, intersection cohomology local Euler characteristics
and microlocal indices for general, symmetric and skew-symmetric matrices,
together with the invariant de Rham generating functions that produce them,
computed by two independent routes (partition enumeration and closed
q-binomial formulas) that are required to agree.
"""

from .characters import lambda_extension, member_general, member_skew, member_symmetric
from .derham import euler_char_at_origin, ic_poincare, inv_derham_gf_closed, inv_derham_gf_enum
from .obstructions import (
    Mismatch,
    StrataMatrix,
    chi_closed,
    chi_from_enumeration,
    euler_closed,
    micro_indices,
    signed_micro,
    solve_euler,
    verify,
    verify_index_identity,
)
from .partitions import IntegerWeight, Partition, enumerate_in_rectangle
from .plethysm import (
    cauchy_exterior,
    schur_dimension,
    skew_exterior_partitions,
    symmetric_exterior_partitions,
)
from .qpoly import LaurentPoly, gauss_binomial
from .spaces import GENERAL, SKEW, SYMMETRIC, MatrixSpace, epsilon_symmetric, multiplicity

__all__ = [
    "GENERAL",
    "SKEW",
    "SYMMETRIC",
    "IntegerWeight",
    "LaurentPoly",
    "MatrixSpace",
    "Mismatch",
    "Partition",
    "StrataMatrix",
    "cauchy_exterior",
    "chi_closed",
    "chi_from_enumeration",
    "enumerate_in_rectangle",
    "epsilon_symmetric",
    "euler_char_at_origin",
    "euler_closed",
    "gauss_binomial",
    "ic_poincare",
    "inv_derham_gf_closed",
    "inv_derham_gf_enum",
    "lambda_extension",
    "member_general",
    "member_skew",
    "member_symmetric",
    "micro_indices",
    "multiplicity",
    "schur_dimension",
    "signed_micro",
    "skew_exterior_partitions",
    "solve_euler",
    "symmetric_exterior_partitions",
    "verify",
    "verify_index_identity",
]
