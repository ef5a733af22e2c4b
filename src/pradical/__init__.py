"""Exact computation with restricted Lie algebras and finite group-scheme
coordinate rings in characteristic p: unipotent radicals with certified
strategies, p-reductivity, Hopf-side subgroup ideals and Frobenius kernels.
"""

from .fields import (ExtensionField, FieldHom, PolynomialRing, PrimeField,
                     RationalFunctionField, base_change_map)
from .hopf import (HopfAlgebra, SCAlgebra, SubgroupIdeal, frobenius_kernel,
                   is_normal, is_subgroup_ideal, schematic_union,
                   tensor_intersection_identity, tensor_product_hopf)
from .envelope import dual_hopf, subgroup_ideal_from_p_subalgebra, u_env
from .lie import NotPIdealError, RLieAlgebra, direct_sum
from .linalg import SemilinearMap, Subspace, semilinear_kernel
from .radical import (RadicalCertificate, is_mult_type, is_p_reductive,
                      rad_p, weight_decomposition)

__version__ = "0.1.0"

__all__ = [
    "ExtensionField", "FieldHom", "PolynomialRing", "PrimeField",
    "RationalFunctionField", "base_change_map",
    "HopfAlgebra", "SCAlgebra", "SubgroupIdeal", "frobenius_kernel",
    "is_normal", "is_subgroup_ideal", "schematic_union",
    "tensor_intersection_identity", "tensor_product_hopf",
    "dual_hopf", "subgroup_ideal_from_p_subalgebra", "u_env",
    "NotPIdealError", "RLieAlgebra", "direct_sum",
    "SemilinearMap", "Subspace", "semilinear_kernel",
    "RadicalCertificate", "is_mult_type", "is_p_reductive",
    "rad_p", "weight_decomposition",
]
