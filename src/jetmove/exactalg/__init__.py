"""Exact scalar, polynomial and series arithmetic used by every layer above."""

from .crt import CrtBasis, crt_combine
from .poly import (Poly, half_angle_from_json, half_angle_rotation,
                   half_angle_to_json, poly_from_json, poly_gcd, poly_to_json,
                   same_field, square_free_part)
from .scalar import (ONE, ZERO, Scalar, Tower, parse_scalar, repeats, scal,
                     scalar_sqrt_adjoin, scalar_to_json, scalar_to_str,
                     try_sqrt)
from .series import (Series, compose_centered, hensel_sqrt, poly_sqrt,
                     poly_to_series)
from .sturm import NEG_INF, POS_INF, SturmChain, cauchy_bound, sturm_root_count

__all__ = [
    "ONE", "ZERO", "CrtBasis", "Scalar", "Tower", "Poly", "Series", "SturmChain",
    "cauchy_bound", "compose_centered", "crt_combine",
    "half_angle_from_json", "half_angle_rotation",
    "half_angle_to_json", "hensel_sqrt", "parse_scalar", "poly_from_json",
    "poly_gcd", "poly_sqrt", "poly_to_json", "poly_to_series", "repeats",
    "same_field", "scal", "scalar_sqrt_adjoin", "scalar_to_json", "scalar_to_str",
    "square_free_part", "sturm_root_count", "try_sqrt",
]
