"""Exact scalar, polynomial and series arithmetic used by every layer above."""

from .crt import crt_combine, node_product
from .poly import Poly, poly_gcd, square_free_part
from .scalar import (ONE, ZERO, Scalar, Tower, parse_scalar, scal,
                     scalar_sqrt_adjoin, scalar_to_str, try_sqrt)
from .series import (Series, compose_centered, hensel_sqrt, poly_to_series,
                     series_reverse)
from .sturm import (NEG_INF, POS_INF, SturmChain, cauchy_bound, isolate_root,
                    sturm_root_count)


def poly_valuation(s: Series) -> int:
    """Order of vanishing at the center; equals the order for the zero series."""
    return s.valuation()


__all__ = [
    "ONE", "ZERO", "Scalar", "Tower", "Poly", "Series", "SturmChain",
    "cauchy_bound", "compose_centered", "crt_combine", "hensel_sqrt",
    "isolate_root", "node_product", "parse_scalar", "poly_gcd",
    "poly_to_series", "poly_valuation", "scal", "scalar_sqrt_adjoin",
    "scalar_to_str", "series_reverse", "square_free_part",
    "sturm_root_count", "try_sqrt",
]
