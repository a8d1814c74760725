"""Hasse-Witt matrices and p-torsion invariants of genus-3 plane quartics
with cyclic automorphism group of order 6 or 9, over prime fields."""

from .errors import (CapacityError, IntegrityError, ModulusError, ParseError,
                     PoleError)
from .families import (Classification, TABLE_C6, TABLE_C9, c6_classify,
                       c6_coeff_polys, c6_count_max_a, c6_form, c6_hw,
                       c9_classify, c9_form, c9_hw, coeff_of_power)
from .ffield import (FactorialTable, Fp2Element, FpElement, PrimeModulus,
                     binomial, is_prime, modulus, multinomial)
from .harness import (ReportRow, SweepReport, count_points_ext2, main,
                      parse_c6_param, parse_quartic)
from .hwcore import (HWMatrix, QuarticForm, a_number, hw_matrix,
                     hw_matrix_oracle, hw_targets, rank3, stable_rank)
from .hypergeom import (ExpectationReport, expectation_check, gauss_truncated,
                        verify_euler, verify_gauss_lemma)
from .unipoly import UniPoly, ext2_root_counts, poly_gcd, roots_over

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
