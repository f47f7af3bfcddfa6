"""Exact-arithmetic classification toolkit for minimal W-algebra modules.

Six admissible families (psl2-2, spo2-m, d21-m-n, f4, g3) with their full
root data, affine weight arithmetic and odd reflections, enumeration and
classification of irreducible highest-weight modules for the affine and
minimal W vertex algebras on the unitarity range, three-valued unitarity
verdicts, and a regression ledger of every weight identity the machinery
rests on.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .scalars import (Vector, Matrix, DimensionError, SingularMatrixError,
                      rational, rational_str, vector, solve_linear)
from .catalog import (FamilySpec, FAMILY_TABLE, AlgebraId, Weight, Root,
                      AlgebraData, InvalidAlgebraError, AlgebraMismatchError,
                      IsotropyError, build_algebra, pair, coroot_pair,
                      selfcheck_algebra, expected_h_check, expected_chi,
                      algebra_json)
from .affine import (AffineWeight, AffineRoot, SimpleRootSet, ReflectionError,
                     affine_pair, affine_coroot_pair, affine_simple_roots,
                     odd_reflect, reflected_base, eta_membership_check,
                     simple_root_set_json)
from .classify import (Level, DominantWeight, AffineModuleLabel, WModuleLabel,
                       Verdict, CriticalLevelError, RangeError, level,
                       in_unitarity_range, level_M, table_M, enumerate_Pk,
                       count_Pk, in_truncated_cone, theta_values,
                       is_extremal, A_value, ell0, extremal_h_set,
                       affine_module_descends, w_module_exists,
                       hamiltonian_reduce, unitarity_verdict,
                       classify_w_modules, classify_affine_modules,
                       standard_levels, cross_identity_report)
from .ledger import (check_singular_weights, check_affine_pairings,
                     check_d21_cone, check_zhu_consequences, run_level_ledger)
from .report import CheckEntry, Report
from .cli import run_command  # also binds walg.cli, which the benchmark tracer wraps

# the names imported above, without the submodules that the imports bind
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, type(cli)))]
