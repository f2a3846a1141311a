"""wadefect: exact computation of the defect of weak approximation.

The defect of a reductive group over a global field, relative to a finite
set of places S, is a finite abelian group.  It is determined by finite
data: the Galois group of a splitting extension, its action on the
algebraic fundamental group, and the decomposition subgroups attached to S
and to the non-cyclic part of its complement.  This package computes it
with exact integer arithmetic.
"""

from .engine import (
    DefectResult,
    Scenario,
    ScenarioError,
    ch1_torus,
    defect,
    quick_vanish,
    validate_scenario,
)
from .groups import (
    CayleyGroup,
    GroupError,
    Subgroup,
    abelianization,
    conjugate_subgroup,
    cyclic_subgroups,
    from_permutations,
    from_table,
    full_subgroup,
    is_cyclic_subgroup,
    is_subgroup,
    subgroup_closure,
    trivial_subgroup,
)
from .linalg import (
    ContainmentError,
    DimensionError,
    FinAbInvariants,
    IntMatrix,
    QuotientNotFiniteError,
    SmithDecomposition,
    cokernel_invariants,
    finite_quotient,
    hermite_column_form,
    preimage,
    smith_normal_form,
    torsion_generators,
)
from .modules import (
    FreeCover,
    GammaModule,
    ModuleError,
    coinvariants,
    free_cover,
    free_module,
    h1,
    h1_bar,
    induced_module,
    norm_one_module,
    tate_h_minus1,
    trivial_module,
    validate,
    with_doubled_generators,
)
from .scenario_io import SchemaError, load_scenario, parse_scenario

__version__ = "0.1.0"
