"""Path-count matrices of quantum lens-space graphs and their equivalence.

The package builds the upper-triangular path-counting matrices attached to
the two graph families over Z_r, decides unipotent upper-triangular
equivalence over the integers exactly, computes the modular invariants that
obstruct equivalence, and enumerates equivalence classes of the normalized
matrix families.
"""

from .classify import (
    ClassPartition,
    ClassRecord,
    ConjectureReport,
    NotFoundBelow,
    enumerate_matrices,
    partition_classes,
    phitilde_search,
    verify_conjectures,
)
from .equivalence import (
    CornerObstruction,
    EquivDecision,
    Witness,
    decide_equiv,
    obstruction_mod_k,
    solve_diophantine,
    submatrix_necessary,
    verify_witness,
)
from .errors import (
    BadModulusError,
    BudgetExceededError,
    DimensionMismatchError,
    HypothesisUnmetError,
    IndexOutOfRangeError,
    InputError,
    InvalidParamsError,
    InvariantViolationError,
    NonIntegerResultError,
    NonUnitError,
    NotPrimeError,
    QlensError,
    TooLargeError,
)
from .invariants import (
    DivisibilityCheck,
    DivisibilityReport,
    Signature,
    check_divisibility,
    congruence_main,
    lower_bound_classes,
    phitilde_formula,
    signature,
)
from .lensgraph import (
    LensGraph,
    LensParams,
    build_graph,
    enumerate_legal_paths,
    scale,
    to_dot,
)
from .pathmatrix import (
    PathMatrix,
    closed_form_all_ones,
    count_matrix,
    normalize,
    poly_1to6,
)

__version__ = "0.1.0"

__all__ = [
    "BadModulusError",
    "BudgetExceededError",
    "ClassPartition",
    "ClassRecord",
    "ConjectureReport",
    "CornerObstruction",
    "DimensionMismatchError",
    "DivisibilityCheck",
    "DivisibilityReport",
    "EquivDecision",
    "HypothesisUnmetError",
    "IndexOutOfRangeError",
    "InputError",
    "InvalidParamsError",
    "InvariantViolationError",
    "LensGraph",
    "LensParams",
    "NonIntegerResultError",
    "NonUnitError",
    "NotFoundBelow",
    "NotPrimeError",
    "PathMatrix",
    "QlensError",
    "Signature",
    "TooLargeError",
    "Witness",
    "build_graph",
    "check_divisibility",
    "closed_form_all_ones",
    "congruence_main",
    "count_matrix",
    "decide_equiv",
    "enumerate_legal_paths",
    "enumerate_matrices",
    "lower_bound_classes",
    "normalize",
    "obstruction_mod_k",
    "partition_classes",
    "phitilde_formula",
    "phitilde_search",
    "poly_1to6",
    "scale",
    "signature",
    "solve_diophantine",
    "submatrix_necessary",
    "to_dot",
    "verify_conjectures",
    "verify_witness",
]
