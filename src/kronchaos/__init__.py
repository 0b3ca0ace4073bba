"""Moment and tail bounds for Kronecker-structured subgaussian chaos.

The quadratic form X^T A X with X a Kronecker product of independent
subgaussian factor vectors concentrates at a rate governed by partition norms
of the order-2d rearrangement of A.  This package computes those norms and
the derived moment functionals and tail bounds, and certifies the underlying
inequalities empirically through seeded Monte Carlo suites and exact
algebraic identity checks.
"""

from .version import __version__

from .errors import (
    ArgumentError,
    AxisSetError,
    CoordinateError,
    DegenerateInputError,
    DisjointnessError,
    KronChaosError,
    ShapeError,
    SizeError,
)
from .tensor import (
    Dims,
    EMPTY_INDEX,
    PartialArray,
    PartialIndex,
    all_indices,
    dot_plus,
    dot_times,
    flatten_index,
    frobenius,
    rearrange_matrix,
    restrict,
    unflatten_index,
    unrearrange_matrix,
)
from .partitions import Partition, all_partitions, partitions_into, signed_subset_sum, subsets
from .norms import (
    NormEstimate,
    NormOptions,
    matricize,
    norm_objective,
    tensor_norm,
    verify_diagonal_restriction,
    verify_merge_split,
)
from .bounds import (
    NormTableRow,
    build_reduced_array,
    check_gram_norm_bounds,
    check_symmetry,
    main_norm_table,
    mp_main,
    mp_norm,
    symmetrize,
    tail_bound_ax,
    verify_reduction_lift,
)
from .identities import (
    axis_marginal,
    backbone_pairs,
    backbone_term,
    chaos_quadratic,
)
from .montecarlo import (
    DistributionSpec,
    EmpiricalMoment,
    FactorSampler,
    SampleBatch,
    distribution,
    estimate_lp,
    estimate_tail,
)
from .suites import (
    bound_report,
    run_identity_suite,
    verify_ax_tail,
    verify_decoupling,
    verify_gaussian_decoupling,
    verify_hanson_wright,
    verify_main_lower,
    verify_main_upper,
)
