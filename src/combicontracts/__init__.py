"""Exact-arithmetic optimal linear contracts over combinatorial action sets.

An agent picks any subset of costly actions; the principal observes only a
stochastic outcome and pays a fraction alpha of the realized reward.  This
package computes agent demand, critical contract values, and optimal
contracts exactly (arbitrary-precision rationals throughout), with greedy
fast paths for certified gross-substitutes success functions, an FPTAS and
bisection successor for k-bit instances, hardness-instance generators, and
the multi-outcome linearization machinery.
"""

from .approx import GridSpec, fptas, grid_spec, succ_search
from .contract import optimal_contract, succ_gs, successor_from_profile
from .demand import (
    ContractSolution,
    CriticalProfile,
    DemandProfile,
    OrderedDemand,
    VOracle,
    brute_force_critical_set,
    brute_force_demand,
    canonical_best_response,
    greedy_demand,
    v_value,
)
from .errors import (
    ContractError,
    DegenerateInstanceError,
    DomainError,
    InvariantError,
    PrecisionError,
    ResourceLimitError,
    UnsupportedClassError,
)
from .functions import (
    ENUMERATION_LIMIT,
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    SuccessFunction,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    validate,
)
from .generators import (
    SubsetSumSpec,
    coverage_lift_weights,
    coverage_tower,
    gen_exponential_coverage,
    gen_subset_sum,
    normalize,
    sample_instance,
)
from .instancefile import dump_instance, dumps_instance, loads_instance
from .rational import format_rational, in_bounded_set, is_k_valid, parse_rational
from .robust import (
    GeneralContract,
    GeneralInstance,
    embed_binary,
    linearize,
    optimal_linear_general,
    validate_general,
    worst_case_utility_twopoint,
)

__version__ = "0.1.0"
