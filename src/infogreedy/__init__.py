"""infogreedy: distributed greedy submodular maximization under information constraints.

Exact-rational tooling for the question "how much does limited visibility of
earlier decisions cost the greedy algorithm?": efficiency brackets from
fractional clique LPs, certified worst-case instances that meet them, and
edge-budget-optimal information structures.
"""

from .bounds import (
    BoundsReport,
    SearchResult,
    WorstCaseInstance,
    adversarial_search,
    efficiency_bounds,
    sibling_instance,
    upper_bound_instance,
)
from .design import (
    CurvePoint,
    DesignResult,
    NoSiblingWitness,
    TuranDesign,
    complement_turan,
    edge_count,
    efficiency_curve,
    min_edges_no_sibling,
    optimal_structure,
    turan_within_budget,
)
from .errors import (
    AdmissibilityError,
    DegenerateInstanceError,
    GuardRefusal,
    InfeasibleLpError,
    InputError,
    InternalConsistencyError,
    UnboundedLpError,
)
from .graphs import (
    ExactNumbers,
    InfoGraph,
    SiblingVerdict,
    complete_graph,
    edgeless_graph,
    exact_numbers,
    maximal_cliques,
    sibling_property,
    to_dot,
)
from .greedy import (
    EfficiencyReport,
    GreedyOutcome,
    OptResult,
    brute_force_opt,
    efficiency,
    run_generalized_greedy,
)
from .lp import (
    LinearProgram,
    LpSolution,
    alpha_star,
    alpha_star_solution,
    k_star,
    solve_lp,
    verify_certificate,
)
from .oracles import (
    AuditReport,
    CappedSumOracle,
    Instance,
    TableOracle,
    TargetAssignmentOracle,
    TwoBlockOracle,
    ValuationOracle,
    WeightedSetCoverOracle,
    audit_properties,
    build_capped_sum,
    build_vta,
    build_wsc,
    capped_sum_tie_safe,
    evaluate,
    make_instance,
    marginal,
)

__version__ = "0.1.0"
