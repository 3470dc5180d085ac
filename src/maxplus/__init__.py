"""Exact max-plus linear algebra and transient analysis.

Everything is exact arithmetic over (Q and -inf, max, +): dense
matrix operations, digraph analytics, maximum cycle means and critical
graphs, CSR expansions with their thresholds, the Wielandt and
Dulmage-Mendelsohn bounds, and verifiers/generators for the matrix
families attaining them.
"""

from .bounds import (
    BoundComparison,
    compare_bounds,
    dm_bound,
    wielandt_bound,
)
from .csr import (
    CsrTriple,
    TransientReport,
    WeakExpansion,
    analyze,
    build_csr,
    crit_row_col_profile,
    crit_row_col_transient,
    csr_at,
    nachtigall_matrix,
    transient_T,
    weak_threshold_T1,
)
from .digraph import (
    Cycle,
    SccDecomposition,
    SccInfo,
    WeightedDigraph,
    associated_digraph,
    enumerate_cycles,
    global_cyclicity,
    maximal_girth,
    scc_decompose,
    to_dot,
)
from .extremal import (
    ConditionCheck,
    Decomposition,
    DmVerdict,
    GenerationError,
    WalkResult,
    WielandtVerdict,
    apply_numbering,
    decompose,
    dm_skeleton,
    generate_dm,
    generate_wielandt,
    hamiltonian_cycles,
    twice_optimal_walk,
    verify_crit_rc_dm,
    verify_crit_rc_wielandt,
    verify_dm,
    verify_wielandt,
    wielandt_skeleton,
)
from .matrix import (
    DiagonalScaling,
    MaxPlusMatrix,
    from_entries,
    identity,
    kleene_star,
    mat_mul,
    mat_oplus,
    mat_power,
    parse_matrix,
    render_matrix,
    scalar_times,
    scale,
    strictly_dominated_by,
    transpose,
    zeros,
)
from .semiring import (
    BOTTOM,
    UNIT,
    MaxPlusScalar,
    as_scalar,
    negate,
    oplus,
    otimes,
    parse_scalar,
    scalar_power,
)
from .spectral import (
    CritGraph,
    Spectrum,
    critical_components,
    critical_graph,
    is_strictly_visualized,
    is_visualized,
    max_cycle_mean,
    spectrum,
    visualize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
