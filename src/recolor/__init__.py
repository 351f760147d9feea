"""Recoloring walks between proper colorings of sparse graphs.

The library builds step-by-step recoloring sequences between proper
colorings of degenerate and chordal graphs, checks structural properties
of those sequences, answers exact reachability questions by exhaustive
search at small scale, and extends everything to bounded-treewidth graphs
through a same-color quotient construction.
"""

from .errors import (
    DecompositionError,
    DisconnectedTrace,
    EmptyValidSet,
    ImproperEndpoint,
    ImproperInput,
    ImproperIntermediate,
    InvalidParams,
    NotAClique,
    NotChordal,
    NullStep,
    OracleInfeasible,
    PaletteExhausted,
    PaletteViolation,
    RecolorError,
    StateCapExceeded,
    UncoveredEdge,
    UncoveredVertex,
)
from .graphs import (
    Coloring,
    EliminationOrdering,
    Graph,
    certify_perfect,
    degeneracy,
    greedy_color,
    is_proper,
    mcs_peo,
)
from .engine import (
    RecoloringSequence,
    RecoloringStep,
    apply_sequence,
    best_choice_sequence,
    local_best_choice,
    reverse_sequence,
    select_best_choice,
)
from .analysis import (
    AnalysisReport,
    Violation,
    analyze_sequence,
    naughty_recolorings,
    per_vertex_counts,
)
from .oracle import (
    DEFAULT_STATE_CAP,
    enumerate_colorings,
    frozen_states,
    iter_colorings,
    rt_connected,
    rt_diameter,
    rt_distance,
    rt_path,
)
from .treewidth import (
    MergeMap,
    MergeResult,
    PipelineResult,
    TreeDecomposition,
    expand_sequence,
    merge_by_coloring,
    project_coloring,
    run_pipeline,
    validate_decomposition,
)
from .generators import (
    gen_chordal,
    gen_instance,
    gen_ktree,
    gen_partial_ktree,
    gen_random_coloring,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRow,
    resolve_t_rule,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)

__version__ = "0.1.0"
