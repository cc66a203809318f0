"""Ultrametrics generated by vertex-labeled graphs.

The distance between two vertices of a connected labeled graph is the
smallest over all joining paths of the largest vertex label on the
path.  This package computes those distances exactly, classifies the
resulting spaces by their distance sets, builds canonical dendrograms
for isometry testing, and counts the GH spaces of small trees per
distance set, checking that each is the caterpillar of its distance set.
"""

from .analysis import (
    DegenerateLabelingError,
    EdgeBound,
    GHReport,
    check_edge_bound,
    check_gomory_hu,
    distance_set,
    gh_labeling,
    gh_report,
    is_gh,
    is_gh_complete,
    level_labeling,
    tree_gh_report,
)
from .dendrograms import (
    Leaf,
    Merge,
    are_isometric,
    canonical_form,
    dendrogram,
    graph_dendrogram,
    leaves,
)
from .explore import (
    EXHAUSTIVE,
    SAMPLED,
    ConjectureReport,
    RunRecord,
    SearchConfig,
    search_conjecture,
)
from .graphs import (
    CapExceededError,
    DisconnectedGraphError,
    GraphFormatError,
    LabeledGraph,
    NotATreeError,
    connectivity_witness,
    enumerate_cycles,
    enumerate_simple_paths,
    enumerate_trees,
    is_connected,
    is_tree,
    parse_graph,
    require_connected,
    root_levels,
    spanning_tree,
    tree_from_pruefer,
)
from .metrics import (
    PSEUDOULTRAMETRIC,
    ULTRAMETRIC,
    DistanceMatrix,
    InternalCheckError,
    MatrixInvariantError,
    NotUltrametricError,
    RealizabilityResult,
    WeightedGraph,
    classify_metric,
    distance_matrix,
    distance_oracle,
    edge_weights,
    is_nondegenerate,
    is_weight_realizable,
    oracle_matrix,
    parse_weighted_graph,
    rho_w,
    zero_quotient,
)

__version__ = "0.1.0"
