"""Correlation-network stock clustering and Monte Carlo portfolio selection.

Pipeline: dividend-reinvested returns -> correlation -> ultrametric
distances -> clustering trees / spanning trees / neighbor-Net split systems
-> cluster-based portfolio simulation with Sharpe and Levene reporting.
"""

from .analytics import (
    LeveneResult,
    SimulationReport,
    levene_test,
    render_report,
    sharpe_ratio,
    summarize,
)
from .clusters import ClusterAssignment, ClusterPairing, pair_by_distance, pair_by_size
from .correlation import (
    CorrelationMatrix,
    DistanceMatrix,
    nearest_neighbors,
    pearson_correlation,
    ultrametric_distance,
)
from .market_data import (
    BlockModelSpec,
    DividendTable,
    PricePanel,
    ReturnPanel,
    StudyPeriod,
    ingest,
    period_returns,
    synthesize_panel,
    total_return_index,
)
from .neighbor_net import (
    CircularSplitSystem,
    Split,
    fit_split_weights,
    neighbornet_ordering,
    nn_clusters,
    pair_nn_clusters,
    write_nexus,
)
from .portfolio_sim import (
    IndustryMap,
    SimulationRun,
    Strategy,
    cluster_plan,
    default_industry_map,
    draw_matrices,
    random_plan,
    run_simulation,
    score_period,
)
from .tree_cluster import (
    Dendrogram,
    SpanningTree,
    average_linkage_hct,
    cut_dendrogram,
    minimum_spanning_tree,
    mst_clusters,
    to_dot,
    to_newick,
)

__version__ = "0.1.0"
