"""Correlation-network stock clustering and Monte Carlo portfolio selection.

Pipeline: dividend-reinvested returns -> correlation -> ultrametric
distances -> clustering trees / spanning trees / neighbor-Net split systems
-> cluster-based portfolio simulation with Sharpe and Levene reporting.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a command loads only
what it runs.
"""

from importlib import import_module

# Module -> the public names it defines.
_MODULES = {
    "analytics": "LeveneResult SimulationReport render_report sharpe_ratio",
    "summary": "levene_test summarize",
    "clusters": "ClusterAssignment ClusterPairing pair_by_distance pair_by_size",
    "correlation": "CorrelationMatrix DistanceMatrix pearson_correlation ultrametric_distance",
    "inputs": "StudyPeriod",
    "market_data": "PricePanel ReturnPanel ingest period_returns total_return_index",
    "neighbor_net": "CircularSplitSystem Split fit_split_weights neighbornet_ordering "
                    "nn_clusters pair_nn_clusters write_nexus",
    "portfolio_sim": "DrawPlan SimulationRun cluster_plan draw_matrices industry_plan "
                     "random_plan score_period",
    "tree_cluster": "Dendrogram SpanningTree average_linkage_hct cut_dendrogram "
                    "minimum_spanning_tree mst_clusters to_dot to_newick",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
