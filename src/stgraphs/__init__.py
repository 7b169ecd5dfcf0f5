"""Exact toolkit for [s,t]-graph predicates, Hamilton-path search and
exhaustive small-graph theorem verification."""

from .graphcore import (
    Graph,
    Graph6Error,
    canonical_form,
    canonical_label,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    from_graph6,
    induced_subgraph,
    is_connected,
    join,
    path_graph,
    petersen_graph,
    to_graph6,
)

__all__ = [
    "Graph",
    "Graph6Error",
    "canonical_form",
    "canonical_label",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "empty_graph",
    "from_graph6",
    "induced_subgraph",
    "is_connected",
    "join",
    "path_graph",
    "petersen_graph",
    "to_graph6",
]
