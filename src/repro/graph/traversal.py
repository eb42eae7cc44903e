"""Graph traversal utilities: k-hop neighbourhoods, ego subgraphs, and
connected components.  These back the error analysis ("insufficient
structure" detection), the explainer's local view, and the negative
sampler's candidate pools.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .hetero import HeteroGraph


def k_hop_nodes(graph: HeteroGraph, seeds, k: int) -> np.ndarray:
    """All nodes within ``k`` (>= 0) undirected hops of ``seeds``
    (inclusive)."""
    if k < 0:
        raise ValueError(f"k must be >= 0 hops, got {k}")
    if np.isscalar(seeds):
        seeds = [int(seeds)]
    visited: Set[int] = set(int(s) for s in seeds)
    frontier = deque((int(s), 0) for s in seeds)
    while frontier:
        node, depth = frontier.popleft()
        if depth == k:
            continue
        for nbr in graph.neighbors(node).tolist():
            if nbr not in visited:
                visited.add(nbr)
                frontier.append((nbr, depth + 1))
    return np.asarray(sorted(visited), dtype=np.int64)


def ego_subgraph(
    graph: HeteroGraph, seeds, k: int
) -> Tuple[HeteroGraph, Dict[int, int]]:
    """Induced subgraph on the k-hop neighbourhood of ``seeds``.

    Returns the subgraph and a mapping ``original id -> subgraph id``.
    Features are sliced along with the nodes.
    """
    keep = k_hop_nodes(graph, seeds, k)
    return induced_subgraph(graph, keep)


def induced_subgraph(
    graph: HeteroGraph, nodes: np.ndarray
) -> Tuple[HeteroGraph, Dict[int, int]]:
    """Induced subgraph on an explicit node set (edges with both endpoints
    inside are kept, with their relation ids)."""
    nodes = np.asarray(sorted(set(int(n) for n in np.atleast_1d(nodes))), dtype=np.int64)
    mapping: Dict[int, int] = {int(old): new for new, old in enumerate(nodes.tolist())}
    sub = HeteroGraph(graph.schema)
    for old in nodes.tolist():
        sub.add_node(
            graph.node_type_name(old),
            graph.node_name(old),
            aliases=graph.node_aliases(old),
        )
    src, dst, et = graph.edges()
    member = np.isin(src, nodes) & np.isin(dst, nodes)
    for s, d, r in zip(src[member].tolist(), dst[member].tolist(), et[member].tolist()):
        sub.add_edge(mapping[s], mapping[d], r)
    if graph.features is not None:
        sub.set_features(graph.features[nodes])
    return sub, mapping


def connected_components(graph: HeteroGraph) -> List[np.ndarray]:
    """Undirected connected components, largest first."""
    seen: Set[int] = set()
    components: List[np.ndarray] = []
    for start in range(graph.num_nodes):
        if start in seen:
            continue
        component: List[int] = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            component.append(node)
            for nbr in graph.neighbors(node).tolist():
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        components.append(np.asarray(sorted(component), dtype=np.int64))
    components.sort(key=len, reverse=True)
    return components


def shortest_path_length(
    graph: HeteroGraph, source: int, target: int, cutoff: Optional[int] = None
) -> Optional[int]:
    """Undirected BFS distance, or ``None`` if unreachable within cutoff."""
    if source == target:
        return 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        node, depth = queue.popleft()
        if cutoff is not None and depth >= cutoff:
            continue
        for nbr in graph.neighbors(node).tolist():
            if nbr == target:
                return depth + 1
            if nbr not in seen:
                seen.add(nbr)
                queue.append((nbr, depth + 1))
    return None


def random_walk(
    graph: HeteroGraph,
    start: int,
    length: int,
    rng: np.random.Generator,
) -> List[int]:
    """Uniform random walk on the undirected view (used by tests and the
    dataset synthesiser to grow realistic snippet contexts)."""
    walk = [start]
    node = start
    for _ in range(length):
        nbrs = graph.neighbors(node)
        if len(nbrs) == 0:
            break
        node = int(rng.choice(nbrs))
        walk.append(node)
    return walk
