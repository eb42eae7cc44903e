"""The heterogeneous property graph (Definition 2.1) that models both the
medical KB ``G_ref`` and the per-snippet query graphs ``G_qry``.

Nodes carry a type, a display name (the entity description), optional
surface-form aliases (synonyms / acronyms / abbreviations) and a feature
vector; edges carry a relation id from the :class:`~repro.graph.schema.GraphSchema`.
Storage is columnar (plain numpy arrays), with CSR adjacency built lazily
and invalidated on mutation, so both the tiny query graphs and the
35k-node MDX analogue use the same code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .schema import GraphSchema


class HeteroGraph:
    """A mutable heterogeneous graph with typed nodes and edges."""

    def __init__(self, schema: GraphSchema):
        self.schema = schema
        self._node_types: List[int] = []
        self._node_names: List[str] = []
        self._node_aliases: List[Tuple[str, ...]] = []
        self._src: List[int] = []
        self._dst: List[int] = []
        self._etypes: List[int] = []
        self.features: Optional[np.ndarray] = None
        #: bumped on every mutation through the public API; cheap dirty
        #: check for downstream caches (e.g. the serving layer's
        #: reference-embedding cache).  In-place edits of ``features``
        #: rows bypass it — use :meth:`set_features`.
        self.version = 0
        # caches
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._out_csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._in_csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._edge_set: Optional[Dict[Tuple[int, int], int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        type_name: str,
        name: str,
        aliases: Sequence[str] = (),
    ) -> int:
        """Add a node, returning its integer id."""
        self._invalidate()
        self._node_types.append(self.schema.node_type_id(type_name))
        self._node_names.append(name)
        self._node_aliases.append(tuple(aliases))
        return len(self._node_types) - 1

    def add_edge(self, src: int, dst: int, relation_id: int) -> int:
        """Add a directed typed edge, returning its edge id."""
        n = self.num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise IndexError(f"edge ({src}, {dst}) references missing node (n={n})")
        if not (0 <= relation_id < self.schema.num_relations):
            raise IndexError(f"unknown relation id {relation_id}")
        self._invalidate()
        self._src.append(src)
        self._dst.append(dst)
        self._etypes.append(relation_id)
        return len(self._src) - 1

    def splice(self, other: "HeteroGraph") -> int:
        """Append ``other``'s nodes and edges columnar, returning the node
        offset its ids were shifted by.

        The fast path behind :func:`repro.graph.batch.batch_graphs`:
        columns are extended wholesale instead of per-element
        ``add_node``/``add_edge`` calls.  The caller is responsible for
        schema compatibility (same node-type/relation id spaces) and for
        features (not spliced — stack them separately).
        """
        self._invalidate()
        offset = self.num_nodes
        self._node_types.extend(other._node_types)
        self._node_names.extend(other._node_names)
        self._node_aliases.extend(other._node_aliases)
        if other.num_edges:
            src, dst, et = other.edges()
            self._src.extend((src + offset).tolist())
            self._dst.extend((dst + offset).tolist())
            self._etypes.extend(et.tolist())
        return offset

    def add_edge_by_name(self, src: int, dst: int, relation_name: str) -> int:
        """Add an edge resolving the relation id from the endpoint types."""
        rel = self.schema.relation_id(
            relation_name,
            self.node_type_name(src),
            self.node_type_name(dst),
        )
        return self.add_edge(src, dst, rel)

    def set_features(self, features: np.ndarray) -> None:
        if features.shape[0] != self.num_nodes:
            raise ValueError(
                f"features rows ({features.shape[0]}) != num nodes ({self.num_nodes})"
            )
        self.features = np.ascontiguousarray(features, dtype=np.float32)
        self.version += 1

    def _invalidate(self) -> None:
        self.version += 1
        self._arrays = None
        self._out_csr = None
        self._in_csr = None
        self._edge_set = None

    # ------------------------------------------------------------------
    # Sizes / basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_types)

    @property
    def num_edges(self) -> int:
        return len(self._src)

    def node_type(self, node: int) -> int:
        return self._node_types[node]

    def node_type_name(self, node: int) -> str:
        return self.schema.node_type_name(self._node_types[node])

    def node_name(self, node: int) -> str:
        return self._node_names[node]

    def node_aliases(self, node: int) -> Tuple[str, ...]:
        return self._node_aliases[node]

    @property
    def node_types(self) -> np.ndarray:
        return np.asarray(self._node_types, dtype=np.int64)

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    def nodes_of_type(self, type_name: str) -> np.ndarray:
        tid = self.schema.node_type_id(type_name)
        return np.nonzero(self.node_types == tid)[0]

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar edge view ``(src, dst, relation_id)``."""
        if self._arrays is None:
            self._arrays = (
                np.asarray(self._src, dtype=np.int64),
                np.asarray(self._dst, dtype=np.int64),
                np.asarray(self._etypes, dtype=np.int64),
            )
        return self._arrays

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def _build_csr(self, by_src: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, dst, et = self.edges()
        key = src if by_src else dst
        other = dst if by_src else src
        order = np.argsort(key, kind="stable")
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        counts = np.bincount(key, minlength=self.num_nodes)
        indptr[1:] = np.cumsum(counts)
        return indptr, other[order], et[order]

    def _out(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._out_csr is None:
            self._out_csr = self._build_csr(by_src=True)
        return self._out_csr

    def _in(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._in_csr is None:
            self._in_csr = self._build_csr(by_src=False)
        return self._in_csr

    def out_neighbors(self, node: int) -> np.ndarray:
        indptr, nbrs, _ = self._out()
        return nbrs[indptr[node] : indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        indptr, nbrs, _ = self._in()
        return nbrs[indptr[node] : indptr[node + 1]]

    def neighbors(self, node: int) -> np.ndarray:
        """Distinct 1-hop neighbours in either direction."""
        return np.unique(np.concatenate([self.out_neighbors(node), self.in_neighbors(node)]))

    def out_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """(neighbours, relation ids) of outgoing edges."""
        indptr, nbrs, et = self._out()
        lo, hi = indptr[node], indptr[node + 1]
        return nbrs[lo:hi], et[lo:hi]

    def in_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        indptr, nbrs, et = self._in()
        lo, hi = indptr[node], indptr[node + 1]
        return nbrs[lo:hi], et[lo:hi]

    def degree(self, node: int) -> int:
        return len(self.out_neighbors(node)) + len(self.in_neighbors(node))

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Relation id of a ``u -> v`` edge, or ``None``.

        Used by Algorithm 1 (line 9) to copy KB relations into the query
        graph.  With parallel edges the first inserted wins.
        """
        if self._edge_set is None:
            src, dst, et = self.edges()
            pairs: Dict[Tuple[int, int], int] = {}
            for s, d, r in zip(src.tolist(), dst.tolist(), et.tolist()):
                pairs.setdefault((s, d), r)
            self._edge_set = pairs
        return self._edge_set.get((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_between(u, v) is not None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def to_bidirected(self) -> "BidirectedView":
        """Edge view with inverse edges added (relation id + num_relations
        for the reverse direction).  GNN encoders consume this so messages
        flow both ways while R-GCN still distinguishes direction."""
        src, dst, et = self.edges()
        n_rel = self.schema.num_relations
        full_src = np.concatenate([src, dst])
        full_dst = np.concatenate([dst, src])
        full_et = np.concatenate([et, et + n_rel])
        return BidirectedView(full_src, full_dst, full_et, 2 * n_rel)

    def with_self_loops(self) -> "BidirectedView":
        """Bidirected view plus one self-loop relation (id = 2R)."""
        view = self.to_bidirected()
        loops = np.arange(self.num_nodes, dtype=np.int64)
        src = np.concatenate([view.src, loops])
        dst = np.concatenate([view.dst, loops])
        et = np.concatenate([view.etypes, np.full(self.num_nodes, view.num_relations)])
        return BidirectedView(src, dst, et, view.num_relations + 1)

    def copy(self) -> "HeteroGraph":
        g = HeteroGraph(self.schema)
        g._node_types = list(self._node_types)
        g._node_names = list(self._node_names)
        g._node_aliases = list(self._node_aliases)
        g._src = list(self._src)
        g._dst = list(self._dst)
        g._etypes = list(self._etypes)
        g.features = None if self.features is None else self.features.copy()
        return g

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def type_histogram(self) -> Dict[str, int]:
        counts = np.bincount(self.node_types, minlength=self.schema.num_node_types)
        return {t: int(c) for t, c in zip(self.schema.node_types, counts)}

    def relation_histogram(self) -> Dict[str, int]:
        _, _, et = self.edges()
        counts = np.bincount(et, minlength=self.schema.num_relations)
        return {str(self.schema.relation(i)): int(c) for i, c in enumerate(counts)}

    def __repr__(self) -> str:
        return (
            f"HeteroGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"types={self.schema.num_node_types}, relations={self.schema.num_relations})"
        )


class BidirectedView:
    """An immutable columnar edge view used by the GNN encoders.

    ``num_relations`` counts the expanded relation vocabulary (forward +
    inverse [+ self-loop]), which is what R-GCN's weight bank is sized by.
    """

    __slots__ = ("src", "dst", "etypes", "num_relations")

    def __init__(self, src: np.ndarray, dst: np.ndarray, etypes: np.ndarray, num_relations: int):
        self.src = src
        self.dst = dst
        self.etypes = etypes
        self.num_relations = num_relations

    @property
    def num_edges(self) -> int:
        return len(self.src)


def neighbor_label_multiset(graph: HeteroGraph, node: int) -> Dict[Tuple[int, int], int]:
    """1-hop neighbourhood signature of ``node``: counts of
    ``(relation id, neighbour id)`` incidences over both edge directions
    (inverse relations offset by ``num_relations``).

    This is the star that the normalised GED of the semantic-driven
    negative sampler compares (Section 3.2): two entities are structurally
    similar exactly when they share *common neighbours* under the same
    relations — the paper's "gastroenteritis shares several common
    neighbors with acute renal failure".
    """
    signature: Dict[Tuple[int, int], int] = {}
    nbrs, rels = graph.out_edges(node)
    for nbr, rel in zip(nbrs.tolist(), rels.tolist()):
        key = (rel, nbr)
        signature[key] = signature.get(key, 0) + 1
    nbrs, rels = graph.in_edges(node)
    n_rel = graph.schema.num_relations
    for nbr, rel in zip(nbrs.tolist(), rels.tolist()):
        key = (rel + n_rel, nbr)
        signature[key] = signature.get(key, 0) + 1
    return signature
