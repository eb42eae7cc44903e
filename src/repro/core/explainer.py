"""GNN-Explainer for ED-GNN matches (Section 4.4, Figure 4a).

Learns a differentiable mask over the KB edges in the ego neighbourhood
of a candidate entity, maximising the matching score between the query
mention and that entity while regularising the mask to be sparse and
binary (the GNNExplainer objective of Ying et al. [51]).  The top-k
surviving edges are reported with their importance scores in [0, 1] —
the paper's Figure 4a shows the top-3 such edges for the MDX match
"squamous cell carcinoma" -> "carcinoma epidermoid".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..autograd import Adam, Tensor, no_grad
from ..autograd import functional as F
from ..graph.hetero import HeteroGraph
from ..graph.traversal import ego_subgraph
from .model import EDGNN
from .pipeline import check_top_k
from .query_graph import QueryGraph


@dataclass(frozen=True)
class EdgeAttribution:
    """One explained KB edge with its importance score."""

    src_name: str
    relation: str
    dst_name: str
    score: float

    def __str__(self) -> str:
        return f"({self.src_name}) -[{self.relation}]-> ({self.dst_name}): {self.score:.3f}"


@dataclass
class Explanation:
    """Result of explaining one (mention, candidate entity) match."""

    mention_surface: str
    entity_name: str
    matching_score: float
    top_edges: List[EdgeAttribution]
    edge_mask: np.ndarray  # importance per ego-subgraph edge


class GNNExplainer:
    """Edge-mask optimisation on a trained ED-GNN."""

    def __init__(
        self,
        model: EDGNN,
        ref_graph: HeteroGraph,
        epochs: int = 100,
        lr: float = 0.1,
        sparsity_weight: float = 0.05,
        entropy_weight: float = 0.1,
        seed: int = 0,
    ):
        if ref_graph.features is None:
            raise ValueError("ref_graph needs features")
        if epochs < 1:
            raise ValueError(f"explainer epochs must be >= 1, got {epochs}")
        self.model = model
        self.ref_graph = ref_graph
        self.epochs = epochs
        self.lr = lr
        self.sparsity_weight = sparsity_weight
        self.entropy_weight = entropy_weight
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def explain(
        self,
        query_graph: QueryGraph,
        target_entity: int,
        k_hops: int = 2,
        top_k: int = 3,
    ) -> Explanation:
        """Explain why ``query_graph``'s mention matches ``target_entity``
        with its ``top_k`` (>= 1) most important ego-network edges."""
        check_top_k(top_k)
        if k_hops < 0:
            raise ValueError(f"k_hops must be >= 0, got {k_hops}")
        sub, mapping = ego_subgraph(self.ref_graph, target_entity, k_hops)
        sub_target = mapping[target_entity]
        sub_compiled = self.model.compile(sub)
        sub_features = Tensor(sub.features)

        # The query-side embedding is constant w.r.t. the mask.
        self.model.eval()
        with no_grad():
            qry_compiled = self.model.compile(query_graph.graph)
            h_qry = self.model.embed(qry_compiled, Tensor(query_graph.graph.features))
        mention_vec = h_qry.data[query_graph.mention_node].copy()
        x_mention_row = query_graph.graph.features[query_graph.mention_node]

        if sub.num_edges == 0:
            # No edge to mask: score one forward of the edgeless ego graph.
            with no_grad():
                h_sub = self.model.embed(sub_compiled, sub_features).data
            [score] = self.model.score_one_vs_many(
                mention_vec, h_sub[[sub_target]], x_mention_row, sub.features[[sub_target]]
            )
            return Explanation(
                mention_surface=query_graph.mention_surface,
                entity_name=self.ref_graph.node_name(target_entity),
                matching_score=float(score),
                top_edges=[],
                edge_mask=np.zeros(0, dtype=np.float32),
            )

        x_mention = Tensor(x_mention_row.reshape(1, -1))
        x_sub = Tensor(sub.features)

        logits = Tensor(
            (self.rng.normal(0.0, 0.1, size=sub.num_edges) + 1.0).astype(np.float32),
            requires_grad=True,
        )
        optimizer = Adam([logits], lr=self.lr)

        final_score = 0.0
        for _ in range(self.epochs):
            optimizer.zero_grad()
            mask = logits.sigmoid()
            expanded = self.model.encoder.expand_edge_mask(sub_compiled, mask)
            h_sub = self.model.embed(sub_compiled, sub_features, expanded)
            score = self.model.score_pairs(
                Tensor(mention_vec.reshape(1, -1)),
                np.asarray([0]),
                h_sub,
                np.asarray([sub_target]),
                x_query=x_mention,
                x_ref=x_sub,
            )
            clamped = mask.clip(1e-6, 1.0 - 1e-6)
            entropy = -(
                clamped * clamped.log() + (1.0 - clamped) * (1.0 - clamped).log()
            ).mean()
            loss = (
                F.softplus(-score).sum()
                + self.sparsity_weight * mask.mean()
                + self.entropy_weight * entropy
            )
            loss.backward()
            optimizer.step()
            final_score = float(score.data[0])

        mask_values = 1.0 / (1.0 + np.exp(-logits.data))
        src, dst, et = sub.edges()
        order = np.argsort(-mask_values, kind="stable")[:top_k]
        top_edges = [
            EdgeAttribution(
                src_name=sub.node_name(int(src[e])),
                relation=sub.schema.relation(int(et[e])).name,
                dst_name=sub.node_name(int(dst[e])),
                score=float(mask_values[e]),
            )
            for e in order
        ]
        return Explanation(
            mention_surface=query_graph.mention_surface,
            entity_name=self.ref_graph.node_name(target_entity),
            matching_score=final_score,
            top_edges=top_edges,
            edge_mask=mask_values,
        )
