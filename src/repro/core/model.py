"""The ED-GNN model (Section 2.2, Figure 2).

Two *identical, parameter-shared* GNN encoders (Siamese) embed the KB
``G_ref`` and the query graphs ``G_qry``; a matching module scores
(query node, KB node) pairs.  Parameter sharing falls out of using the
same ``Module`` for both forward passes — gradients from both sides
accumulate into one weight bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..autograd import Module, Tensor, gather
from ..autograd import functional as F
from ..gnn import GAT, GCN, HAN, MAGNN, RGCN, GNNEncoder, GraphSAGE, HetGNN
from ..graph.schema import GraphSchema
from .matching import make_matcher

#: encoder variants of Table 3 (plus the GCN/GAT/HAN/HetGNN extensions)
VARIANTS = ("graphsage", "rgcn", "magnn", "gcn", "gat", "han", "hetgnn")

#: ``variant name -> builder(config, schema, common)`` — the encoder table
#: behind :func:`build_encoder`.  ``common`` carries the kwargs every
#: encoder shares (in_dim/hidden_dim/num_layers/rng).  New variants are
#: added through :func:`register_encoder` (re-exported as
#: ``repro.api.register_encoder``), not by editing a constructor chain.
ENCODER_BUILDERS: Dict[str, Callable[["ModelConfig", GraphSchema, dict], GNNEncoder]] = {}


def register_encoder(
    name: str, builder: Optional[Callable] = None
) -> Callable:
    """Register a GNN encoder builder under ``name``.

    Usable directly (``register_encoder("sage2", make_sage2)``) or as a
    decorator.  A registered variant is immediately valid in
    :class:`ModelConfig` and therefore constructible from a
    :class:`~repro.api.LinkerConfig`.  Duplicate names are rejected.
    """

    def _register(fn: Callable) -> Callable:
        if name in ENCODER_BUILDERS:
            raise ValueError(f"encoder variant {name!r} is already registered")
        ENCODER_BUILDERS[name] = fn
        return fn

    return _register(builder) if builder is not None else _register


def encoder_names() -> tuple:
    """All registered encoder variant names (built-ins first)."""
    return tuple(ENCODER_BUILDERS)


@dataclass
class ModelConfig:
    """Hyper-parameters, defaulting to Section 4.2's settings."""

    variant: str = "magnn"
    feature_dim: int = 128  # "embedding dimension to 128 for all methods"
    hidden_dim: int = 128
    num_layers: int = 3  # optimal for most datasets per Table 5
    num_heads: int = 2  # "number of attention heads to 2"
    attention_dim: int = 128  # "dimension of the attention vector to 128"
    dropout: float = 0.5  # "dropout rate to 0.5"
    matcher: str = "bilinear"  # Section 2.2 lists dot / MLP / log-bilinear
    lexical_skip: bool = True  # add initial-feature similarity to the score
    max_instances_per_node: int = 16
    max_metapaths: int = 12  # MAGNN: budget for data-driven selection
    metapaths: Optional[Sequence] = None  # MAGNN: explicit metapath set
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ENCODER_BUILDERS:
            raise ValueError(
                f"unknown variant {self.variant!r}; options: {encoder_names()}"
            )


@register_encoder("graphsage")
def _build_graphsage(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return GraphSAGE(dropout=config.dropout, **common)


@register_encoder("rgcn")
def _build_rgcn(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return RGCN(num_relations=schema.num_relations, dropout=config.dropout, **common)


@register_encoder("magnn")
def _build_magnn(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return MAGNN(
        schema=schema,
        metapaths=config.metapaths,
        num_heads=config.num_heads,
        attention_dim=config.attention_dim,
        dropout=config.dropout,
        max_instances_per_node=config.max_instances_per_node,
        **common,
    )


@register_encoder("gcn")
def _build_gcn(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return GCN(dropout=config.dropout, **common)


@register_encoder("gat")
def _build_gat(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return GAT(num_heads=config.num_heads, dropout=config.dropout, **common)


@register_encoder("han")
def _build_han(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return HAN(
        schema=schema,
        metapaths=config.metapaths,
        num_heads=config.num_heads,
        attention_dim=config.attention_dim,
        dropout=config.dropout,
        max_instances_per_node=config.max_instances_per_node,
        **common,
    )


@register_encoder("hetgnn")
def _build_hetgnn(config: ModelConfig, schema: GraphSchema, common: dict) -> GNNEncoder:
    return HetGNN(schema=schema, dropout=config.dropout, **common)


def build_encoder(config: ModelConfig, schema: GraphSchema, rng: np.random.Generator) -> GNNEncoder:
    """Instantiate the GNN encoder for a config + schema via the table."""
    try:
        builder = ENCODER_BUILDERS[config.variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {config.variant!r}; options: {encoder_names()}"
        ) from None
    common = dict(
        in_dim=config.feature_dim,
        hidden_dim=config.hidden_dim,
        num_layers=config.num_layers,
        rng=rng,
    )
    return builder(config, schema, common)


class EDGNN(Module):
    """Siamese GNN encoder + matching module.

    With ``lexical_skip`` the matching logit adds a learnable multiple of
    the *initial* feature similarity of the pair: the GNN contributes the
    structural evidence while the skip keeps the raw lexical evidence
    (mention surface vs entity name) undiluted by aggregation — the
    graph counterpart of GraphSAGE's per-layer self-concatenation.
    """

    def __init__(self, config: ModelConfig, schema: GraphSchema):
        super().__init__()
        self.config = config
        self.schema = schema
        rng = np.random.default_rng(config.seed)
        self.encoder = build_encoder(config, schema, rng)
        self.matcher = make_matcher(config.matcher, self.encoder.out_dim, rng)
        # Initialised sharp: raw cosine similarities live in [-1, 1], so a
        # unit scale would cap the sigmoid at ~0.73 and starve Eq. 5.
        self.lexical_scale = Tensor(np.full(1, 3.0, dtype=np.float32), requires_grad=True)

    # ------------------------------------------------------------------
    def compile(self, graph) -> Any:
        return self.encoder.compile(graph)

    def embed(self, compiled: Any, features: Tensor, edge_mask: Optional[Tensor] = None) -> Tensor:
        """Embed every node of a compiled graph (either side of the
        Siamese pair — the weights are shared by construction)."""
        return self.encoder.forward(compiled, features, edge_mask)

    def score_pairs(
        self,
        h_query: Tensor,
        query_ids: np.ndarray,
        h_ref: Tensor,
        ref_ids: np.ndarray,
        x_query: Optional[Tensor] = None,
        x_ref: Optional[Tensor] = None,
    ) -> Tensor:
        """Matching logits for aligned (query node, KB node) id arrays.

        ``x_query``/``x_ref`` are the initial feature matrices of the two
        graphs; when provided (and ``lexical_skip`` is on) the raw
        feature similarity joins the logit.  Training and the explainer
        score through this differentiable form; inference uses
        :meth:`score_one_vs_many`, the same logits in closed form.
        """
        query_ids = np.asarray(query_ids, dtype=np.int64)
        ref_ids = np.asarray(ref_ids, dtype=np.int64)
        if query_ids.shape != ref_ids.shape:
            raise ValueError("query_ids and ref_ids must align")
        from ..autograd.ops import rows_dot

        logits = self.matcher(gather(h_query, query_ids), gather(h_ref, ref_ids))
        if self.config.lexical_skip and x_query is not None and x_ref is not None:
            lexical = rows_dot(gather(x_query, query_ids), gather(x_ref, ref_ids))
            logits = logits + lexical * self.lexical_scale
        return logits

    def score_one_vs_many(
        self,
        h_query_row: np.ndarray,
        h_candidates: np.ndarray,
        x_query_row: np.ndarray,
        x_candidates: np.ndarray,
    ) -> np.ndarray:
        """Inference logits of one query node against ``[n, d]`` candidate
        rows: :meth:`score_pairs` over the query row tiled ``n`` times, in
        closed form (``Matcher.one_vs_many``), equal up to float32
        rounding.  ``x_*`` are the pair's initial features, for the
        lexical term.

        Every product's shape comes from this candidate set alone (a
        1-row ``q @ W``, then a GEMV over the rows), so a mention's scores
        do not depend on the other mentions of its batch.
        """
        logits = self.matcher.one_vs_many(h_query_row, h_candidates)
        if self.config.lexical_skip:
            logits = logits + (x_candidates @ x_query_row) * self.lexical_scale.data[0]
        return logits

    def pair_loss(self, logits: Tensor, labels: np.ndarray, pos_weight: float = 1.0) -> Tensor:
        """Eq. 5 — negative-sampling cross entropy over pair logits.

        ``pos_weight`` compensates the 1:k positive:negative imbalance of
        the sampled pairs; without it the class prior drags every logit
        negative and recall collapses.
        """
        return F.binary_cross_entropy_with_logits(logits, labels, pos_weight=pos_weight)
