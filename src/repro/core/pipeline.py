"""End-to-end medical entity disambiguation pipeline (Figure 2).

``EDPipeline`` owns everything between raw text and a ranked list of KB
entities: the inverted index, the simulated NER, the hashing embedder,
query-graph construction, the Siamese model, training, and inference.
It is the public API the examples and benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..graph.batch import batch_graphs
from ..graph.hetero import HeteroGraph
from ..graph.index import InvertedIndex
from ..text.corpus import MentionAnnotation, Snippet, mint_cui
from ..text.embedder import HashingNgramEmbedder, node_features_for_graph
from ..text.ner import DictionaryNER
from .candidates import ExactCandidateGenerator, FuzzyFallbackCandidateGenerator
from .model import EDGNN, ModelConfig
from .query_graph import QueryGraph, build_query_graph, build_query_graphs, with_related_relation
from .trainer import EDGNNTrainer, TrainConfig, TrainResult


@dataclass
class Prediction:
    """Ranked disambiguation result for one mention."""

    mention: str
    ranked_entities: List[int]
    scores: List[float]

    def top(self) -> int:
        return self.ranked_entities[0]

    @classmethod
    def from_ranking(cls, mention: str, ranking: "Ranking", top_k: int) -> "Prediction":
        """The first ``top_k`` entries of a :func:`rank` result; only
        those are turned into Python values."""
        ranked_ids, ranked_scores = ranking
        return cls(mention, ranked_ids[:top_k].tolist(), ranked_scores[:top_k].tolist())


#: ``(candidate ids, scores)``, best first, as :func:`rank` returns them
Ranking = Tuple[np.ndarray, np.ndarray]


def rank(candidate_ids: np.ndarray, scores: np.ndarray) -> Ranking:
    """Ranking stage: candidates and their scores sorted by descending
    score; tied candidates keep their candidate-set order."""
    order = np.argsort(-scores, kind="stable")
    return np.asarray(candidate_ids)[order], scores[order]


def check_top_k(top_k: int) -> int:
    """``top_k`` if it asks for at least one ranked entity; a cut below
    1 would slice the ranking from the end (or empty it), so it raises."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return top_k


class EDPipeline:
    """Text snippet -> query graph -> Siamese GNN -> ranked KB entities.

    The stages are pluggable: ``candidate_generator`` and ``ner`` accept
    component *factories* called as ``factory(kb, index=..., embedder=...)``
    — usually registry entries resolved by
    :meth:`repro.api.Linker.from_config`.
    """

    def __init__(
        self,
        kb: HeteroGraph,
        model_config: Optional[ModelConfig] = None,
        train_config: Optional[TrainConfig] = None,
        augment_query_graphs: bool = True,
        embedder: Optional[HashingNgramEmbedder] = None,
        candidate_generator: Optional[Callable] = None,
        ner: Optional[Callable] = None,
    ):
        self.kb = kb
        self.model_config = model_config or ModelConfig()
        self.train_config = train_config or TrainConfig()
        self.augment = augment_query_graphs
        self.embedder = embedder or HashingNgramEmbedder(dim=self.model_config.feature_dim)
        if self.embedder.dim != self.model_config.feature_dim:
            raise ValueError("embedder dim must equal model feature_dim")

        # Schema shared by KB and query graphs (RELATED-extended).
        self.schema = with_related_relation(kb.schema)
        if kb.schema is not self.schema and len(kb.schema.relations) != len(self.schema.relations):
            # KB built on the raw schema: rebuild is unnecessary — relation
            # ids are a prefix of the extended schema, so we can just swap
            # the schema reference (ids stay valid).
            kb.schema = self.schema
        if kb.features is None or kb.features.shape[1] != self.model_config.feature_dim:
            kb.set_features(node_features_for_graph(kb, self.embedder))

        self.index = InvertedIndex(kb)
        if candidate_generator is None:
            candidate_generator = ExactCandidateGenerator
        self.candidate_generator = candidate_generator(
            kb, index=self.index, embedder=self.embedder
        )
        ner_factory = ner if ner is not None else DictionaryNER
        self.ner = ner_factory(kb, index=self.index)
        if self.model_config.variant in ("magnn", "han") and self.model_config.metapaths is None:
            # Data-driven metapath curation from the KB (MAGNN/HAN use a
            # small hand-picked set per dataset in the original papers).
            from ..graph.metapath import select_metapaths

            self.model_config.metapaths = select_metapaths(
                kb, max_metapaths=self.model_config.max_metapaths
            )
        self.model = EDGNN(self.model_config, self.schema)
        self.trainer: Optional[EDGNNTrainer] = None
        self._ref_compiled = None
        self._h_ref: Optional[np.ndarray] = None

    @property
    def fuzzy_candidates(self) -> bool:
        """Whether the generator widens index misses with fuzzy retrieval
        (legacy checkpoint field; the component itself is authoritative)."""
        return isinstance(self.candidate_generator, FuzzyFallbackCandidateGenerator)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def build_query_graphs(self, snippets: Sequence[Snippet]) -> List[QueryGraph]:
        return build_query_graphs(
            snippets, self.kb, self.index, self.embedder,
            augment=self.augment, schema=self.schema,
        )

    def fit(
        self,
        train_snippets: Sequence[Snippet],
        val_snippets: Sequence[Snippet],
        test_snippets: Sequence[Snippet],
    ) -> TrainResult:
        """Train on snippet splits; returns the trainer's result bundle."""
        self.trainer = EDGNNTrainer(
            self.model,
            self.kb,
            self.build_query_graphs(train_snippets),
            self.build_query_graphs(val_snippets),
            self.build_query_graphs(test_snippets),
            config=self.train_config,
        )
        result = self.trainer.fit()
        self._h_ref = None  # force re-embedding with the trained weights
        return result

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def ref_embeddings(self) -> np.ndarray:
        """KB node embeddings under the current weights, computed once and
        cached until :meth:`invalidate_ref_cache` (or :meth:`fit`) runs."""
        if self._h_ref is None:
            self.model.eval()
            if self._ref_compiled is None:
                self._ref_compiled = self.model.compile(self.kb)
            with no_grad():
                self._h_ref = self.model.embed(
                    self._ref_compiled, Tensor(self.kb.features)
                ).data
        return self._h_ref

    def invalidate_ref_cache(self) -> None:
        """Drop cached KB embeddings (call after mutating weights or KB)."""
        self._h_ref = None
        self._ref_compiled = None

    def snippet_from_text(self, text: str, ambiguous_surface: Optional[str] = None) -> Snippet:
        """Run the (simulated) NER over raw text and assemble a snippet.

        ``ambiguous_surface`` picks the mention to disambiguate; by
        default the first ambiguous/unknown mention is chosen.
        """
        mentions = self.ner.extract(text)
        if not mentions:
            raise ValueError("NER found no entity mentions in the text")
        annotations = []
        ambiguous_index = None
        for i, m in enumerate(mentions):
            gold = ""
            if m.is_linked:
                gold = mint_cui(m.candidates[0])
            category = m.type_guess or (m.candidate_types[0] if m.candidate_types else self.schema.node_types[0])
            annotations.append(
                MentionAnnotation(m.surface, m.start, m.end, category, gold)
            )
            if ambiguous_surface is not None:
                if m.surface.lower() == ambiguous_surface.lower():
                    ambiguous_index = i
            elif ambiguous_index is None and not m.is_linked:
                ambiguous_index = i
        if ambiguous_index is None:
            ambiguous_index = 0
        # The ambiguous mention's gold is unknown at inference time.
        target = annotations[ambiguous_index]
        annotations[ambiguous_index] = MentionAnnotation(
            target.mention, target.start_offset, target.end_offset, target.category, ""
        )
        return Snippet(text=text, mentions=annotations, ambiguous_index=ambiguous_index)

    def disambiguate(
        self,
        text: str,
        ambiguous_surface: Optional[str] = None,
        top_k: int = 5,
        restrict_to_candidates: bool = True,
    ) -> Prediction:
        """Link one mention of a raw text snippet to the KB.

        With ``restrict_to_candidates`` the ranking is over the index's
        candidate set for the surface (falling back to type-compatible
        entities, then the whole KB); otherwise over the whole KB.
        """
        snippet = self.snippet_from_text(text, ambiguous_surface)
        return self.disambiguate_snippet(snippet, top_k, restrict_to_candidates)

    def candidate_ids(
        self,
        surface: str,
        category: Optional[str] = None,
        restrict_to_candidates: bool = True,
    ) -> np.ndarray:
        """Candidate-generation stage: KB node ids to rank for a surface.

        Delegates to the pluggable ``candidate_generator`` component (the
        ``"exact"`` index lookup by default, ``"fuzzy"`` widening misses
        with approximate retrieval).  Separated from
        :meth:`disambiguate_snippet` so the serving layer can generate
        candidates in bulk before a batched forward.
        """
        return self.candidate_generator.candidates_for(
            surface, category=category, restrict_to_candidates=restrict_to_candidates
        )

    def build_query_graph_for(self, snippet: Snippet) -> QueryGraph:
        """Query-graph-construction stage for a single snippet."""
        return build_query_graph(
            snippet, self.kb, self.index, self.embedder,
            augment=self.augment, schema=self.schema,
        )

    def score_candidates(
        self,
        query_graphs: Sequence[QueryGraph],
        candidate_sets: Sequence[np.ndarray],
        h_ref: Optional[np.ndarray] = None,
        x_ref: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Scoring stage: the matching logits of each query graph's "?"
        node against its candidate set (global KB node ids), from one
        query-side forward for the whole batch, then
        :meth:`EDGNN.score_one_vs_many` per mention over its own gathered
        candidate rows of ``h_ref``/``x_ref`` — the trainer's
        ``score_pairs`` logits in closed form.

        Union-batchable encoders embed the batch as one disjoint union
        (it has no cross-graph edges, so message passing never mixes
        graphs); graph-global encoders (MAGNN/HAN) embed per graph.
        ``h_ref``/``x_ref`` default to this pipeline's KB embeddings and
        features.  A batch of one gives the sequential bits; in a larger
        union the float32 sums of the forward may round differently in
        the last bits.  The scoring itself never mixes mentions.
        """
        model = self.model
        h_ref = self.ref_embeddings() if h_ref is None else h_ref
        x_ref = self.kb.features if x_ref is None else x_ref
        model.eval()
        with no_grad():
            if model.encoder.union_batchable:
                union, offsets = batch_graphs([qg.graph for qg in query_graphs])
                mentions = [offset + qg.mention_node for offset, qg in zip(offsets, query_graphs)]
                h_qry = model.embed(model.compile(union), Tensor(union.features)).data[mentions]
                x_qry = union.features[mentions]
            else:
                h_qry, x_qry = [], []
                for qg in query_graphs:
                    g = qg.graph
                    h = model.embed(model.compile(g), Tensor(g.features)).data
                    h_qry.append(h[qg.mention_node])
                    x_qry.append(g.features[qg.mention_node])
        scored = []
        for h_row, x_row, candidates in zip(h_qry, x_qry, candidate_sets):
            ids = np.asarray(candidates, dtype=np.int64)
            scored.append(model.score_one_vs_many(h_row, h_ref[ids], x_row, x_ref[ids]))
        return scored

    def disambiguate_snippet(
        self,
        snippet: Snippet,
        top_k: int = 5,
        restrict_to_candidates: bool = True,
    ) -> Prediction:
        check_top_k(top_k)
        qg = self.build_query_graph_for(snippet)
        candidate_ids = self.candidate_ids(
            qg.mention_surface,
            category=snippet.ambiguous_mention.category,
            restrict_to_candidates=restrict_to_candidates,
        )
        [scores] = self.score_candidates([qg], [candidate_ids])
        return Prediction.from_ranking(qg.mention_surface, rank(candidate_ids, scores), top_k)

    def entity_name(self, entity_id: int) -> str:
        return self.kb.node_name(entity_id)
