"""Candidate-generation guard: sublinear retrieval vs the linear fuzzy scan.

Synthesises a large KB (200k entities in the full run — the scale where
the fuzzy oracle's O(N·d) name-matrix scan dominates candidate latency),
builds a typo'd/abbreviated mention corpus that misses the inverted
index, and compares the ``"indexed"`` generator against the
``"fuzzy"`` oracle on the same queries:

* **speedup** — end-to-end ``candidates_for`` time, oracle over indexed
  (``candidate_speedup_floor``: 5x full, 1.2x smoke).
* **recall@k** — the share of the oracle's fallback list (``_fallback``)
  the indexed generator's fallback list reproduces, averaged per query
  over the queries where the oracle's list is non-empty.  Scoring the
  fallback lists, not ``candidates_for``, matters: when a generator
  finds nothing, ``candidates_for`` returns every KB entity, which would
  count as full coverage.  Enforced in *both* modes
  (``CANDIDATE_RECALL_FLOOR``): recall is a correctness property.

The n-gram index runs with ``max_df_ratio=0.02`` — the stop-gram cap
tuned for 10^5-entity KBs (grams in >2% of a KB this size carry no
signal and own the most expensive postings lists).  Results merge into
the shared serving report under the ``"candidates"`` section.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

import numpy as np

from _shared import (
    CANDIDATE_RECALL_FLOOR,
    update_bench_report,
    candidate_speedup_floor,
)
from repro.core.candidates import FuzzyFallbackCandidateGenerator
from repro.datasets.synthesis import DatasetProfile, synthesize_kb
from repro.graph.index import InvertedIndex
from repro.graph.schema import extended_medical_schema
from repro.retrieval import IndexedCandidateGenerator, RetrievalConfig
from repro.text.embedder import HashingNgramEmbedder
from repro.text.variants import VariantKind, applicable_kinds, generate_variant

FULL_NODES = 200_000
SMOKE_NODES = 30_000
FULL_QUERIES = 300
SMOKE_QUERIES = 60
SEED = 11

# Capacity-safe type mix: Symptom/Finding/AdverseEffect share one base-name
# pool in the vocabulary, so their combined share must stay small; Drug and
# Procedure have the deepest namespaces and carry the bulk of the KB.
TYPE_MIX = {
    "Procedure": 0.50,
    "Drug": 0.32,
    "LabTest": 0.06,
    "Disease": 0.045,
    "Symptom": 0.04,
    "Finding": 0.025,
    "AdverseEffect": 0.01,
}

# Tuned ngram operating point for 10^5-entity KBs (see module docstring).
NGRAM_MAX_DF_RATIO = 0.02


def _build_kb(num_nodes: int):
    profile = DatasetProfile(
        name="bench-candidates",
        schema_factory=extended_medical_schema,
        num_nodes=num_nodes,
        num_edges=2 * num_nodes,
        num_snippets=10,
        type_mix=dict(TYPE_MIX),
    )
    return synthesize_kb(profile, np.random.default_rng(SEED))


def _mention_corpus(kb, index: InvertedIndex, names: List[str], count: int) -> List[str]:
    """Typo'd (70%) / abbreviated (30%) surfaces that miss the inverted
    index — exactly the mentions the fuzzy fallback exists for."""
    rng = np.random.default_rng(SEED + 31)
    corpus: List[str] = []
    while len(corpus) < count:
        node = int(rng.integers(0, kb.num_nodes))
        kind = VariantKind.TYPO if rng.random() < 0.7 else VariantKind.ABBREVIATION
        if kind not in applicable_kinds(names[node]):
            continue
        surface = generate_variant(names[node], kind, rng)
        if surface is None or index.lookup(surface):
            continue
        corpus.append(surface)
    return corpus


def _run_generator(gen, queries: List[str]) -> tuple:
    """Each query's fallback list (a pass that also warms the
    generator), then the seconds of one timed ``candidates_for`` pass."""
    fallbacks = [gen._fallback(s) for s in queries]
    start = time.perf_counter()
    for surface in queries:
        gen.candidates_for(surface)
    return time.perf_counter() - start, fallbacks


def _recall(oracle_lists, indexed_lists) -> tuple:
    """Mean per-query share of the oracle's fallback list that the
    indexed list holds, over the queries where the oracle's list is
    non-empty; plus how many queries were scored and how many of those
    the indexed generator answered with nothing."""
    shares = [
        len(set(want) & set(got)) / len(want)
        for want, got in zip(oracle_lists, indexed_lists)
        if want
    ]
    empty = sum(1 for want, got in zip(oracle_lists, indexed_lists) if want and not got)
    return (float(np.mean(shares)) if shares else 0.0), len(shares), empty


def run(args: argparse.Namespace) -> int:
    num_nodes = SMOKE_NODES if args.smoke else FULL_NODES
    num_queries = SMOKE_QUERIES if args.smoke else FULL_QUERIES
    mode = "smoke" if args.smoke else "full"
    speedup_floor = candidate_speedup_floor(args.smoke)

    print(f"synthesising {num_nodes} entity KB ({mode} mode)...")
    start = time.perf_counter()
    kb = _build_kb(num_nodes)
    print(f"  KB built in {time.perf_counter() - start:.1f}s")

    embedder = HashingNgramEmbedder(dim=128)
    index = InvertedIndex(kb)
    names = [kb.node_name(v) for v in range(kb.num_nodes)]
    start = time.perf_counter()
    name_matrix = embedder.embed_batch(names)
    print(f"  name matrix embedded in {time.perf_counter() - start:.1f}s")
    queries = _mention_corpus(kb, index, names, num_queries)

    oracle = FuzzyFallbackCandidateGenerator(
        kb, index=index, embedder=embedder, name_matrix=name_matrix
    )
    config = RetrievalConfig(max_df_ratio=NGRAM_MAX_DF_RATIO)
    start = time.perf_counter()
    indexed = IndexedCandidateGenerator(
        kb,
        index=index,
        embedder=embedder,
        name_matrix=name_matrix,
        retrieval=config,
    )
    print(f"  ngram index built in {time.perf_counter() - start:.1f}s")

    oracle_elapsed, oracle_lists = _run_generator(oracle, queries)
    oracle_ms = 1000.0 * oracle_elapsed / len(queries)
    print(f"oracle (linear fuzzy scan): {oracle_ms:.2f} ms/query")

    elapsed, indexed_lists = _run_generator(indexed, queries)
    ms = 1000.0 * elapsed / len(queries)
    speedup = oracle_elapsed / elapsed
    recall, scored, empty = _recall(oracle_lists, indexed_lists)
    identical = sum(int(o == g) for o, g in zip(oracle_lists, indexed_lists))
    print(
        f"ngram: {ms:.2f} ms/query  speedup {speedup:.2f}x  recall {recall:.4f} "
        f"over {scored} queries ({empty} answered empty)  "
        f"identical {identical}/{len(queries)}"
    )

    failures: List[str] = []
    if speedup < speedup_floor:
        failures.append(f"ngram speedup {speedup:.2f}x below floor {speedup_floor:.2f}x")
    if not scored:
        failures.append("the oracle found candidates for no query; recall is unmeasured")
    elif recall < CANDIDATE_RECALL_FLOOR:
        failures.append(
            f"ngram recall {recall:.4f} below floor {CANDIDATE_RECALL_FLOOR:.2f}"
        )

    payload = {
        "mode": mode,
        "num_nodes": num_nodes,
        "num_queries": len(queries),
        "oracle_ms_per_query": round(oracle_ms, 3),
        "ms_per_query": round(ms, 3),
        "speedup": round(speedup, 3),
        "speedup_floor": speedup_floor,
        "recall": round(recall, 4),
        "recall_floor": CANDIDATE_RECALL_FLOOR,
        "recall_queries": scored,
        "empty_fallbacks": empty,
        "identical": identical,
        "config": config.to_dict(),
    }
    update_bench_report(args.report, "candidates", payload)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all candidate-retrieval floors met")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small KB + loose speedup floor for CI smoke runs",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="JSON report path to merge the 'candidates' section into",
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
