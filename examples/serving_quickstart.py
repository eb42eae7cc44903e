"""Serving quickstart: one Linker, every serving frontend.

Builds a small ED-GNN from a declarative :class:`repro.api.LinkerConfig`
(the service section included), trains it, links the test split through
the batched :class:`repro.serving.LinkingService`, replays it to show
the LRU result cache, saves a self-describing checkpoint, then serves
the same stream through the deadline-aware
:class:`repro.serving.AsyncLinkingService` and prints latency
percentiles alongside the service stats.

A final pair of sections packs the KB into an mmap bundle
(:func:`repro.storage.pack_bundle`) and serves from it with
``StorageConfig(kb_store="mmap")`` — startup memory-maps the feature and
embedding matrices instead of recomputing them, and N serving processes
on one host share a single page-cached copy — then packs a sublinear
candidate-retrieval index into the same bundle and serves typo'd
mentions through the ``"indexed"`` generator, which memory-maps the
packed postings instead of scanning every entity name per index miss.

The same paths are reachable from the CLI:

    repro config dump --variant graphsage > linker.json
    repro train --dataset NCBI --config linker.json --out CKPT
    repro serve --checkpoint CKPT --async --deadline-ms 25
    cat snippets.jsonl | repro serve --checkpoint CKPT --input - --async
    repro kb pack --checkpoint CKPT --out BUNDLE --with-index
    repro serve --checkpoint CKPT --kb-bundle BUNDLE --candidates indexed

Run:  PYTHONPATH=src python examples/serving_quickstart.py
"""

import tempfile
from dataclasses import replace

import numpy as np

from repro.api import Linker, LinkerConfig
from repro.core import ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.retrieval import build_retrieval_index
from repro.serving import ServiceConfig
from repro.storage import StorageConfig, pack_bundle
from repro.text.corpus import Snippet
from repro.text.variants import make_typo


def main() -> None:
    # 1. One declarative config describes the whole linker — model,
    #    training, serving knobs, and the named pipeline components.
    config = LinkerConfig(
        model=ModelConfig(variant="graphsage", num_layers=2, seed=0),
        train=TrainConfig(epochs=20, patience=10, seed=0),
        service=ServiceConfig(max_batch_size=32, cache_size=1024, top_k=3),
        candidate_generator="exact",  # or "fuzzy" for typo-tolerant retrieval
    )
    dataset = load_dataset("NCBI", scale=0.3)
    linker = Linker.from_config(config, dataset.kb)
    result = linker.fit(dataset.train, dataset.val, dataset.test)
    print(f"trained: test F1 {result.test.f1:.3f} (best epoch {result.best_epoch})")

    # 2. `serve()` hands out a ready LinkingService built from the
    #    config's service section.  KB embeddings are computed once here
    #    and reused for every request.
    service = linker.serve()

    # 3. One batched call links the whole split.
    predictions = service.link_batch(dataset.test)
    correct = 0
    for snippet, prediction in zip(dataset.test, predictions):
        gold = int(snippet.ambiguous_mention.link_id[1:])
        correct += prediction.top() == gold
    print(f"linked {len(predictions)} mentions, top-1 hits gold on {correct}")

    for snippet, prediction in zip(dataset.test[:3], predictions[:3]):
        print(f"\n  {snippet.text!r}")
        print(f"  mention {prediction.mention!r}:")
        for entity, score in zip(prediction.ranked_entities, prediction.scores):
            print(f"    {score:7.3f}  {linker.entity_name(entity)}")

    # 4. Replay the stream: every mention now hits the result cache.
    service.link_batch(dataset.test)

    # 5. Raw texts go through the (simulated) NER first.
    texts = [
        "Aspirin can cause nausea indicating a potential ARF, "
        "nephrotoxicity, and proteinuria"
    ]
    for prediction in service.link_texts(texts):
        print(f"\nfree text mention {prediction.mention!r} -> "
              f"{linker.entity_name(prediction.top())!r}")

    print()
    print(service.stats.format())

    # 6. Checkpoints are self-describing: the directory carries the full
    #    LinkerConfig (linker.json), so load needs nothing else —
    #    predictions are bit-identical to the in-memory linker.
    with tempfile.TemporaryDirectory() as ckpt:
        linker.save(ckpt)
        reloaded = Linker.load(ckpt)
        replayed = reloaded.serve(cache_size=0).link_batch(dataset.test[:8])
        assert [p.ranked_entities for p in replayed] == [
            p.ranked_entities for p in predictions[:8]
        ]
        print(f"\ncheckpoint round-trip OK ({ckpt} while it lasted)")

    # 7. Async serving: requests go onto a queue; micro-batches form when
    #    full OR when the oldest request's deadline budget is up, so a
    #    trickle of traffic is never stalled behind a fixed batch size.
    #    Predictions stay identical to the sequential pipeline.
    with linker.serve(async_=True, deadline_ms=25.0, cache_size=0) as async_service:
        futures = [async_service.submit(snippet) for snippet in dataset.test]
        async_predictions = [f.result() for f in futures]
        assert [p.ranked_entities for p in async_predictions] == [
            p.ranked_entities for p in predictions
        ]
        stats = async_service.stats
        print(
            f"\nasync: {len(async_predictions)} mentions, "
            f"p50 {stats.latency_percentile(50):.1f}ms / "
            f"p95 {stats.latency_percentile(95):.1f}ms latency, "
            f"p95 queue wait {stats.queue_wait_percentile(95):.1f}ms"
        )

    # 8. Pluggable KB storage: `repro kb pack` (here: pack_bundle) writes
    #    the feature + reference-embedding matrices as .npy files with a
    #    fingerprinted manifest.  Serving from the bundle with
    #    kb_store="mmap" memory-maps both matrices read-only — startup
    #    skips the KB embedding forward entirely, and every serving
    #    process on the host shares one page-cached copy.  Rankings stay
    #    bit-identical to every other configuration.
    with tempfile.TemporaryDirectory() as bundle:
        pack_bundle(linker.pipeline, bundle)
        mmap_service = linker.serve(
            cache_size=0,
            storage=StorageConfig(kb_store="mmap", bundle_path=bundle),
        )
        try:
            mmap_predictions = mmap_service.link_batch(dataset.test)
            assert [p.ranked_entities for p in mmap_predictions] == [
                p.ranked_entities for p in predictions
            ]
            snapshot = mmap_service.stats.to_dict()
            print(
                f"\nmmap bundle: {len(mmap_predictions)} mentions re-linked identically "
                f"(backend={snapshot['storage_backend']})"
            )
        finally:
            mmap_service.close()

    # 9. Sublinear candidate retrieval: `repro kb pack --with-index`
    #    (here: pack_bundle(retrieval_index=...)) adds a char-n-gram
    #    postings index to the bundle, and the "indexed" candidate
    #    generator memory-maps it — an index miss (a typo'd mention)
    #    costs a shortlist lookup plus an exact rerank of that shortlist
    #    instead of a dense scan over every entity name.  The fuzzy
    #    generator stays the correctness oracle: when the shortlist holds
    #    the rows the oracle edit-filters, candidates are identical.
    with tempfile.TemporaryDirectory() as bundle:
        retrieval = replace(linker.config.retrieval, bundle_path=bundle)
        pack_bundle(
            linker.pipeline,
            bundle,
            retrieval_index=build_retrieval_index(linker.pipeline.kb, retrieval),
        )
        linker.use_candidate_generator("indexed", retrieval=retrieval)
        indexed_service = linker.serve(cache_size=0)
        try:
            # Typo the ambiguous mention of a gold snippet: the inverted
            # index misses it, so the request takes the shortlist path.
            base = dataset.test[0]
            gold_mention = base.ambiguous_mention
            typo_surface = make_typo(gold_mention.mention, np.random.default_rng(0))
            mentions = list(base.mentions)
            mentions[base.ambiguous_index] = replace(
                gold_mention, mention=typo_surface
            )
            typo_snippet = Snippet(
                text=base.text.replace(gold_mention.mention, typo_surface),
                mentions=mentions,
                ambiguous_index=base.ambiguous_index,
            )
            for prediction in indexed_service.link_batch([typo_snippet]):
                print(
                    f"\ntypo'd mention {prediction.mention!r} "
                    f"(was {gold_mention.mention!r}) -> "
                    f"{linker.entity_name(prediction.top())!r} "
                    "(via the packed n-gram index)"
                )
            snapshot = indexed_service.stats.to_dict()
            print(
                f"candidate stage: generator={snapshot['candidate_generator']}, "
                f"{snapshot['candidate_index_hits']} index hits, "
                f"{snapshot['candidate_fallbacks']} shortlist fallbacks"
            )
        finally:
            indexed_service.close()


if __name__ == "__main__":
    main()
