"""Spans around the program's public calls, recorded from outside.

:func:`install` wraps the public functions and methods each layer is
entered through; no file of the program changes.  A
span carries its name, start, end and parent (the span open on the same
thread when it began).  Spans stay in memory; :meth:`Tracer.summary`
turns them into the per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def busy_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per layer, the summed duration of its outermost spans (a span
    nested in another span of the same layer is not counted twice)."""
    by_id = {span.id: span for span in spans}
    busy: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if layer_of(parent.name) == layer:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            busy[layer] = busy.get(layer, 0.0) + (span.end - span.start)
    return busy


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def __post_init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self._submitted: Dict[int, float] = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name``; ``before(args)`` runs
        at entry and ``after(args, result)`` at exit, inside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                if before is not None:
                    before(args, start)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent))

        return traced

    # -- patching ------------------------------------------------------
    def patch_attr(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            patched = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            patched = self.wrap(name, original, **hooks)
        setattr(owner, attr, patched)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it,
        so calls through ``from x import fn`` are traced too."""
        patched = self.wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, patched)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the scheduler's queue wait --------------------------------------
    def _on_submit(self, args, start) -> None:
        self._submitted[id(args[1])] = start

    def _on_link_batch(self, args, start) -> None:
        snippets = args[1]
        submitted = [self._submitted.pop(id(s), None) for s in snippets]
        submitted = [t for t in submitted if t is not None]
        self._local.submitted = submitted
        if submitted:
            self.count("scheduler.batches")
            self.count("scheduler.batched", len(snippets))
            for t in submitted:
                self.sample("scheduler.queue_wait_ms", (start - t) * 1000.0)

    def _after_link_batch(self, args, result) -> None:
        """Scheduler time of each queued request: submit to result."""
        now = time.perf_counter()
        for t in getattr(self._local, "submitted", ()):
            self.sample("scheduler.sojourn_ms", (now - t) * 1000.0)
            self.sample("scheduler.sojourn_end", now)

    # -- summary ---------------------------------------------------------
    def summary(self, wall_s: float) -> Dict[str, float]:
        """Raw per-layer figures: calls and busy/self seconds per span
        name and layer, plus the counters and sample lists."""
        spans = list(self.spans)
        selfs = self_times(spans)
        out: Dict[str, float] = {}
        for span in spans:
            out[f"calls.{span.name}"] = out.get(f"calls.{span.name}", 0) + 1
            out[f"dur.{span.name}"] = out.get(f"dur.{span.name}", 0.0) + (span.end - span.start)
            out[f"self.{span.name}"] = out.get(f"self.{span.name}", 0.0) + selfs[span.id]
        for layer, busy in busy_times(spans).items():
            out[f"busy.{layer}"] = busy
        roots = sum(span.end - span.start for span in spans if span.parent < 0)
        out["trace.spans"] = len(spans)
        out["trace.root_s"] = roots
        out["trace.wall_s"] = wall_s
        out.update(self.counters)
        return {"figures": out, "samples": dict(self.samples)}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.autograd.optim import Adam
    from repro.autograd.tensor import Tensor
    from repro.core import query_graph as qg_module
    from repro.core.model import EDGNN
    from repro.core.negative_sampling import NegativeSampler
    from repro.core.pipeline import EDPipeline
    from repro.core.trainer import EDGNNTrainer
    from repro.graph.batch import batch_graphs
    from repro.retrieval.base import RetrievalIndex
    from repro.serving.scheduler import AsyncLinkingService
    from repro.serving.service import LinkingService
    from repro.serving.wire import LinkRequest, LinkResponse

    t = tracer
    t.patch_function(
        qg_module.build_query_graph, "query_graph:build",
        after=lambda args, qg: t.count("query_graph.nodes", qg.graph.num_nodes),
    )
    t.patch_function(qg_module.build_query_graphs, "query_graph:build_many")
    t.patch_attr(
        EDPipeline, "candidate_ids", "candidates:candidate_ids",
        after=lambda args, ids: t.count("candidates.size", len(ids)),
    )
    for cls in _subclasses(RetrievalIndex):
        if "query" in cls.__dict__:
            t.patch_attr(
                cls, "query", "retrieval:query",
                after=lambda args, ids: t.count("retrieval.shortlist", len(ids)),
            )
    t.patch_function(batch_graphs, "batch:batch_graphs")
    t.patch_attr(EDGNN, "embed", "gnn:embed")
    t.patch_attr(EDGNN, "compile", "gnn:compile")
    t.patch_attr(
        EDGNN, "score_pairs", "matching:score_pairs",
        after=lambda args, logits: t.count("matching.pairs", len(logits.data)),
    )
    t.patch_attr(LinkingService, "link_batch", "service:link_batch",
                 before=t._on_link_batch, after=t._after_link_batch)
    t.patch_attr(AsyncLinkingService, "submit", "scheduler:submit", before=t._on_submit)
    t.patch_attr(LinkRequest, "from_json", "wire:decode")
    t.patch_attr(LinkResponse, "to_json", "wire:encode")
    t.patch_attr(LinkingService, "refresh", "storage:refresh")
    t.patch_attr(EDPipeline, "ref_embeddings", "storage:ref_embeddings")
    t.patch_attr(EDPipeline, "__init__", "pipeline:init")
    t.patch_attr(EDGNNTrainer, "train_epoch", "trainer:epoch")
    t.patch_attr(EDGNNTrainer, "evaluate", "trainer:evaluate")
    t.patch_attr(NegativeSampler, "sample", "negative_sampling:sample")
    t.patch_attr(Tensor, "backward", "autograd:backward")
    t.patch_attr(Adam, "step", "autograd:step")
    return tracer


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
