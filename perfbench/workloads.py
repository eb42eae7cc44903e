"""The four workloads.  Each returns a :class:`RunResult` whose
``values`` hold every end-to-end metric (timed run) or every per-layer
metric (traced run).

* ``ncbi-batch`` / ``mdx-rerank``: a seeded order of a fixed snippet
  corpus through ``LinkingService.link_batch`` (result cache off) in
  fixed-size calls.
* ``mdx-http``: ``repro serve --http`` in its own process, driven by the
  open- and closed-loop client in :mod:`loadgen`.
* ``ncbi-train``: ``Linker.fit`` with a fixed epoch budget.

Preparing inputs (checkpoints, bundle, corpora and their reference
rankings) happens in ``prepare.py`` and is never inside a timed phase.
The host these runs share swings the speed of identical work by 30-70 %
over seconds, so where a workload can repeat identical work (a pass over
the stream, a fit) each piece's fastest repetition is reported: its time
on a quiet host.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import gc
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List

import common
import loadgen
import metrics
import tracer as tracing

CALL_SIZE = 32  # snippets per link_batch call (the service's micro-batch)
MIN_PASSES = 3
REFERENCE_SLICE = {"NCBI": 300, "MDX": 150}
TRACE_PASSES = {"NCBI": 6, "MDX": 2}
TRAIN_EPOCHS = 10  # short fits, so a run holds enough of them to take minima
SETUPS_PER_FIT = 4  # set-ups timed before each fit, the fit's own included
MIN_FITS = 3
HTTP_SETUP_REPS = 3
#: Request popularity: Breslau et al., "Web Caching and Zipf-like
#: Distributions: Evidence and Implications" (INFOCOM 1999) fit Zipf
#: exponents of 0.64-0.83 to web proxy traces; 0.8 is the top of that range.
HTTP_ZIPF = 0.8
HTTP_WARM = 1024  # the most popular snippets, sent to each server before timing
HTTP_PHASES = {"low": (210, 4), "high": (200, 4), "sat": (3000, 4)}
#: Documents/s, never recalibrated.  ``low`` runs at 20/s rather than 15/s
#: so that its 210 documents (10 beyond p95) take 10.5 s, not 14 s, and
#: leave the closed-loop phase time inside one run.
LOW_RATE = 20.0
HIGH_RATE = 35.0
TRACE_SAT_DOCS = 300


@dataclass
class RunResult:
    values: Dict[str, float]
    attempted: int
    failed: int
    correct: bool


def _note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _reference(row):
    """A corpus row's reference ranking: (ids, scores, next_score)."""
    return row["ids"], row["scores"], row["next_score"]


def _mismatches(served, reference, what: str) -> int:
    """Count served (ids, scores) rankings that differ from the reference
    ``disambiguate_snippet`` ones."""
    bad = 0
    for (ids, scores), (ref_ids, ref_scores, ref_next) in zip(served, reference):
        if not common.same_ranking(ids, scores, ref_ids, ref_scores, ref_next):
            bad += 1
            if bad <= 3:
                _note(f"{what}: served ranking {ids} differs from "
                             f"disambiguate_snippet's {ref_ids}")
    return bad


def _settled_rss() -> float:
    """This process's resident MiB once garbage is collected and the C
    allocator has handed its free pages back (glibc ``malloc_trim``): the
    live footprint, not what earlier frees happened to leave mapped."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    return common.rss_mb()


@contextlib.contextmanager
def _traced():
    tracer = tracing.install(tracing.Tracer())
    try:
        yield tracer
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# ncbi-batch and mdx-rerank
# ----------------------------------------------------------------------
def _load_service(ckpt):
    from repro.api import Linker

    linker = Linker.load(str(ckpt))
    return linker, linker.serve(cache_size=0)


def _passes(service, stream, deadline=None, passes=0):
    """Whole passes over ``stream`` in CALL_SIZE calls, at least
    ``passes`` of them and more until ``deadline``; yields the seconds
    of every call of a pass and the pass's rankings."""
    done = 0
    while done < passes or (deadline is not None and deadline.left() > 0):
        calls, out = [], []
        for i in range(0, len(stream), CALL_SIZE):
            t0 = perf_counter()
            predictions = service.link_batch(stream[i : i + CALL_SIZE])
            calls.append(perf_counter() - t0)
            out.extend((p.ranked_entities, p.scores) for p in predictions)
        yield calls, out
        done += 1


def batch(kb_name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    import numpy as np
    from repro.text.corpus import Snippet

    ckpt = common.prepare("checkpoint", kb_name)
    # The seed orders the calls; their make-up is fixed, so each call's
    # cost, and the latency percentiles over calls, do not move with it.
    rows = common.load_corpus(kb_name.lower())
    calls = [rows[i : i + CALL_SIZE] for i in range(0, len(rows), CALL_SIZE)]
    order = np.random.default_rng([seed, 4]).permutation(len(calls))
    rows = [row for i in order for row in calls[i]]
    stream = [Snippet.from_dict(r["snippet"]) for r in rows]
    reference = [_reference(r) for r in rows]

    setups: List[float] = []

    def set_up():
        gc.collect()
        t0 = perf_counter()
        loaded = _load_service(ckpt)
        setups.append(perf_counter() - t0)
        return loaded

    linker, service = set_up()
    service.link_batch(stream[:CALL_SIZE])  # warm-up, untimed

    if trace:
        return _batch_traced(kb_name, ckpt, linker, service, stream, reference)

    deadline = common.Deadline(seconds)
    per_pass, mismatches, first = [], 0, None
    for calls, served in _passes(service, stream, deadline, MIN_PASSES):
        per_pass.append(calls)
        mismatches += _mismatches(served, reference, kb_name)
        first = first or served
        # One more set-up after each pass, so the samples spread over the
        # whole run rather than one moment of the shared host.
        set_up()[1].close()
    rss = _settled_rss()
    service.close()
    # Every pass replays the same calls, so each call's fastest pass is
    # its time on a quiet host; the spread over calls is the content's.
    # The percentiles run over one value per call (44 NCBI, 28 MDX): too
    # few for ten beyond p95, which is a near-maximum here (the 42nd of
    # 44, the 27th of 28).
    fastest = [min(times) * 1000.0 for times in zip(*per_pass)]
    hits = sum(ids[0] == r["gold"] for (ids, _), r in zip(first, rows))
    values = {
        "throughput_mps": len(stream) / (sum(fastest) / 1000.0),
        "latency_p50_ms": common.percentile(fastest, 50),
        "latency_p95_ms": common.percentile(fastest, 95),
        "setup_s": common.median(setups),
        "rss_mb": rss,
        "quality": hits / len(stream),
    }
    return RunResult(values, len(stream) * len(per_pass), 0, mismatches == 0)


def _batch_traced(kb_name, ckpt, linker, service, stream, reference) -> RunResult:
    sample = stream[: REFERENCE_SLICE[kb_name]]
    t0 = perf_counter()
    for snippet in sample:
        linker.disambiguate_snippet(snippet, top_k=common.TOP_K)
    sequential_mps = len(sample) / (perf_counter() - t0)

    def timed_passes():
        """Wall time of TRACE_PASSES passes, and each pass's rankings."""
        t0 = perf_counter()
        served = [out for _, out in _passes(service, stream, passes=TRACE_PASSES[kb_name])]
        return perf_counter() - t0, served

    for _ in _passes(service, stream, passes=1):  # warm-up, untimed
        pass
    untraced, _ = timed_passes()
    generator = linker.pipeline.candidate_generator
    hits0, fallbacks0 = generator.index_hits, generator.fallback_hits
    cache0 = (service.stats.cache_hits, service.stats.cache_misses)
    with _traced() as tracer:
        traced, served = timed_passes()
    mismatches = sum(_mismatches(out, reference, kb_name) for out in served)
    service.close()
    index_hits = generator.index_hits - hits0
    fallbacks = generator.fallback_hits - fallbacks0
    cache_hits = service.stats.cache_hits - cache0[0]
    cache_misses = service.stats.cache_misses - cache0[1]

    del linker, service
    gc.collect()
    with _traced() as setup_tracer:  # one set-up, for the storage layer
        t0 = perf_counter()
        _, service = _load_service(ckpt)
        setup_wall = perf_counter() - t0
    service.close()
    setup = metrics.per_layer(setup_tracer.summary(setup_wall), {})

    extra = {
        "candidates.index_hit_ratio": index_hits / max(1, index_hits + fallbacks),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.hit_ratio": cache_hits / max(1, cache_hits + cache_misses),
        "reference.sequential_mps": sequential_mps,
        "trace.overhead_ratio": traced / untraced,
        **{k: setup[k] for k in ("storage.refresh_s", "storage.ref_embed_s", "pipeline.init_s")},
    }
    values = metrics.per_layer(tracer.summary(traced), extra)
    return RunResult(values, len(stream) * len(served), 0, mismatches == 0)


# ----------------------------------------------------------------------
# ncbi-train
# ----------------------------------------------------------------------
def _f1(records) -> float:
    """Pair F1 recomputed from the gold labels of the test pairs."""
    tp = sum(1 for r in records if r.label == 1 and r.prediction)
    fp = sum(1 for r in records if r.label == 0 and r.prediction)
    fn = sum(1 for r in records if r.label == 1 and not r.prediction)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


@contextlib.contextmanager
def _epoch_clock(starts: List[float]):
    """Record when each training epoch starts (one timestamp per epoch)."""
    from repro.core.trainer import EDGNNTrainer

    original = EDGNNTrainer.train_epoch

    def timed(self, epoch):
        starts.append(perf_counter())
        return original(self, epoch)

    EDGNNTrainer.train_epoch = timed
    try:
        yield
    finally:
        EDGNNTrainer.train_epoch = original


def train(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.api import Linker
    from repro.datasets import load_dataset

    dataset = load_dataset("NCBI", scale=common.KB_SCALE)
    pristine = copy.deepcopy(dataset.kb)
    config = common.linker_config(seed, seed, TRAIN_EPOCHS)
    splits = (dataset.train, dataset.val, dataset.test)

    setups: List[float] = []

    def set_up():
        kb = copy.deepcopy(pristine)
        gc.collect()
        t0 = perf_counter()
        linker = Linker.from_config(config, kb)
        setups.append(perf_counter() - t0)
        return linker

    def fit(linker):
        """One fit, on a fresh set-up's KB copy so every fit pays the same
        first-use costs; returns its start, end and result."""
        t0 = perf_counter()
        result = linker.fit(*splits)
        return t0, perf_counter(), result

    if trace:
        fit(set_up())  # warm-up, untimed: no compared fit is the first
        # Fits speed up steadily over a process's life; untraced and
        # traced fits in the order U T T U cancel a linear trend.
        untraced, traced = [], []
        for with_tracer in (False, True, True, False):
            linker = set_up()
            if with_tracer:
                with _traced() as tracer:
                    t0, t1, result = fit(linker)
                traced.append(t1 - t0)
            else:
                t0, t1, _ = fit(linker)
                untraced.append(t1 - t0)
        with _traced() as setup_tracer:
            t0 = perf_counter()
            Linker.from_config(config, copy.deepcopy(pristine))
            setup_wall = perf_counter() - t0
        setup = metrics.per_layer(setup_tracer.summary(setup_wall), {})
        extra = {
            "trace.overhead_ratio": sum(traced) / sum(untraced),
            "pipeline.init_s": setup["pipeline.init_s"],
        }
        values = metrics.per_layer(tracer.summary(traced[-1]), extra)
        return RunResult(values, len(dataset.train) * len(result.history), 0, True)

    deadline = common.Deadline(seconds)
    fits, f1s, mentions = [], [], 0
    while deadline.left() > 0 or len(fits) < MIN_FITS:
        # Set-ups spread over the whole run; the fit uses the last one.
        for _ in range(SETUPS_PER_FIT - 1):
            set_up()
        linker = set_up()
        starts: List[float] = []
        with _epoch_clock(starts):
            t0, t1, result = fit(linker)
        # The fit cut at each epoch start: query graphs and packing, one
        # part per epoch (train step and validation), and the last epoch
        # with the test evaluation.
        marks = [t0, *starts, t1]
        fits.append([b - a for a, b in zip(marks, marks[1:])])
        mentions += len(dataset.train) * len(result.history)
        f1s.append(_f1(result.test_records))
        if len(fits) == MIN_FITS:
            # After a fixed number of fits, not however many the host's
            # speed let into the run.
            rss = _settled_rss()
    deterministic = len(set(f1s)) == 1 and len({len(f) for f in fits}) == 1
    if not deterministic:
        _note(f"fits of one seed differ: F1 {f1s}, parts {[len(f) for f in fits]}")
    # Every fit of one seed does the same work: each part's fastest fit.
    # The percentiles run over the 9 whole epochs, so p95 is the slowest
    # of them (on the seed, epoch 2, at three to four times the median).
    fastest = [min(parts) for parts in zip(*fits)]
    epochs = [t * 1000.0 for t in fastest[1:-1]]
    values = {
        "throughput_mps": len(dataset.train) * TRAIN_EPOCHS / sum(fastest),
        "latency_p50_ms": common.percentile(epochs, 50),
        "latency_p95_ms": common.percentile(epochs, 95),
        "setup_s": common.median(setups),
        "rss_mb": rss,
        "quality": f1s[0],
    }
    return RunResult(values, mentions, 0, deterministic)


# ----------------------------------------------------------------------
# mdx-http
# ----------------------------------------------------------------------
def _serve_args(ckpt, bundle) -> List[str]:
    return [
        "serve", "--checkpoint", str(ckpt), "--http", "0",
        "--candidates", "indexed", "--kb-bundle", str(bundle),
    ]


def _merge(phases, name: str, part: loadgen.PhaseResult, offset: int, cycle=None) -> None:
    """Fold one server's share of a phase into ``phases[name]``, moving
    its request indices to the phase's document list (``cycle``: the
    share's length, for a closed loop that cycles through it)."""
    merged = phases.setdefault(name, loadgen.PhaseResult(start=part.start))
    for o in part.outcomes:
        o.index = offset + (o.index % cycle if cycle else o.index)
        merged.outcomes.append(o)
    merged.lags_ms.extend(part.lags_ms)
    merged.wall_s += part.wall_s


def http(seed: int, seconds: float, trace: bool) -> RunResult:
    import numpy as np

    ckpt = common.prepare("checkpoint", "MDX")
    bundle = common.prepare("bundle")
    rows = common.load_corpus("mdx-indexed")
    docs = common.zipf_documents(seed, len(rows), HTTP_ZIPF, HTTP_PHASES, HTTP_WARM)
    # The latency phase sends the same documents for every seed, in the
    # seed's order: which heavy documents land in the tail would
    # otherwise move p95 between seeds as much as a real change would.
    fixed = common.zipf_documents(
        common.CORPUS_SEED, len(rows), HTTP_ZIPF, {"low": HTTP_PHASES["low"]}, 0
    )["low"]
    docs["low"] = [fixed[i] for i in np.random.default_rng([seed, 5]).permutation(len(fixed))]
    bodies = {
        phase: [loadgen.request_body([rows[i]["snippet"] for i in doc]) for doc in phase_docs]
        for phase, phase_docs in docs.items()
    }
    logs = common.cache_dir()
    serve = ["-m", "repro", *_serve_args(ckpt, bundle)]
    failed = 0
    servers: List[loadgen.Server] = []
    phases: Dict[str, loadgen.PhaseResult] = {}
    untraced_phases: List[loadgen.PhaseResult] = []

    def spawn(args, tag) -> loadgen.Server:
        servers.append(loadgen.Server(args, logs, tag))
        return servers[-1]

    def stop(server) -> int:
        if server.stop():
            return 0
        _note(f"server shutdown after SIGINT was not clean; see {server.stderr_path}")
        return 1

    def warm(server) -> loadgen.PhaseResult:
        return loadgen.closed_loop(server.port, bodies["warm"], limit=len(bodies["warm"]))

    try:
        if trace:
            # The untraced server runs the traced one's phases, so both
            # reach ``sat`` (the overhead ratio's work) with the same cache.
            server = spawn(serve, "untraced")
            server.wait_healthy()
            untraced_phases = [
                warm(server),
                loadgen.open_loop(server.port, bodies["low"], LOW_RATE),
                loadgen.open_loop(server.port, bodies["high"], HIGH_RATE),
                loadgen.closed_loop(server.port, bodies["sat"], limit=TRACE_SAT_DOCS),
            ]
            failed += sum(r.failed for r in untraced_phases) + stop(server)
            summary_path = logs / f"trace-{seed}.json"
            server = spawn(
                [str(common.BENCH_DIR / "traced_server.py"), str(summary_path),
                 *_serve_args(ckpt, bundle)],
                "traced",
            )
            server.wait_healthy()
            phases["warm"] = warm(server)
            phases["low"] = loadgen.open_loop(server.port, bodies["low"], LOW_RATE)
            phases["high"] = loadgen.open_loop(server.port, bodies["high"], HIGH_RATE)
            phases["sat"] = loadgen.closed_loop(server.port, bodies["sat"], limit=TRACE_SAT_DOCS)
            stats = loadgen.get_json(server.port, "/stats")["stats"]
            failed += stop(server)
        else:
            # Each of the set-up servers then takes a third of the timed
            # traffic, so one run samples the host over its whole length
            # rather than in one stretch of whatever load it shares with.
            setups, rss = [], []
            low_share = len(bodies["low"]) // HTTP_SETUP_REPS
            sat_share = len(bodies["sat"]) // HTTP_SETUP_REPS
            sat_s = max(1.0, (seconds - len(bodies["low"]) / LOW_RATE) / HTTP_SETUP_REPS)
            for rep in range(HTTP_SETUP_REPS):
                server = spawn(serve, f"setup{rep}")
                setups.append(server.wait_healthy())
                _merge(phases, "warm", warm(server), 0)
                low = bodies["low"][rep * low_share : (rep + 1) * low_share]
                _merge(phases, "low", loadgen.open_loop(server.port, low, LOW_RATE),
                       rep * low_share)
                sat = bodies["sat"][rep * sat_share : (rep + 1) * sat_share]
                _merge(phases, "sat", loadgen.closed_loop(server.port, sat, seconds=sat_s),
                       rep * sat_share, len(sat))
                rss.append(common.rss_mb(server.proc.pid))
                failed += stop(server)
        failed += sum(r.failed for r in phases.values())
    finally:
        for server in servers:
            server.kill()

    # An open-loop generator that sends later than the next document is
    # due (at p95) fell behind its schedule: the phase is invalid.
    rates = {"low": LOW_RATE, "high": HIGH_RATE}
    lags = {name: common.tail_percentile(phases[name].lags_ms, 95)
            for name in rates if name in phases}
    valid = True
    for name, lag in lags.items():
        if lag > 1000.0 / rates[name]:
            valid = False
            _note(f"phase {name} is invalid: the generator ran {lag:.1f} ms late at p95")

    # Every ranking on the wire against disambiguate_snippet's.
    mismatches, mentions, hits = 0, 0, 0
    for name, result in phases.items():
        for outcome in result.outcomes:
            if outcome.status != 200:
                continue
            doc = docs[name][outcome.index % len(docs[name])]
            predictions = json.loads(outcome.body)["predictions"]
            served = [(p["entity_ids"], p["scores"]) for p in predictions]
            reference = [_reference(rows[i]) for i in doc]
            mismatches += _mismatches(served, reference, "mdx-http")
            if name != "warm":
                mentions += len(doc)
                hits += sum(ids[0] == rows[i]["gold"] for (ids, _), i in zip(served, doc))
    attempted = sum(len(r.outcomes) for r in [*phases.values(), *untraced_phases])

    if trace:
        raw = json.loads(summary_path.read_text())
        # Client time (send to response) minus scheduler time (submit to
        # result), both medians over the high phase; the two processes'
        # clocks agree (both read CLOCK_MONOTONIC).
        high = phases["high"]
        client_p50 = common.median([o.service_s * 1000.0 for o in high.outcomes])
        sojourn = [
            ms for ms, end in zip(raw["samples"]["scheduler.sojourn_ms"],
                                  raw["samples"]["scheduler.sojourn_end"])
            if high.start <= end <= high.start + high.wall_s
        ]
        lookups = stats["candidate_index_hits"] + stats["candidate_fallbacks"]
        extra = {
            "candidates.index_hit_ratio": stats["candidate_index_hits"] / max(1, lookups),
            "cache.hits": stats["cache_hits"],
            "cache.misses": stats["cache_misses"],
            "cache.hit_ratio": stats["cache_hit_rate"],
            "admission.admitted": sum(stats["admitted"].values()),
            "admission.shed": sum(stats["shed"].values()),
            "http.requests": attempted,
            "http.errors": failed,
            "http.residual_p50_ms": client_p50 - common.median(sojourn),
            "loadgen.lag_p95_ms": max(lags.values()),
            "loadgen.low_lag_p95_ms": lags["low"],
            "loadgen.high_lag_p95_ms": lags["high"],
            "loadgen.high_p50_ms": common.tail_percentile(high.latencies_ms(), 50),
            "loadgen.high_p95_ms": common.tail_percentile(high.latencies_ms(), 95),
            "trace.overhead_ratio": phases["sat"].wall_s / untraced_phases[-1].wall_s,
        }
        values = metrics.per_layer(raw, extra)
    else:
        low = phases["low"].latencies_ms()
        sat = phases["sat"]
        completed = sum(len(docs["sat"][o.index % len(docs["sat"])])
                        for o in sat.outcomes if o.status == 200)
        values = {
            "throughput_mps": completed / sat.wall_s,
            "latency_p50_ms": common.tail_percentile(low, 50),
            "latency_p95_ms": common.tail_percentile(low, 95),
            "setup_s": common.median(setups),
            "rss_mb": common.median(rss),
            "quality": hits / max(1, mentions),
        }
    return RunResult(values, attempted, failed, valid and mismatches == 0)


WORKLOADS = {
    "ncbi-batch": lambda seed, seconds, trace: batch("NCBI", seed, seconds, trace),
    "mdx-rerank": lambda seed, seconds, trace: batch("MDX", seed, seconds, trace),
    "mdx-http": http,
    "ncbi-train": train,
}
