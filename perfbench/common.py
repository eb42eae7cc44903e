"""Shared pieces of the layered benchmark: where things live, the
per-checkout input cache, the seeded inputs, and the statistics helpers.

Everything the benchmark prepares (trained checkpoints, the packed MDX
bundle, the HTTP document streams) is cached under ``perfbench/.cache``,
keyed by a digest of the program source, so a checkout builds its inputs
once and a changed program never reuses inputs built by another one.
Preparation always runs in a child process (``prepare.py``), never in the
process that measures, so it costs no timed work and no resident memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"

#: The paper's Table 2 knowledge bases, at paper scale.
KB_SCALE = 1.0
#: Serving checkpoints: GraphSAGE, 2 layers, a fixed training seed, so
#: every run of a checkout serves the same model.
SERVING_MODEL_SEED = 0
SERVING_EPOCHS = {"NCBI": 20, "MDX": 10}
#: Seed of the snippet corpora, fixed so every run seed replays the same
#: content: corpora drawn per run seed moved throughput and accuracy by
#: 5-8 % between seeds, more than the bounds allow.
CORPUS_SEED = 0
TOP_K = 5  # the service default; reference rankings use the same


def ensure_src() -> None:
    """Make ``repro`` importable from the checkout, or stop with code 1."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's source on the
    path, and no ``REPRO_*`` overrides, so defaults are the program's."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Digest of the program source and of the benchmark files that shape
    the prepared inputs (keys the cache)."""
    digest = hashlib.sha1()
    paths = sorted(SRC.rglob("*.py")) + [BENCH_DIR / "common.py", BENCH_DIR / "prepare.py"]
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    path = CACHE / source_digest()
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(*args: str, timeout: float = 880.0) -> Path:
    """Run ``prepare.py`` with ``args`` in a child process (a no-op when
    the artefact is already cached) and return the path it prints."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "prepare.py"), *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"prepare {' '.join(args)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return Path(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Seeded configuration shared by preparation and the workloads
# ----------------------------------------------------------------------
def linker_config(model_seed: int, train_seed: int, epochs: int):
    """GraphSAGE, 2 layers; patience equals the epoch budget (no early
    stop) and hard negatives are on."""
    from repro.api import LinkerConfig
    from repro.core.model import ModelConfig
    from repro.core.trainer import TrainConfig

    return LinkerConfig(
        model=ModelConfig(variant="graphsage", num_layers=2, seed=model_seed),
        train=TrainConfig(
            epochs=epochs, patience=epochs, seed=train_seed, use_hard_negatives=True
        ),
    )


def snippet_pool(kb_name: str, kb, size: int):
    """``size`` snippets over ``kb``, synthesised like the paper's corpus
    of ``kb_name`` from the fixed corpus seed."""
    from dataclasses import replace

    import numpy as np
    from repro.datasets.registry import PROFILES
    from repro.datasets.synthesis import synthesize_snippets

    profile = replace(PROFILES[kb_name], num_snippets=size)
    return synthesize_snippets(kb, profile, np.random.default_rng([CORPUS_SEED, size]))


def zipf_documents(seed: int, pool_size: int, exponent: float, phases, warm: int):
    """Seeded request streams over ``range(pool_size)``.

    Popularity ranks come from a permutation fixed by the corpus seed, so
    every run seed shares the hot set; rank r has weight
    ``1 / (r + 1) ** exponent``.  ``phases`` maps a phase name to
    ``(documents, mentions per document)``; each gets that many documents
    of independent draws from the run seed.  ``"warm"`` lists the ``warm``
    most popular items, in 32-item documents, to fill a result cache
    before timing.  The same seed always gives the same streams.
    """
    import numpy as np

    by_rank = np.random.default_rng([CORPUS_SEED, pool_size]).permutation(pool_size)
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    rng = np.random.default_rng([seed, 3])
    out = {"warm": [by_rank[i : i + 32].tolist() for i in range(0, warm, 32)]}
    for name, (documents, size) in phases.items():
        ranks = rng.choice(pool_size, size=(documents, size), p=weights)
        out[name] = by_rank[ranks].tolist()
    return out


def load_corpus(name: str) -> List[dict]:
    """The rows ``prepare.py corpus NAME`` wrote: ``snippet`` (wire
    dict), ``gold`` id, the reference ranking ``ids``/``scores``, and
    ``next_score``, the reference's score just below the cut."""
    return json.loads(prepare("corpus", name).read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9)) - 1])


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank), refusing a sample too
    small to hold at least ten values beyond it."""
    n = len(values)
    beyond = math.floor(n * (100.0 - q) / 100.0 + 1e-9)
    if n == 0 or beyond < 10:
        raise ValueError(
            f"p{q:g} needs at least 10 samples beyond it; {n} samples leave {beyond}"
        )
    return percentile(values, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile, as a share of the
    median (the acceptance check's measure of run-to-run spread)."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def rss_mb(pid: Optional[int] = None) -> float:
    """Resident set size of ``pid`` (default: this process) in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc status")


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
#: Batched scoring sums in another order than the sequential pipeline,
#: so float32 scores may differ in their last bits; rankings may not.
SCORE_RTOL = 1e-5
SCORE_ATOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_ATOL + SCORE_RTOL * abs(b)


def same_ranking(
    ids: Sequence[int],
    scores: Sequence[float],
    ref_ids: Sequence[int],
    ref_scores: Sequence[float],
    ref_next: Optional[float] = None,
) -> bool:
    """Whether a served ranking matches the reference one: same length,
    distinct entities, scores equal up to float32 rounding, and the same
    entities at every rank, except that entities whose reference scores
    tie within that rounding may swap.  ``ref_next`` is the reference's
    score just below the ``top_k`` cut (None when nothing was cut).  Only
    when the last run of ties reaches across the cut may it hold other
    entities: ``top_k`` then picks among equals."""
    if len(ids) != len(ref_ids) or len(scores) != len(ref_scores):
        return False
    if len(set(ids)) != len(ids):
        return False
    if not all(_close(a, b) for a, b in zip(scores, ref_scores)):
        return False
    start = 0
    n = len(ref_ids)
    while start < n:
        end = start + 1
        while end < n and _close(ref_scores[end], ref_scores[end - 1]):
            end += 1
        cut_tie = end == n and ref_next is not None and _close(ref_next, ref_scores[-1])
        if not cut_tie and set(ids[start:end]) != set(ref_ids[start:end]):
            return False
        start = end
    return True


def gold_entity(snippet) -> int:
    from repro.text.corpus import parse_cui

    return parse_cui(snippet.ambiguous_mention.link_id)


class Deadline:
    """Wall-clock budget of one timed phase."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()
