"""Build the benchmark's cached inputs (run in a child process).

    python perfbench/prepare.py checkpoint NCBI|MDX
    python perfbench/prepare.py bundle
    python perfbench/prepare.py corpus ncbi|mdx|mdx-indexed
    python perfbench/prepare.py all

Each command builds its artefact under the source-keyed cache unless it
is already there, then prints the artefact's path as its last line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Snippet corpora, fixed per checkout: (KB, snippets, generator).  The
#: batch workloads replay theirs as 32-snippet calls in a seeded order
#: (sizes are whole calls); the HTTP workload draws Zipf documents from
#: its own, three times the server's default 2048-entry result cache, so
#: the cache helps without holding it all.
CORPORA = {
    "ncbi": ("NCBI", 44 * 32, "exact"),
    "mdx": ("MDX", 28 * 32, "exact"),
    "mdx-indexed": ("MDX", 3 * 2048, "indexed"),
}


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _build(target: Path, build) -> Path:
    """Build into a scratch sibling and rename, so a cut build never
    leaves a half-written artefact behind."""
    if target.exists():
        return target
    scratch = target.with_name(target.name + f".tmp{os.getpid()}")
    if scratch.exists():
        shutil.rmtree(scratch) if scratch.is_dir() else scratch.unlink()
    build(scratch)
    os.replace(scratch, target)
    return target


def checkpoint(name: str) -> Path:
    def build(out: Path) -> None:
        from repro.api import Linker
        from repro.datasets import load_dataset

        dataset = load_dataset(name, scale=common.KB_SCALE)
        config = common.linker_config(
            common.SERVING_MODEL_SEED, common.SERVING_MODEL_SEED, common.SERVING_EPOCHS[name]
        )
        linker = Linker.from_config(config, dataset.kb)
        linker.fit(dataset.train, dataset.val, dataset.test)
        linker.save(str(out))

    return _build(common.cache_dir() / f"ckpt-{name}", build)


def bundle() -> Path:
    ckpt = checkpoint("MDX")

    def build(out: Path) -> None:
        subprocess.run(
            [sys.executable, "-m", "repro", "kb", "pack", "--checkpoint", str(ckpt),
             "--out", str(out), "--with-index"],
            check=True, env=common.child_env(), cwd=str(common.ROOT),
            stdout=subprocess.DEVNULL,
        )

    return _build(common.cache_dir() / "bundle-MDX", build)


def corpus(name: str) -> Path:
    """The corpus's snippets with gold links, the reference ranking
    ``disambiguate_snippet`` gives each on the serving pipeline, and the
    reference's score just below the ``top_k`` cut (None when nothing was
    cut), so the correctness gate can tell a tie across the cut."""
    kb_name, size, generator = CORPORA[name]
    ckpt = checkpoint(kb_name)
    packed = bundle() if generator == "indexed" else None

    def build(out: Path) -> None:
        from dataclasses import replace

        from repro.api import Linker

        linker = Linker.load(str(ckpt))
        if packed is not None:
            retrieval = replace(linker.config.retrieval, bundle_path=str(packed))
            linker.use_candidate_generator(generator, retrieval=retrieval)
        snippets = common.snippet_pool(kb_name, linker.kb, size)
        rows = []
        for snippet in snippets:
            # A stable sort then a slice: the first TOP_K of TOP_K + 1 are
            # the TOP_K ranking.
            ranked = linker.disambiguate_snippet(snippet, top_k=common.TOP_K + 1)
            cut = ranked.scores[common.TOP_K :]
            rows.append({
                "snippet": snippet.to_dict(),
                "gold": common.gold_entity(snippet),
                "ids": ranked.ranked_entities[: common.TOP_K],
                "scores": ranked.scores[: common.TOP_K],
                "next_score": cut[0] if cut else None,
            })
        _write_json(out, rows)

    return _build(common.cache_dir() / f"corpus-{name}.json", build)


def main(argv) -> int:
    common.ensure_src()
    command, *rest = argv
    if command == "checkpoint":
        path = checkpoint(rest[0])
    elif command == "bundle":
        path = bundle()
    elif command == "corpus":
        path = corpus(rest[0])
    elif command == "all":
        # Everything, so only a checkout's first run pays for building.
        for name in CORPORA:
            path = corpus(name)
    else:
        raise SystemExit(f"unknown prepare command {command!r}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
