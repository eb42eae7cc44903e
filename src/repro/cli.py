"""Command-line interface for the ED-GNN reproduction.

Run as ``python -m repro`` (or the ``repro`` console script when the
package is installed with entry points):

* ``repro datasets``  — list the five Section 4.1 datasets and their
  generated statistics at the active scale;
* ``repro synth``     — synthesise a dataset and write its KB + snippet
  corpus to disk;
* ``repro train``     — train an ED-GNN pipeline on a dataset and save a
  checkpoint directory;
* ``repro evaluate``  — train + evaluate any system (baselines included)
  and print P/R/F1;
* ``repro link``      — disambiguate a mention in free text against a
  trained checkpoint;
* ``repro serve``     — batched high-throughput linking of a file or
  dataset split through :mod:`repro.serving`, with ``--stats`` telemetry;
* ``repro explain``   — GNN-Explainer attribution for the top match of a
  mention (Figure 4a);
* ``repro config``    — dump a declarative ``LinkerConfig`` JSON or
  validate one (``repro config dump`` / ``repro config validate``);
* ``repro reproduce`` — regenerate one of the paper's tables end to end.

Every command honours ``REPRO_SCALE`` / ``REPRO_EPOCHS`` like the
benchmark suite, and accepts explicit overrides.  All construction goes
through :meth:`repro.api.Linker.from_config` — the CLI builds configs,
never pipelines.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Command implementations (lazy imports keep --help fast)
# ---------------------------------------------------------------------------
def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import DATASET_NAMES, PROFILES, load_dataset
    from repro.eval import format_table

    rows = []
    for name in DATASET_NAMES:
        profile = PROFILES[name]
        if args.profile_only:
            rows.append(
                [name, str(profile.num_nodes), str(profile.num_edges), str(profile.num_snippets)]
            )
            continue
        dataset = load_dataset(name, scale=args.scale)
        stats = dataset.stats()
        rows.append(
            [
                name,
                str(stats["nodes"]),
                str(stats["edges"]),
                str(stats["snippets"]),
                str(len(dataset.train)),
                str(len(dataset.val)),
                str(len(dataset.test)),
            ]
        )
    if args.profile_only:
        header = ["Dataset", "Nodes (Table 2)", "Edges (Table 2)", "Snippets"]
        title = "Dataset profiles (paper's Table 2 at scale 1.0)"
    else:
        header = ["Dataset", "Nodes", "Edges", "Snippets", "Train", "Val", "Test"]
        title = f"Generated datasets (scale={args.scale if args.scale else 'default'})"
    print(format_table(header, rows, title=title))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.graph import save_graph
    from repro.text import save_snippets

    dataset = load_dataset(args.dataset, scale=args.scale, use_cache=False)
    os.makedirs(args.out, exist_ok=True)
    kb_path = os.path.join(args.out, "kb.json")
    save_graph(dataset.kb, kb_path)
    for split_name, snippets in (
        ("train", dataset.train),
        ("val", dataset.val),
        ("test", dataset.test),
    ):
        save_snippets(snippets, os.path.join(args.out, f"{split_name}.jsonl"))
    stats = dataset.stats()
    print(
        f"wrote {args.dataset}: {stats['nodes']} nodes, "
        f"{stats['edges']} edges, {stats['snippets']} snippets -> {args.out}"
    )
    return 0


def _linker_config(args: argparse.Namespace, dataset_name: Optional[str] = None):
    """The declarative LinkerConfig the training flags describe — the one
    construction path every subcommand shares."""
    from repro.api import LinkerConfig
    from repro.core import ModelConfig, TrainConfig
    from repro.eval.evaluator import BEST_LAYERS, BEST_VARIANT

    dataset_name = dataset_name or getattr(args, "dataset", None)
    variant = args.variant or BEST_VARIANT.get(dataset_name, "magnn")
    layers = args.layers or BEST_LAYERS.get(dataset_name, 3)
    epochs = args.epochs or int(os.environ.get("REPRO_EPOCHS", "80"))
    extra = {}
    if getattr(args, "fuzzy", False):
        extra["candidate_generator"] = "fuzzy"
    return LinkerConfig(
        model=ModelConfig(variant=variant, num_layers=layers, seed=args.seed),
        train=TrainConfig(
            epochs=epochs,
            patience=max(10, epochs // 3),
            seed=args.seed,
            use_hard_negatives=not args.no_hard_negatives,
        ),
        augment_query_graphs=not args.no_augment,
        **extra,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.api import Linker, LinkerConfig
    from repro.datasets import load_dataset

    # Usage errors must surface before the (expensive) dataset build.
    if args.config:
        # A dumped LinkerConfig (repro config dump / Linker.save's
        # linker.json) is the whole construction recipe; the per-field
        # training flags describe a config, so mixing both is ambiguous —
        # reject rather than silently ignore the flags.
        conflicting = [
            flag
            for flag, given in (
                ("--variant", args.variant is not None),
                ("--layers", args.layers is not None),
                ("--epochs", args.epochs is not None),
                ("--seed", args.seed != 0),
                ("--fuzzy", args.fuzzy),
                ("--no-hard-negatives", args.no_hard_negatives),
                ("--no-augment", args.no_augment),
            )
            if given
        ]
        if conflicting:
            raise SystemExit(
                f"--config already describes the whole linker; drop "
                f"{', '.join(conflicting)} (or edit the config file)"
            )
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = LinkerConfig.from_json(fh.read())
        except OSError as exc:
            raise SystemExit(f"cannot read {args.config}: {exc}") from None
        except ValueError as exc:
            raise SystemExit(f"{args.config}: {exc}") from None
    else:
        config = _linker_config(args)
    dataset = load_dataset(args.dataset, scale=args.scale, use_cache=False)
    linker = Linker.from_config(config, dataset.kb)
    result = linker.fit(dataset.train, dataset.val, dataset.test)
    print(
        f"ED-GNN({config.model.variant}) on {args.dataset}: "
        f"test P={result.test.precision:.3f} R={result.test.recall:.3f} "
        f"F1={result.test.f1:.3f} (best epoch {result.best_epoch})"
    )
    if args.out:
        linker.save(args.out)
        print(f"checkpoint saved -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.eval.evaluator import run_system

    run = run_system(
        args.dataset,
        args.system,
        num_layers=args.layers,
        epochs=args.epochs,
        seed=args.seed,
        scale=args.scale,
        use_hard_negatives=not args.no_hard_negatives,
        augment_query_graphs=not args.no_augment,
    )
    payload = {
        "dataset": args.dataset,
        "system": args.system,
        "precision": round(run.test.precision, 4),
        "recall": round(run.test.recall, 4),
        "f1": round(run.test.f1, 4),
        "best_epoch": run.best_epoch,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(
            f"{args.system} on {args.dataset}: "
            f"P={run.test.precision:.3f} R={run.test.recall:.3f} F1={run.test.f1:.3f} "
            f"(best epoch {run.best_epoch})"
        )
    return 0


def _load_checkpoint(path: str):
    from repro.api import Linker

    if not os.path.isdir(path):
        raise SystemExit(f"checkpoint directory not found: {path}")
    return Linker.load(path)


def _prediction_payload(linker, prediction) -> dict:
    """The machine-readable shape shared by ``link`` and ``serve``."""
    return {
        "mention": prediction.mention,
        "candidates": [
            {
                "entity_id": e,
                "name": linker.entity_name(e),
                "score": round(s, 4),
            }
            for e, s in zip(prediction.ranked_entities, prediction.scores)
        ],
    }


def _cmd_link(args: argparse.Namespace) -> int:
    linker = _load_checkpoint(args.checkpoint)
    try:
        prediction = linker.disambiguate(args.text, args.mention, top_k=args.top_k)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(_prediction_payload(linker, prediction)))
        return 0
    print(f"mention: {prediction.mention!r}")
    for rank, (entity, score) in enumerate(
        zip(prediction.ranked_entities, prediction.scores), start=1
    ):
        print(f"  {rank}. {linker.entity_name(entity)}  (score {score:.3f})")
    return 0


def _parse_snippet_line(linker, line: str):
    """One serve-input line: snippet JSONL if it parses, else raw text
    pushed through the (simulated) NER.  Raises ``ValueError`` on lines
    that are neither."""
    from repro.text.corpus import Snippet

    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "Text" in payload:
        try:
            return Snippet.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad snippet JSON: {exc!r}") from None
    return linker.snippet_from_text(line)


def _iter_snippet_lines(linker, lines, source: str, limit: Optional[int], on_error=None):
    """Lazily parse non-empty input lines into snippets (stdin streaming
    must not slurp the whole stream before the first batch runs).

    A line that parses as neither snippet JSON nor linkable text aborts
    with a sited ``SystemExit`` — unless ``on_error(line, exc)`` is
    given, in which case the bad line is reported and the stream
    continues (the stdin-streaming contract: one bad record must not
    kill a long-running pipe)."""
    count = 0
    for line in lines:
        if limit is not None and count >= limit:
            return
        line = line.strip()
        if not line:
            continue
        try:
            snippet = _parse_snippet_line(linker, line)
        except ValueError as exc:
            if on_error is None:
                raise SystemExit(f"{source}: {exc}: {line!r}") from None
            on_error(line, exc)
            continue
        yield snippet
        count += 1


def _http_wait(server) -> None:
    """Block the foreground ``repro serve --http`` process until the
    server closes (tests monkeypatch this to return immediately)."""
    server.wait()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Batched linking over a text file / snippet corpus / dataset split /
    stdin stream, through the :mod:`repro.serving` service.  ``--async``
    routes requests through the deadline scheduler, and ``--http PORT``
    serves the network front door instead of reading local input;
    surfaces ServiceStats.  Every frontend comes from ``Linker.serve``,
    so the checkpoint's ``service`` section applies wherever a flag is
    not given."""
    linker = _load_checkpoint(args.checkpoint)
    overrides = {
        field: value
        for field, value in (
            ("max_batch_size", args.batch_size),
            ("cache_size", args.cache_size),
            ("top_k", args.top_k),
            ("bundle_path", args.kb_bundle),
        )
        if value is not None
    }
    try:
        if args.deadline_ms is not None and args.deadline_ms <= 0:
            raise ValueError("--deadline-ms must be > 0")
        if args.candidates is not None:
            retrieval = None
            if args.kb_bundle is not None:
                # Point the indexed generator's loader at the served
                # bundle so a packed index (repro kb pack --with-index)
                # is memory-mapped instead of rebuilt on startup.
                from dataclasses import replace

                retrieval = replace(
                    linker.config.retrieval, bundle_path=args.kb_bundle
                )
            linker.use_candidate_generator(args.candidates, retrieval=retrieval)
        admission = None
        if args.shed_policy is not None or args.max_queue is not None:
            from repro.serving import AdmissionConfig

            # --max-queue without an explicit policy means "bound the
            # queue by depth".
            fields = {"shed_policy": args.shed_policy or "depth"}
            if args.max_queue is not None:
                fields["max_queue"] = args.max_queue
            admission = AdmissionConfig(**fields)
        frontend = linker.serve(
            async_=args.use_async,
            admission=admission,
            deadline_ms=args.deadline_ms,
            http_port=args.http,
            http_host=args.host,
            **overrides,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    except OSError as exc:
        if args.http is None:
            raise
        # Linker.serve has released the service of the unbound server.
        from repro.serving import HttpConfig

        host = args.host or (linker.config.service.http or HttpConfig()).host
        raise SystemExit(f"cannot bind http://{host}:{args.http}: {exc}") from None

    if args.http is not None:
        server = frontend
        # A job started with `&` by a non-interactive shell inherits SIGINT
        # as ignored; Ctrl-C and `kill -INT` must stop the server anyway,
        # from the moment it announces itself.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            print(f"serving on http://{server.host}:{server.port}", flush=True)
            _http_wait(server)
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            signal.signal(signal.SIGINT, previous)
            server.close()
        if args.stats:
            print(server.stats.format(), flush=True)
        return 0

    streaming = args.input == "-"

    def emit(prediction) -> None:
        if args.json:
            print(json.dumps(_prediction_payload(linker, prediction)), flush=streaming)
        else:
            top = prediction.top()
            print(
                f"{prediction.mention!r} -> {linker.entity_name(top)!r} "
                f"(score {prediction.scores[0]:.3f})",
                flush=streaming,
            )

    served = 0
    try:
        if streaming:
            # Incremental: results are flushed as each micro-batch lands,
            # so `repro serve --input - | head` behaves like a unix tool
            # (BrokenPipeError is handled by main()).  A line that parses
            # as neither snippet JSON nor linkable text becomes a
            # structured ErrorResponse record instead of killing the pipe.
            from repro.serving.wire import ErrorResponse

            def report_bad_line(line, exc) -> None:
                print(
                    ErrorResponse("parse_error", str(exc), detail=line).to_json(),
                    flush=True,
                )

            snippets = _iter_snippet_lines(
                linker, sys.stdin, "stdin", args.limit, on_error=report_bad_line
            )
            if args.use_async:
                for prediction in frontend.link_stream(snippets):
                    emit(prediction)
                    served += 1
            else:
                from itertools import islice

                # The checkpoint's batch size unless --batch-size is given.
                batch = frontend.config.max_batch_size
                while chunk := list(islice(snippets, batch)):
                    for prediction in frontend.link_batch(chunk):
                        emit(prediction)
                    served += len(chunk)
        else:
            if args.input:
                with open(args.input, encoding="utf-8") as fh:
                    snippets = list(
                        _iter_snippet_lines(linker, fh, args.input, args.limit)
                    )
            else:
                from repro.datasets import load_dataset

                dataset = load_dataset(args.dataset, scale=args.scale)
                split = {
                    "train": dataset.train, "val": dataset.val, "test": dataset.test,
                }[args.split]
                snippets = list(split)[: args.limit]
            if not snippets:
                raise SystemExit("no snippets to link")
            for prediction in frontend.link_batch(snippets):
                emit(prediction)
            served = len(snippets)
    finally:
        frontend.close()

    if served == 0:
        raise SystemExit("no snippets to link")
    if args.stats:
        if args.json:
            print(json.dumps({"stats": frontend.stats.to_dict()}), flush=streaming)
        else:
            print(flush=streaming)
            print(frontend.stats.format(), flush=streaming)
    return 0


def _cmd_kb_pack(args: argparse.Namespace) -> int:
    """Build an mmap KB bundle from a checkpoint: the feature matrix and
    (unless ``--no-embeddings``) the reference-embedding matrix as plain
    ``.npy`` files plus a fingerprinted manifest, ready for
    ``repro serve --kb-bundle DIR`` to memory-map — startup then skips
    the embedding forward entirely.  ``--with-index``
    additionally packs a sublinear candidate-retrieval index so
    ``repro serve --candidates indexed`` maps it instead of rebuilding."""
    from repro.storage import pack_bundle

    linker = _load_checkpoint(args.checkpoint)
    retrieval_index = None
    if args.with_index:
        from repro.retrieval import build_retrieval_index

        retrieval_index = build_retrieval_index(
            linker.pipeline.kb, linker.config.retrieval
        )
    manifest = pack_bundle(
        linker.pipeline,
        args.out,
        embeddings=not args.no_embeddings,
        retrieval_index=retrieval_index,
    )
    if args.json:
        print(json.dumps({"bundle": args.out, "manifest": manifest}))
    else:
        features = manifest["features"]
        print(f"packed KB bundle at {args.out}")
        print(f"  features  {tuple(features['shape'])} {features['dtype']}")
        if manifest["h_ref"] is not None:
            h_ref = manifest["h_ref"]
            print(
                f"  h_ref     {tuple(h_ref['shape'])} {h_ref['dtype']} "
                f"(fingerprint {h_ref['fingerprint']})"
            )
        else:
            print("  h_ref     (not packed; serve computes it on startup)")
        if manifest.get("retrieval") is not None:
            entry = manifest["retrieval"]
            arrays = ", ".join(sorted(entry["arrays"]))
            print(
                f"  retrieval {entry['backend']} index "
                f"(fingerprint {entry['fingerprint']}; arrays: {arrays})"
            )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core import GNNExplainer

    linker = _load_checkpoint(args.checkpoint)
    # The explainer drives engine internals the facade does not wrap.
    pipeline = linker.pipeline
    try:
        snippet = linker.snippet_from_text(args.text, args.mention)
        target = linker.disambiguate_snippet(snippet, top_k=1).top()
        query_graph = pipeline.build_query_graphs([snippet])[0]
        explainer = GNNExplainer(pipeline.model, pipeline.kb, epochs=args.opt_epochs)
        explanation = explainer.explain(
            query_graph, target, k_hops=args.hops, top_k=args.top_k
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"match: {explanation.mention_surface!r} -> {explanation.entity_name!r} "
        f"(score {explanation.matching_score:.3f})"
    )
    if not explanation.top_edges:
        print("  (no edges in the candidate's ego network)")
    for edge in explanation.top_edges:
        print(f"  {edge}")
    return 0


def _cmd_config_dump(args: argparse.Namespace) -> int:
    """Print (or write) the LinkerConfig the given flags describe — the
    exact payload ``Linker.from_config`` consumes and ``Linker.save``
    persists as ``linker.json``."""
    text = _linker_config(args).to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_config_validate(args: argparse.Namespace) -> int:
    from repro.api import LinkerConfig

    try:
        with open(args.file, encoding="utf-8") as fh:
            config = LinkerConfig.from_json(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"{args.file}: {exc}") from None
    print(
        f"{args.file}: valid LinkerConfig — variant={config.model.variant}, "
        f"candidate_generator={config.candidate_generator}, ner={config.ner}, "
        f"embedder={config.embedder}"
    )
    return 0


def _f1_grid(datasets, columns, run_column, row_head=None) -> List[List[str]]:
    """Rows of an F1 table: one line per dataset, one cell per column
    (the shape Tables 3/4/5 share; ``run_column`` yields a SystemRun)."""
    rows = []
    for name in datasets:
        row = ([row_head(name)] if row_head else []) + [name]
        row += [f"{run_column(name, col).test.f1:.3f}" for col in columns]
        rows.append(row)
    return rows


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.eval import format_table
    from repro.eval.evaluator import BEST_VARIANT, run_best_variant, run_system

    datasets: List[str] = args.datasets
    epochs = args.epochs
    common = dict(epochs=epochs, seed=args.seed, scale=args.scale)

    if args.experiment == "table2":
        from repro.datasets import load_dataset

        rows = []
        for name in datasets:
            stats = load_dataset(name, scale=args.scale).stats()
            rows.append([name, str(stats["nodes"]), str(stats["edges"])])
        print(format_table(["Dataset", "# Nodes", "# Edges"], rows, title="Table 2"))
        return 0

    if args.experiment == "table3":
        systems = args.systems or [
            "DeepMatcher", "NormCo", "NCEL", "graphsage", "rgcn", "magnn",
        ]
        rows = _f1_grid(datasets, systems, lambda name, s: run_system(name, s, **common))
        print(
            format_table(
                ["Dataset"] + [f"{s} F1" for s in systems], rows, title="Table 3 (F1)"
            )
        )
        return 0

    if args.experiment == "table4":
        configs = [
            ("Basic", dict(use_hard_negatives=False, augment_query_graphs=False)),
            ("Query graph aug", dict(use_hard_negatives=False, augment_query_graphs=True)),
            ("Neg sampling", dict(use_hard_negatives=True, augment_query_graphs=False)),
        ]
        rows = _f1_grid(
            datasets,
            [kwargs for _, kwargs in configs],
            lambda name, kwargs: run_best_variant(name, **common, **kwargs),
            row_head=lambda name: f"ED-GNN({BEST_VARIANT[name]})",
        )
        print(
            format_table(
                ["Method", "Dataset"] + [label for label, _ in configs],
                rows,
                title="Table 4 (F1)",
            )
        )
        return 0

    if args.experiment == "table5":
        layer_range = [1, 2, 3, 4]
        rows = _f1_grid(
            datasets,
            layer_range,
            lambda name, layers: run_best_variant(name, num_layers=layers, **common),
        )
        print(
            format_table(
                ["Dataset"] + [f"{n} layers" for n in layer_range],
                rows,
                title="Table 5 (F1 by number of layers)",
            )
        )
        return 0

    if args.experiment == "fig4b":
        for name in datasets:
            run = run_best_variant(name, **common)
            curve = run.convergence
            checkpoints = [e for e in (0, 5, 10, 15, 20, 30, epochs or 0) if e < len(curve)]
            series = "  ".join(f"ep{e}:{curve[e][1]:.3f}" for e in checkpoints)
            print(f"{name} ({BEST_VARIANT[name]}): {series}")
        return 0

    raise SystemExit(f"unknown experiment {args.experiment!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def _add_common_training_flags(parser: argparse.ArgumentParser, scale: bool = True) -> None:
    parser.add_argument("--epochs", type=int, default=None, help="training epochs")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    if scale:
        # A dataset-generation knob, not a construction knob — commands
        # that only build a LinkerConfig (config dump) must not take it.
        parser.add_argument("--scale", type=float, default=None, help="dataset scale in (0, 1]")
    parser.add_argument("--layers", type=int, default=None, help="GNN layers")
    parser.add_argument(
        "--no-hard-negatives",
        action="store_true",
        help="disable semantic-driven negative sampling (Section 3.2)",
    )
    parser.add_argument(
        "--no-augment",
        action="store_true",
        help="disable query-graph semantic augmentation (Section 3.1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ED-GNN medical entity disambiguation (SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the five evaluation datasets")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument(
        "--profile-only",
        action="store_true",
        help="print the Table 2 target sizes without generating",
    )
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("synth", help="synthesise a dataset to disk")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scale", type=float, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train an ED-GNN linker, optionally checkpoint it")
    p.add_argument("--dataset", required=True)
    p.add_argument("--variant", default=None, help="encoder variant (default: best per dataset)")
    p.add_argument(
        "--config",
        default=None,
        help="build from a dumped LinkerConfig JSON (repro config dump); "
        "overrides the construction flags",
    )
    p.add_argument("--out", default=None, help="checkpoint directory to write")
    p.add_argument(
        "--fuzzy",
        action="store_true",
        help="use the 'fuzzy' candidate generator (approximate retrieval on index misses)",
    )
    _add_common_training_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="train + evaluate any system on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--system", required=True, help="DeepMatcher/NormCo/NCEL or an ED-GNN variant")
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")
    _add_common_training_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("link", help="disambiguate a mention against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--mention", default=None, help="surface form to disambiguate")
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser(
        "serve",
        help="batched linking over a file or dataset split (repro.serving)",
        description="An unset --batch-size, --cache-size, --top-k or "
        "--kb-bundle keeps the checkpoint's service section; with --http, an "
        "unset --host or --deadline-ms keeps its http section.",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument(
        "--input",
        default=None,
        help="file of raw texts (one per line) or snippet JSONL; '-' streams "
        "JSONL/text from stdin with incremental output; default: dataset split",
    )
    p.add_argument("--dataset", default="NCBI", help="dataset when --input is omitted")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--limit", type=int, default=None, help="cap the number of snippets")
    p.add_argument("--batch-size", type=int, default=None, help="micro-batch size")
    p.add_argument("--cache-size", type=int, default=None, help="LRU entries; 0 disables")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="queue requests through the deadline-aware micro-batch scheduler",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="latency budget before a partial micro-batch is flushed "
        "(--http; --async, default 25 ms)",
    )
    p.add_argument(
        "--candidates",
        default=None,
        choices=["exact", "fuzzy", "indexed"],
        help="candidate generator override: 'indexed' retrieves through a "
        "sublinear shortlist index (with --kb-bundle a packed index is "
        "memory-mapped, not rebuilt)",
    )
    p.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the HTTP front door on PORT (0 binds an ephemeral "
        "port) instead of reading local input; POST /link, "
        "POST /link_stream, GET /healthz, GET /stats",
    )
    p.add_argument(
        "--kb-bundle",
        default=None,
        metavar="DIR",
        help="serve the KB matrices as read-only memory maps of this "
        "`repro kb pack` bundle (a directory without one is packed on "
        "start) instead of the live arrays",
    )
    p.add_argument(
        "--shed-policy",
        default=None,
        choices=["none", "depth", "wait"],
        help="admission control: shed overflow by queue depth or by "
        "estimated queue wait (429 + Retry-After over --http; "
        "default: none)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission queue bound before load shedding kicks in "
        "(implies --shed-policy depth unless one is set)",
    )
    p.add_argument("--host", default=None, help="bind address for --http")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help="print serving stats afterwards")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("kb", help="KB storage utilities (repro.storage)")
    kb_sub = p.add_subparsers(dest="action", required=True)
    k = kb_sub.add_parser(
        "pack",
        help="build an mmap KB bundle (features + embeddings + manifest) "
        "from a checkpoint for `repro serve --kb-bundle DIR`",
    )
    k.add_argument("--checkpoint", required=True)
    k.add_argument("--out", required=True, help="bundle directory to write")
    k.add_argument(
        "--no-embeddings",
        action="store_true",
        help="pack only the feature matrix (serve recomputes embeddings)",
    )
    k.add_argument(
        "--with-index",
        action="store_true",
        help="also pack a sublinear candidate-retrieval index for "
        "`repro serve --candidates indexed` (its postings are "
        "memory-mapped at serve time)",
    )
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=_cmd_kb_pack)

    p = sub.add_parser("explain", help="GNN-Explainer attribution for the top match")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--mention", default=None)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--opt-epochs", type=int, default=100, help="mask optimisation steps")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("config", help="dump or validate a declarative LinkerConfig")
    config_sub = p.add_subparsers(dest="action", required=True)
    d = config_sub.add_parser(
        "dump", help="print the LinkerConfig JSON the training flags describe"
    )
    d.add_argument("--dataset", default=None, help="pick the per-dataset best variant/layers")
    d.add_argument("--variant", default=None, help="encoder variant (default: best per dataset)")
    d.add_argument(
        "--fuzzy", action="store_true", help="use the 'fuzzy' candidate generator"
    )
    d.add_argument("--out", default=None, help="write to a file instead of stdout")
    _add_common_training_flags(d, scale=False)
    d.set_defaults(func=_cmd_config_dump)
    v = config_sub.add_parser("validate", help="parse and validate a LinkerConfig JSON file")
    v.add_argument("file", help="path to the config JSON")
    v.set_defaults(func=_cmd_config_validate)

    p = sub.add_parser("reproduce", help="regenerate one of the paper's experiments")
    p.add_argument(
        "--experiment",
        required=True,
        choices=["table2", "table3", "table4", "table5", "fig4b"],
    )
    p.add_argument("--datasets", nargs="+", default=["NCBI", "BioCDR"])
    p.add_argument("--systems", nargs="+", default=None, help="table3 only")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=None)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `repro serve | head`);
        # suppress the traceback and exit quietly like standard unix tools.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
