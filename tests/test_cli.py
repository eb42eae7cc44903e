"""Tests for the command-line interface (repro.cli).

All commands are exercised in-process through ``main(argv)`` at tiny
scale so the suite stays fast.
"""

import json
import os
import re

import pytest

from repro.api import CONFIG_SCHEMA_VERSION
from repro.cli import build_parser, main

SCALE = "0.2"
SNIPPET_TEXT = (
    "The patient presented with mild spinal hyperplasia, "
    "congenital cardiac cancer and primary dermal necrosis."
)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A tiny trained checkpoint shared by the link/explain tests."""
    out = str(tmp_path_factory.mktemp("cli_ckpt"))
    code = main(
        [
            "train",
            "--dataset", "NCBI",
            "--scale", SCALE,
            "--epochs", "2",
            "--variant", "graphsage",
            "--out", out,
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_subcommands_have_help(self, capsys):
        for command in (
            "datasets", "synth", "train", "evaluate", "link", "serve", "explain",
            "config", "reproduce", "kb",
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--help"])
            assert exc.value.code == 0

    def test_reproduce_validates_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--experiment", "table99"])


class TestDatasets:
    def test_profile_only_lists_table2(self, capsys):
        assert main(["datasets", "--profile-only"]) == 0
        out = capsys.readouterr().out
        assert "35028" in out  # MDX nodes
        assert "284542" in out  # MIMIC-III edges
        for name in ("MDX", "MIMIC-III", "NCBI", "ShARe", "BioCDR"):
            assert name in out


class TestSynth:
    def test_writes_kb_and_splits(self, tmp_path, capsys):
        out = str(tmp_path / "synth")
        assert main(["synth", "--dataset", "NCBI", "--scale", SCALE, "--out", out]) == 0
        for name in ("kb.json", "train.jsonl", "val.jsonl", "test.jsonl"):
            assert os.path.exists(os.path.join(out, name))
        # The written corpus parses back.
        from repro.text import load_snippets

        snippets = load_snippets(os.path.join(out, "train.jsonl"))
        assert snippets
        assert all(s.ambiguous_mention.mention for s in snippets)

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            main(["synth", "--dataset", "NOPE", "--out", str(tmp_path)])


class TestTrainAndLink:
    def test_checkpoint_contents(self, checkpoint):
        for name in ("kb.json", "config.json", "weights.npz"):
            assert os.path.exists(os.path.join(checkpoint, name))

    def test_link_text(self, checkpoint, capsys):
        assert main(
            ["link", "--checkpoint", checkpoint, "--text", SNIPPET_TEXT, "--top-k", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "mention:" in out

    def test_link_json_output(self, checkpoint, capsys):
        assert main(
            ["link", "--checkpoint", checkpoint, "--text", SNIPPET_TEXT, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mention"]
        assert payload["candidates"]
        assert {"entity_id", "name", "score"} <= set(payload["candidates"][0])

    def test_link_missing_checkpoint_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["link", "--checkpoint", str(tmp_path / "nope"), "--text", "x"])

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_link_rejects_top_k_below_one(self, checkpoint, top_k):
        with pytest.raises(SystemExit, match="top_k must be >= 1") as info:
            main(["link", "--checkpoint", checkpoint, "--text", SNIPPET_TEXT,
                  "--top-k", top_k])
        assert "\n" not in str(info.value.code)

    def test_explain_prints_edges(self, checkpoint, capsys):
        assert main(
            [
                "explain",
                "--checkpoint", checkpoint,
                "--text", SNIPPET_TEXT,
                "--opt-epochs", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "match:" in out

    def test_explain_edgeless_ego_network_reports_its_score(self, checkpoint, capsys):
        # --hops 0 leaves the target alone in its ego network: no edge to
        # explain, but the match still has the score of that one forward.
        from repro.api import Linker
        from repro.autograd import Tensor, no_grad
        from repro.graph.traversal import ego_subgraph

        assert main(
            ["explain", "--checkpoint", checkpoint, "--text", SNIPPET_TEXT, "--hops", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "(no edges in the candidate's ego network)" in out
        printed = float(re.search(r"\(score (-?\d+\.\d+)\)", out).group(1))

        linker = Linker.load(checkpoint)
        pipe, model = linker.pipeline, linker.pipeline.model
        snippet = linker.snippet_from_text(SNIPPET_TEXT)
        target = linker.disambiguate_snippet(snippet, top_k=1).top()
        qg = pipe.build_query_graphs([snippet])[0]
        sub, mapping = ego_subgraph(pipe.kb, target, 0)
        assert sub.num_edges == 0
        model.eval()
        with no_grad():
            h_qry = model.embed(model.compile(qg.graph), Tensor(qg.graph.features))
            h_sub = model.embed(model.compile(sub), Tensor(sub.features))
            [expected] = model.score_pairs(
                h_qry, [qg.mention_node], h_sub, [mapping[target]],
                x_query=Tensor(qg.graph.features), x_ref=Tensor(sub.features),
            ).data
        assert round(float(expected), 3) != 0.0
        assert printed == pytest.approx(float(expected), abs=5e-4)

    @pytest.mark.parametrize("text,extra,message", [
        (SNIPPET_TEXT, ["--top-k", "0"], "top_k must be >= 1"),
        (SNIPPET_TEXT, ["--top-k", "-1"], "top_k must be >= 1"),
        ("nothing to see here", [], "NER found no entity mentions"),
        (SNIPPET_TEXT, ["--hops", "-1"], "k_hops must be >= 0"),
        (SNIPPET_TEXT, ["--opt-epochs", "0"], "epochs must be >= 1"),
    ], ids=["top-k-0", "top-k-minus-1", "no-mention", "hops-minus-1", "opt-epochs-0"])
    def test_explain_rejects_bad_input(self, checkpoint, text, extra, message):
        with pytest.raises(SystemExit, match=message) as info:
            main(["explain", "--checkpoint", checkpoint, "--text", text,
                  "--opt-epochs", "2", *extra])
        assert "\n" not in str(info.value.code)


class TestServe:
    def test_dataset_split_with_stats(self, checkpoint, capsys):
        assert main(
            [
                "serve",
                "--checkpoint", checkpoint,
                "--dataset", "NCBI",
                "--scale", SCALE,
                "--limit", "6",
                "--batch-size", "4",
                "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "serving stats:" in out
        assert "mentions_per_second" in out

    def test_text_file_json(self, checkpoint, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text(SNIPPET_TEXT + "\n\n" + SNIPPET_TEXT + "\n")
        assert main(
            [
                "serve",
                "--checkpoint", checkpoint,
                "--input", str(texts),
                "--json",
                "--stats",
            ]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3  # two predictions + the stats payload
        assert {"entity_id", "name", "score"} <= set(lines[0]["candidates"][0])
        assert lines[2]["stats"]["mentions"] == 2

    def test_snippet_jsonl_input(self, checkpoint, tmp_path, capsys):
        from repro.datasets import load_dataset
        from repro.text import save_snippets

        dataset = load_dataset("NCBI", scale=float(SCALE))
        corpus = tmp_path / "snippets.jsonl"
        save_snippets(dataset.test[:4], str(corpus))
        assert main(
            ["serve", "--checkpoint", checkpoint, "--input", str(corpus)]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 4

    def test_empty_input_exits(self, checkpoint, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["serve", "--checkpoint", checkpoint, "--input", str(empty)])

    def test_stdin_streaming(self, checkpoint, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SNIPPET_TEXT + "\n\n" + SNIPPET_TEXT + "\n"))
        assert main(
            ["serve", "--checkpoint", checkpoint, "--input", "-", "--batch-size", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 2

    def test_stdin_async_json(self, checkpoint, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SNIPPET_TEXT + "\n" + SNIPPET_TEXT + "\n"))
        assert main(
            [
                "serve",
                "--checkpoint", checkpoint,
                "--input", "-",
                "--async",
                "--deadline-ms", "20",
                "--json",
                "--stats",
            ]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3  # two predictions + the stats payload
        assert {"entity_id", "name", "score"} <= set(lines[0]["candidates"][0])
        stats = lines[2]["stats"]
        assert stats["mentions"] == 2
        assert "latency_p95_ms" in stats and "queue_wait_p95_ms" in stats

    def test_stdin_bad_line_emits_error_record(self, checkpoint, capsys, monkeypatch):
        # One unparseable line must not kill a long-running pipe: it
        # becomes a structured ErrorResponse record and the stream goes on.
        import io

        bad_snippet = json.dumps({"Text": "snippet json missing keys"})
        stream = "\n".join([SNIPPET_TEXT, bad_snippet, "xqzt gibberish", SNIPPET_TEXT])
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        assert main(
            ["serve", "--checkpoint", checkpoint, "--input", "-", "--json",
             "--batch-size", "1"]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        predictions = [line for line in lines if "candidates" in line]
        errors = [line for line in lines if line.get("code") == "parse_error"]
        assert len(predictions) == 2
        assert len(errors) == 2
        from repro.serving import WIRE_SCHEMA_VERSION

        assert errors[0]["schema_version"] == WIRE_SCHEMA_VERSION
        assert errors[0]["detail"] == bad_snippet

    def test_file_input_bad_line_still_aborts(self, checkpoint, tmp_path):
        # Outside the streaming mode a bad line is a usage error: the
        # file is all there up front, so fail loudly instead of skipping.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"Text": "x"}) + "\n")
        with pytest.raises(SystemExit, match="bad snippet JSON"):
            main(["serve", "--checkpoint", checkpoint, "--input", str(bad)])

    def test_http_mode(self, checkpoint, capsys, monkeypatch):
        # --http swaps local input for the network front door; the
        # foreground wait is monkeypatched into a client-driven session.
        from repro.serving import LinkerClient

        seen = {}

        def drive(server):
            with LinkerClient(port=server.port) as client:
                seen["health"] = client.healthz()["status"]
                seen["prediction"] = client.link(text=SNIPPET_TEXT, top_k=2)

        monkeypatch.setattr("repro.cli._http_wait", drive)
        assert main(
            ["serve", "--checkpoint", checkpoint, "--http", "0", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in out
        assert "serving stats:" in out
        assert seen["health"] == "ok"
        assert 1 <= len(seen["prediction"].entity_ids) <= 2
        assert len(seen["prediction"].entity_names) == len(seen["prediction"].entity_ids)

    def test_http_rejects_bad_port(self, checkpoint):
        with pytest.raises(SystemExit, match="port"):
            main(["serve", "--checkpoint", checkpoint, "--http", "70000"])

    def test_async_matches_sync_on_split(self, checkpoint, capsys):
        argv = [
            "serve",
            "--checkpoint", checkpoint,
            "--dataset", "NCBI",
            "--scale", SCALE,
            "--limit", "4",
            "--json",
        ]
        assert main(argv) == 0
        sync_out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert main(argv + ["--async", "--deadline-ms", "15"]) == 0
        async_out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for a, b in zip(sync_out, async_out):
            assert a["mention"] == b["mention"]
            assert [c["entity_id"] for c in a["candidates"]] == [
                c["entity_id"] for c in b["candidates"]
            ]

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_serve_rejects_top_k_below_one(self, checkpoint, top_k):
        with pytest.raises(SystemExit, match="top_k must be >= 1") as info:
            main(["serve", "--checkpoint", checkpoint, "--dataset", "NCBI",
                  "--scale", SCALE, "--limit", "2", "--json", "--top-k", top_k])
        assert "\n" not in str(info.value.code)

    @pytest.fixture
    def tuned_checkpoint(self, checkpoint, tmp_path):
        """The checkpoint with a service section that differs from every
        serve flag's fallback."""
        import shutil

        path = str(tmp_path / "tuned")
        shutil.copytree(checkpoint, path)
        config_path = os.path.join(path, "linker.json")
        with open(config_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["service"].update(
            max_batch_size=4, cache_size=0, top_k=2,
            http={"host": "localhost", "deadline_ms": 7.5},
        )
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    @pytest.mark.parametrize("flags,top_k,cache_hits,batches", [
        ([], 2, 0, (2, 4)),
        (["--batch-size", "8", "--cache-size", "16", "--top-k", "3"], 3, 1, (1, 6)),
    ], ids=["checkpoint", "flags"])
    def test_service_section_applies_unless_a_flag_is_given(
        self, tuned_checkpoint, tmp_path, capsys, flags, top_k, cache_hits, batches
    ):
        from repro.datasets import load_dataset
        from repro.text import save_snippets

        # Six distinct snippets and one repeat: the repeat is a cache hit
        # only with the cache on.
        test = load_dataset("NCBI", scale=float(SCALE)).test
        corpus = str(tmp_path / "snippets.jsonl")
        save_snippets(test[:6] + test[:1], corpus)
        assert main(
            ["serve", "--checkpoint", tuned_checkpoint, "--input", corpus,
             "--json", "--stats", *flags]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        predictions, stats = lines[:7], lines[7]["stats"]
        assert max(len(p["candidates"]) for p in predictions) == top_k
        assert stats["cache_hits"] == cache_hits
        assert (stats["batches"], stats["max_batch_size"]) == batches

    @pytest.mark.parametrize("flags,host,deadline_ms,top_k", [
        ([], "localhost", 7.5, 2),
        (["--host", "127.0.0.1", "--deadline-ms", "12", "--top-k", "3"],
         "127.0.0.1", 12.0, 3),
    ], ids=["checkpoint", "flags"])
    def test_http_section_applies_unless_a_flag_is_given(
        self, tuned_checkpoint, capsys, monkeypatch, flags, host, deadline_ms, top_k
    ):
        from repro.serving import LinkingHTTPServer

        seen = {}
        monkeypatch.setattr(LinkingHTTPServer, "start", lambda server: server)  # no bind
        monkeypatch.setattr(
            "repro.cli._http_wait",
            lambda server: seen.update(
                host=server.host,
                deadline_s=server.service.deadline_s,
                config=server.service.service.config,
            ),
        )
        assert main(
            ["serve", "--checkpoint", tuned_checkpoint, "--http", "0", *flags]
        ) == 0
        assert f"serving on http://{host}:0" in capsys.readouterr().out
        assert seen["host"] == host
        assert seen["deadline_s"] == deadline_ms / 1000.0
        assert (seen["config"].max_batch_size, seen["config"].top_k) == (4, top_k)

    def test_bad_deadline_rejected(self, checkpoint):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve",
                    "--checkpoint", checkpoint,
                    "--input", "-",
                    "--async",
                    "--deadline-ms", "0",
                ]
            )


class TestConfig:
    def test_dump_prints_valid_config(self, capsys):
        from repro.api import LinkerConfig

        assert main(
            ["config", "dump", "--dataset", "NCBI", "--variant", "rgcn", "--epochs", "7"]
        ) == 0
        config = LinkerConfig.from_json(capsys.readouterr().out)
        assert config.model.variant == "rgcn"
        assert config.train.epochs == 7
        assert config.model.num_layers == 2  # NCBI's Table 5 best

    def test_dump_fuzzy_flag(self, capsys):
        from repro.api import LinkerConfig

        assert main(["config", "dump", "--variant", "graphsage", "--fuzzy"]) == 0
        config = LinkerConfig.from_json(capsys.readouterr().out)
        assert config.candidate_generator == "fuzzy"

    def test_dump_validate_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "linker.json")
        assert main(["config", "dump", "--variant", "graphsage", "--out", path]) == 0
        assert main(["config", "validate", path]) == 0
        out = capsys.readouterr().out
        assert "valid LinkerConfig" in out
        assert "variant=graphsage" in out

    def test_validate_rejects_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(SystemExit, match="schema_version"):
            main(["config", "validate", str(path)])

    def test_validate_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["config", "validate", str(tmp_path / "nope.json")])

    def test_validate_rejects_incomplete_section_cleanly(self, tmp_path):
        # No raw KeyError traceback: a sited SystemExit instead.
        path = tmp_path / "partial.json"
        path.write_text(
            json.dumps({"schema_version": CONFIG_SCHEMA_VERSION, "train": {"epochs": 10}})
        )
        with pytest.raises(SystemExit, match="bad train section"):
            main(["config", "validate", str(path)])

    def test_dump_rejects_scale_flag(self):
        # --scale is a dataset knob with no LinkerConfig field; accepting
        # and ignoring it would be a silent no-op.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["config", "dump", "--scale", "0.5"])

    def test_checkpoint_is_self_describing(self, checkpoint):
        assert main(["config", "validate", os.path.join(checkpoint, "linker.json")]) == 0

    def test_train_consumes_dumped_config(self, tmp_path, capsys):
        # The ROADMAP's "repro train --config linker.json": a dumped
        # LinkerConfig is the whole construction recipe for training.
        path = str(tmp_path / "linker.json")
        assert main(
            ["config", "dump", "--variant", "graphsage", "--epochs", "2",
             "--layers", "2", "--out", path]
        ) == 0
        out = str(tmp_path / "ckpt")
        assert main(
            ["train", "--dataset", "NCBI", "--scale", SCALE, "--config", path,
             "--out", out]
        ) == 0
        assert "ED-GNN(graphsage)" in capsys.readouterr().out
        # The checkpoint's linker.json carries the dumped config through.
        with open(os.path.join(out, "linker.json"), encoding="utf-8") as fh:
            saved = json.load(fh)
        assert saved["model"]["variant"] == "graphsage"
        assert saved["train"]["epochs"] == 2

    def test_train_config_rejects_conflicting_flags(self, tmp_path):
        # --config is the whole recipe; silently ignoring --variant etc.
        # would train a different model than asked for.
        path = str(tmp_path / "linker.json")
        assert main(["config", "dump", "--variant", "graphsage", "--epochs", "2",
                     "--out", path]) == 0
        with pytest.raises(SystemExit, match="--variant"):
            main(["train", "--dataset", "NCBI", "--scale", SCALE,
                  "--config", path, "--variant", "gat"])

    def test_train_config_must_parse(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(SystemExit, match="schema_version"):
            main(["train", "--dataset", "NCBI", "--scale", SCALE,
                  "--config", str(path)])
        with pytest.raises(SystemExit, match="cannot read"):
            main(["train", "--dataset", "NCBI", "--scale", SCALE,
                  "--config", str(tmp_path / "nope.json")])


class TestEvaluate:
    def test_json_payload(self, capsys):
        assert main(
            [
                "evaluate",
                "--dataset", "NCBI",
                "--system", "NormCo",
                "--scale", SCALE,
                "--epochs", "2",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "NormCo"
        assert 0.0 <= payload["f1"] <= 1.0


class TestReproduce:
    def test_table2(self, capsys):
        assert main(
            ["reproduce", "--experiment", "table2", "--datasets", "NCBI", "--scale", SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "NCBI" in out

    def test_fig4b_prints_curves(self, capsys):
        assert main(
            [
                "reproduce",
                "--experiment", "fig4b",
                "--datasets", "NCBI",
                "--scale", SCALE,
                "--epochs", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "NCBI" in out
        assert "ep0:" in out

    def test_table3_grid(self, capsys):
        assert main(
            [
                "reproduce",
                "--experiment", "table3",
                "--datasets", "NCBI",
                "--systems", "NormCo", "graphsage",
                "--scale", SCALE,
                "--epochs", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "graphsage" in out

    def test_table5_layer_sweep(self, capsys):
        assert main(
            [
                "reproduce",
                "--experiment", "table5",
                "--datasets", "NCBI",
                "--scale", SCALE,
                "--epochs", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "4 layers" in out


class TestKbPack:
    def test_pack_json_and_serve_from_bundle(self, checkpoint, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        assert main(
            ["kb", "pack", "--checkpoint", checkpoint, "--out", bundle, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bundle"] == bundle
        manifest = payload["manifest"]
        assert manifest["schema_version"] == 1
        assert manifest["h_ref"]["fingerprint"]
        for name in ("manifest.json", "features.npy", "h_ref.npy"):
            assert os.path.exists(os.path.join(bundle, name))
        # The packed bundle serves: --kb-bundle sets the bundle path.
        assert main(
            [
                "serve",
                "--checkpoint", checkpoint,
                "--dataset", "NCBI",
                "--scale", SCALE,
                "--limit", "4",
                "--kb-bundle", bundle,
                "--json",
                "--stats",
            ]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 5  # four predictions + the stats payload
        assert lines[4]["stats"]["storage_backend"] == "mmap"

    def test_pack_without_embeddings(self, checkpoint, tmp_path, capsys):
        bundle = str(tmp_path / "lean")
        assert main(
            ["kb", "pack", "--checkpoint", checkpoint, "--out", bundle,
             "--no-embeddings"]
        ) == 0
        out = capsys.readouterr().out
        assert "packed KB bundle" in out
        assert "not packed" in out
        assert not os.path.exists(os.path.join(bundle, "h_ref.npy"))

    def test_pack_with_index_and_indexed_serve(self, checkpoint, tmp_path, capsys):
        bundle = str(tmp_path / "indexed_bundle")
        assert main(
            ["kb", "pack", "--checkpoint", checkpoint, "--out", bundle,
             "--with-index", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["manifest"]["retrieval"]
        assert entry["backend"] == "ngram"
        assert entry["fingerprint"]
        for name in entry["arrays"]:
            assert os.path.exists(os.path.join(bundle, f"retrieval_{name}.npy"))
        # Serving --candidates indexed from that bundle maps the packed
        # index (same KB + config -> matching fingerprint) and reports
        # the generator through ServiceStats.
        assert main(
            [
                "serve",
                "--checkpoint", checkpoint,
                "--dataset", "NCBI",
                "--scale", SCALE,
                "--limit", "4",
                "--kb-bundle", bundle,
                "--candidates", "indexed",
                "--json",
                "--stats",
            ]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 5  # four predictions + the stats payload
        assert lines[4]["stats"]["candidate_generator"] == "indexed"

    def test_kb_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kb"])


class TestServeSigpipe:
    def test_closed_stdout_during_storage_init_exits_clean(self, checkpoint, tmp_path):
        # A downstream consumer hanging up while serve is still packing /
        # mapping the bundle (storage init; here a fresh directory) must
        # end the process SIGPIPE-clean: exit 0, no traceback on stderr.
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--checkpoint", checkpoint,
                "--input", "-",
                "--kb-bundle", str(tmp_path / "fresh-bundle"),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # hang up before the first prediction
        proc.stdin.write((SNIPPET_TEXT + "\n").encode())
        proc.stdin.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr.decode()
        assert b"Traceback" not in stderr


class TestServeSigint:
    def test_http_stops_on_sigint_inherited_as_ignored(self, checkpoint):
        # A job a non-interactive shell starts with `&` inherits SIGINT as
        # ignored (CI's smoke jobs start `repro serve --http` that way);
        # SIGINT must still end the server cleanly.
        import select
        import signal
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--checkpoint", checkpoint,
                "--http", "0",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            assert ready, "no output within 120 s"
            first = proc.stdout.readline()
            assert first.startswith(b"serving on http://"), first
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr.decode()
        assert b"shutting down" in stdout
        assert b"Traceback" not in stderr
