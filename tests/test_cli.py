import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import tagforge
from tagforge.cli import cli
from tagforge.embedding_store import EmbeddingTable, save_embeddings
from tagforge.similarity_tagger import prompt_key

from engine_synth import build_synthetic_corpus

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_matches_golden_bytes(runner, tmp_path):
    out_tags = tmp_path / "tags.jsonl"
    out_freq = tmp_path / "freq.tsv"
    result = runner.invoke(
        cli,
        [
            "parse",
            "--captions", str(DATA / "fixture_captions.jsonl"),
            "--out-tags", str(out_tags),
            "--out-freq", str(out_freq),
        ],
    )
    assert result.exit_code == 0, result.output
    assert out_tags.read_bytes() == (DATA / "fixture_tags.golden.jsonl").read_bytes()
    assert out_freq.read_bytes() == (DATA / "fixture_freq.golden.tsv").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_parse_reads_captions_from_a_pipe(tmp_path, workers):
    path = [str(Path(tagforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", "parse", "--captions", "/dev/stdin",
         "--out-tags", str(tmp_path / "tags.jsonl"), "--out-freq", str(tmp_path / "freq.tsv"),
         "--workers", workers],
        input=(DATA / "fixture_captions.jsonl").read_bytes(), capture_output=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    for name, golden in (("tags.jsonl", "fixture_tags.golden.jsonl"),
                         ("freq.tsv", "fixture_freq.golden.tsv")):
        assert (tmp_path / name).read_bytes() == (DATA / golden).read_bytes(), name


def test_parse_worker_counts_byte_identical(runner, tmp_path):
    outputs = []
    for workers in (1, 8):
        out_tags = tmp_path / f"tags{workers}.jsonl"
        out_freq = tmp_path / f"freq{workers}.tsv"
        result = runner.invoke(
            cli,
            [
                "parse",
                "--captions", str(DATA / "fixture_captions.jsonl"),
                "--out-tags", str(out_tags),
                "--out-freq", str(out_freq),
                "--workers", str(workers),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append((out_tags.read_bytes(), out_freq.read_bytes()))
    assert outputs[0] == outputs[1]


def test_unknown_subcommand_exits_2(runner):
    result = runner.invoke(cli, ["frobnicate"])
    assert result.exit_code == 2


def test_unknown_flag_exits_2(runner):
    result = runner.invoke(cli, ["parse", "--nonsense"])
    assert result.exit_code == 2


def test_missing_file_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        cli,
        [
            "parse",
            "--captions", str(tmp_path / "absent.jsonl"),
            "--out-tags", str(tmp_path / "t.jsonl"),
            "--out-freq", str(tmp_path / "f.tsv"),
        ],
    )
    assert result.exit_code == 2


def test_data_error_exits_1(runner, tmp_path):
    bad_vocab = tmp_path / "vocab.tsv"
    bad_vocab.write_text("not a vocabulary file\n")
    result = runner.invoke(
        cli,
        [
            "tag",
            "--embeddings", str(DATA / "fixture_captions.jsonl"),
            "--queries", str(DATA / "fixture_captions.jsonl"),
            "--vocab", str(bad_vocab),
            "--out", str(tmp_path / "out.jsonl"),
        ],
    )
    assert result.exit_code == 1
    assert "vocab" in result.output.lower() or "header" in result.output.lower()


def test_engine_run_bad_config_key_exits_1(runner, tmp_path):
    config = tmp_path / "engine.cfg"
    config.write_text("unknown_key = 1\nseed = 3\n")
    result = runner.invoke(cli, ["engine", "run", "--config", str(config)])
    assert result.exit_code == 1
    assert "unknown_key" in result.output


def test_engine_run_refuses_a_config_out_dir_that_is_a_file(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=20, seed=59)
    cfg = corpus.config
    out_file = tmp_path / "taken"
    out_file.write_text("")
    config = tmp_path / "engine.cfg"
    config.write_text(
        f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
        f"out_dir = taken\n"
    )
    result = runner.invoke(cli, ["engine", "run", "--config", str(config)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: config key 'out_dir': not a directory: {out_file}\n"
    assert result.stdout == ""


def test_help_lists_flags_with_defaults(runner):
    for args in (
        ["--help"],
        ["parse", "--help"],
        ["build-vocab", "--help"],
        ["build-queries", "--help"],
        ["tag", "--help"],
        ["engine", "--help"],
        ["engine", "generate", "--help"],
        ["engine", "clean", "--help"],
        ["engine", "run", "--help"],
        ["eval", "--help"],
        ["stats", "--help"],
    ):
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, args
        assert "--help" in result.output
    clean_help = runner.invoke(cli, ["engine", "clean", "--help"]).output
    assert "0.1" in clean_help  # fraction default surfaced in help


def _unit_rows(rng, n, dim):
    raw = rng.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def test_vocab_queries_tag_eval_round_trip(runner, tmp_path):
    """Drive build-vocab -> build-queries -> tag -> eval through the CLI."""
    rng = np.random.default_rng(40)
    freq = tmp_path / "freq.tsv"
    freq.write_text("dog\t9\ncat\t5\n")
    vocab_path = tmp_path / "vocab.tsv"
    result = runner.invoke(
        cli,
        ["build-vocab", "--freq", str(freq), "--k", "2", "--out", str(vocab_path)],
    )
    assert result.exit_code == 0, result.output

    templates = tmp_path / "templates.txt"
    templates.write_text("a photo of a {tag}\n")
    rows = _unit_rows(rng, 2, 8)
    prompts = {
        prompt_key("a photo of a {tag}", "cat"): rows[0],
        prompt_key("a photo of a {tag}", "dog"): rows[1],
    }
    prompts_path = tmp_path / "prompts.emb"
    save_embeddings(EmbeddingTable.from_vectors(prompts, normalized=True), prompts_path)
    queries_path = tmp_path / "queries.emb"
    result = runner.invoke(
        cli,
        [
            "build-queries",
            "--vocab", str(vocab_path),
            "--prompts", str(prompts_path),
            "--templates", str(templates),
            "--out", str(queries_path),
        ],
    )
    assert result.exit_code == 0, result.output

    # one image per class, exactly on the class query
    images_path = tmp_path / "images.emb"
    save_embeddings(
        EmbeddingTable.from_vectors(
            {"imgcat": rows[0], "imgdog": rows[1]}, normalized=True
        ),
        images_path,
    )
    predictions = tmp_path / "pred.jsonl"
    result = runner.invoke(
        cli,
        [
            "tag",
            "--embeddings", str(images_path),
            "--queries", str(queries_path),
            "--vocab", str(vocab_path),
            "--out", str(predictions),
        ],
    )
    assert result.exit_code == 0, result.output
    records = {
        obj["image_id"]: obj
        for obj in map(json.loads, predictions.read_text().splitlines())
    }
    assert records["imgcat"]["scores"]["0"] == 1.0  # cat is tag_id 0
    assert 0 in records["imgcat"]["tags"]

    gt = tmp_path / "gt.jsonl"
    gt.write_text(
        '{"image_id": "imgcat", "positive": [0], "negative": [1]}\n'
        '{"image_id": "imgdog", "positive": [1], "negative": [0]}\n'
    )
    report = tmp_path / "report.tsv"
    result = runner.invoke(
        cli,
        [
            "eval",
            "--predictions", str(predictions),
            "--ground-truth", str(gt),
            "--out", str(report),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "mAP\t1.0000" in result.output
    assert report.read_text().startswith("class_id\tap\n")


def _tag_eval_files(runner, tmp_path) -> dict[str, Path]:
    """A two-tag vocabulary, its label queries, two images and their ground truth."""
    files = {name: tmp_path / name for name in
             ("freq.tsv", "vocab.tsv", "templates.txt", "prompts.emb", "queries.emb",
              "images.emb", "gt.jsonl", "filter.txt")}
    files["freq.tsv"].write_text("dog\t9\ncat\t5\n")
    files["templates.txt"].write_text("a photo of a {tag}\n")
    rows = np.eye(4)[:2]
    save_embeddings(EmbeddingTable.from_vectors(
        {prompt_key("a photo of a {tag}", tag): row for tag, row in zip(("cat", "dog"), rows)},
        normalized=True), files["prompts.emb"])
    save_embeddings(EmbeddingTable.from_vectors({"a": rows[0], "b": rows[0]}, normalized=True),
                    files["images.emb"])
    for args in (
        ["build-vocab", "--freq", files["freq.tsv"], "--k", "2", "--out", files["vocab.tsv"]],
        ["build-queries", "--vocab", files["vocab.tsv"], "--prompts", files["prompts.emb"],
         "--templates", files["templates.txt"], "--out", files["queries.emb"]],
    ):
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, result.output
    # both images score 1 for cat (tag id 0) and 0 for dog (1)
    files["gt.jsonl"].write_text('{"image_id": "a", "positive": [0, 1]}\n'
                                 '{"image_id": "b", "negative": [0, 1]}\n')
    files["filter.txt"].write_text("1\n")
    return files


def test_eval_class_filter_narrows_precision_and_recall(runner, tmp_path):
    f = _tag_eval_files(runner, tmp_path)
    predictions = tmp_path / "pred.jsonl"
    result = runner.invoke(cli, [
        "tag", "--embeddings", str(f["images.emb"]), "--queries", str(f["queries.emb"]),
        "--vocab", str(f["vocab.tsv"]), "--out", str(predictions),
    ])
    assert result.exit_code == 0, result.output
    evaluate = ["eval", "--predictions", str(predictions), "--ground-truth", str(f["gt.jsonl"])]
    result = runner.invoke(cli, evaluate)
    assert result.output == (
        "mAP\t1.0000  (2 classes)\nmicro P/R\t0.5000 / 0.5000\nmacro P/R\t0.7500 / 0.5000\n"
    )
    # dog alone: ranked right (a ties b and comes first) but never predicted
    report = tmp_path / "report.tsv"
    result = runner.invoke(cli, evaluate + ["--class-filter", str(f["filter.txt"]),
                                            "--out", str(report)])
    assert result.exit_code == 0, result.output
    assert result.stdout == (
        "mAP\t1.0000  (1 classes)\nmicro P/R\t1.0000 / 0.0000\nmacro P/R\t1.0000 / 0.0000\n"
    )
    assert report.read_text().splitlines()[-4:] == [
        "#micro_precision\t1.000000", "#micro_recall\t0.000000",
        "#macro_precision\t1.000000", "#macro_recall\t0.000000",
    ]


def test_tag_refuses_embeddings_of_another_dimension_before_it_writes(runner, tmp_path):
    # a rerun with 5-d embeddings against 4-d queries keeps the earlier outputs
    f = _tag_eval_files(runner, tmp_path)
    predictions = tmp_path / "pred.jsonl"
    tag = ["tag", "--queries", str(f["queries.emb"]), "--vocab", str(f["vocab.tsv"]),
           "--out", str(predictions)]
    result = runner.invoke(cli, tag + ["--embeddings", str(f["images.emb"])])
    assert result.exit_code == 0, result.output
    before = predictions.read_bytes(), Path(f"{predictions}.scores").read_bytes()
    wide = tmp_path / "wide.emb"
    save_embeddings(EmbeddingTable.from_vectors({"a": np.eye(5)[0]}, normalized=True), wide)
    result = runner.invoke(cli, tag + ["--embeddings", str(wide)])
    assert result.exit_code == 1
    assert (predictions.read_bytes(), Path(f"{predictions}.scores").read_bytes()) == before
    assert result.stderr == "Error: dimension mismatch: embeddings are 5-d, queries are 4-d\n"


def _loaded_tagforge_modules(argv) -> set[str]:
    """The tagforge modules a fresh `python -m tagforge.cli ARGV` imports."""
    path = [str(Path(tagforge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "tagforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return set(re.findall(r"\btagforge(?:\.\w+)*", done.stderr))


def test_tag_and_eval_import_only_the_modules_they_run(runner, tmp_path):
    f = _tag_eval_files(runner, tmp_path)
    predictions = tmp_path / "pred.jsonl"
    tag = _loaded_tagforge_modules([
        "tag", "--embeddings", str(f["images.emb"]), "--queries", str(f["queries.emb"]),
        "--vocab", str(f["vocab.tsv"]), "--out", str(predictions),
    ])
    evaluate = ["eval", "--predictions", str(predictions), "--ground-truth", str(f["gt.jsonl"])]
    plain_eval = _loaded_tagforge_modules(evaluate)
    filtered_eval = _loaded_tagforge_modules(evaluate + ["--class-filter", str(f["filter.txt"])])
    assert {"tagforge.similarity_tagger", "tagforge.label_system"} <= tag
    assert {"tagforge.metrics", "tagforge.label_system"} <= filtered_eval
    for loaded in (tag, plain_eval, filtered_eval):
        assert not loaded & {"tagforge.caption_parser", "tagforge.pool"}, loaded
    assert "tagforge.metrics" in plain_eval and "tagforge.label_system" not in plain_eval


def test_tag_scores_nothing_against_an_empty_vocabulary(runner, tmp_path):
    # build-vocab --k 0 without seed lists writes a valid empty vocabulary,
    # and build-queries a query file of 0 rows from it
    freq = tmp_path / "freq.tsv"
    freq.write_text("dog\t9\n")
    vocab_path = tmp_path / "vocab.tsv"
    templates = tmp_path / "templates.txt"
    templates.write_text("a photo of a {tag}\n")
    prompts_path = tmp_path / "prompts.emb"
    images_path = tmp_path / "images.emb"
    row = np.eye(3)[0]
    prompts = {prompt_key("a photo of a {tag}", "dog"): row}
    save_embeddings(EmbeddingTable.from_vectors(prompts, normalized=True), prompts_path)
    save_embeddings(EmbeddingTable.from_vectors({"a": row}, normalized=True), images_path)
    queries_path = tmp_path / "queries.emb"
    predictions = tmp_path / "pred.jsonl"
    for args in (
        ["build-vocab", "--freq", str(freq), "--k", "0", "--out", str(vocab_path)],
        ["build-queries", "--vocab", str(vocab_path), "--prompts", str(prompts_path),
         "--templates", str(templates), "--out", str(queries_path)],
        ["tag", "--embeddings", str(images_path), "--queries", str(queries_path),
         "--vocab", str(vocab_path), "--out", str(predictions)],
    ):
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, (args[0], result.output)
    assert predictions.read_text() == '{"image_id": "a", "scores": {}, "tags": []}\n'


@pytest.mark.parametrize("seeds, freq, message", [
    ("cat|dog\n", "dog\t3\n", "surface 'cat|dog' holds '|' or a tab"),
    ("big\tcat\n", "dog\t3\n", "surface 'big\\tcat' holds '|' or a tab"),
    ("dog\n", "dog\t3\ncat|dog\t2\n", "surface 'cat|dog' holds '|' or a tab"),
], ids=["seed-bar", "seed-tab", "corpus-bar"])
def test_build_vocab_refuses_a_surface_its_file_cannot_store(runner, tmp_path, seeds, freq, message):
    # a '|' splits members and a tab splits fields in the vocabulary file
    (tmp_path / "seeds.txt").write_text(seeds)
    (tmp_path / "freq.tsv").write_text(freq)
    out = tmp_path / "vocab.tsv"
    result = runner.invoke(cli, [
        "build-vocab", "--freq", str(tmp_path / "freq.tsv"), "--k", "2",
        "--seeds", str(tmp_path / "seeds.txt"), "--out", str(out),
    ])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"Error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("dog\t3\ncat\t2\ndog\t1\n", ":3: repeated surface 'dog'"),
    ("dog\t3\ncat\t2\nbird\t-4\n", ":3: negative count -4"),
], ids=["repeated", "negative"])
def test_build_vocab_refuses_a_repeated_surface_or_a_negative_count(runner, tmp_path, rows, message):
    freq = tmp_path / "freq.tsv"
    freq.write_text(rows)
    out = tmp_path / "vocab.tsv"
    result = runner.invoke(cli, ["build-vocab", "--freq", str(freq), "--k", "3", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr == f"Error: {freq}{message}\n"
    assert not out.exists()


def test_engine_run_matches_staged_commands(runner, tmp_path):
    """`engine run` equals `engine generate` + `engine clean` on the same inputs."""
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=60, seed=55)
    cfg = corpus.config
    out_dir = tmp_path / "out"
    config_file = tmp_path / "engine.cfg"
    config_file.write_text(
        f"captions = {cfg.captions}\n"
        f"vocab = {cfg.vocab}\n"
        f"regions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\n"
        f"queries = {cfg.queries}\n"
        f"image_embeddings = {cfg.image_embeddings}\n"
        f"generated_tags = {cfg.generated_tags[0]}\n"
        f"whitelist = {cfg.whitelist}\n"
        f"out_dir = {out_dir}\n"
        f"seed = {cfg.seed}\n"
    )
    result = runner.invoke(cli, ["engine", "run", "--config", str(config_file)])
    assert result.exit_code == 0, result.output
    for name in ("parsed.jsonl", "final.jsonl", "audit.jsonl", "stats.tsv"):
        assert (out_dir / name).is_file()
    assert "parse\t" in result.output and "filter\t" in result.output

    merged = tmp_path / "merged.jsonl"
    result = runner.invoke(
        cli,
        [
            "engine", "generate",
            "--annotations", str(out_dir / "parsed.jsonl"),
            "--vocab", str(cfg.vocab),
            "--generated-tags", str(cfg.generated_tags[0]),
            "--out", str(merged),
        ],
    )
    assert result.exit_code == 0, result.output

    cleaned = tmp_path / "cleaned.jsonl"
    result = runner.invoke(
        cli,
        [
            "engine", "clean",
            "--annotations", str(merged),
            "--vocab", str(cfg.vocab),
            "--regions", str(cfg.regions),
            "--region-embeddings", str(cfg.region_embeddings),
            "--queries", str(cfg.queries),
            "--image-embeddings", str(cfg.image_embeddings),
            "--whitelist", str(cfg.whitelist),
            "--seed", str(cfg.seed),
            "--out", str(cleaned),
        ],
    )
    assert result.exit_code == 0, result.output
    assert cleaned.read_bytes() == (out_dir / "final.jsonl").read_bytes()

    result = runner.invoke(cli, ["stats", "--stats-file", str(out_dir / "stats.tsv")])
    assert result.exit_code == 0, result.output


def test_staged_commands_audit_equals_engine_run_audit(runner, tmp_path):
    """`engine generate --audit` followed by `engine clean --audit` is, byte
    for byte, the audit.jsonl of `engine run` on the same inputs."""
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=80, seed=57)
    cfg = corpus.config
    out_dir = tmp_path / "out"
    config_file = tmp_path / "engine.cfg"
    config_file.write_text(
        f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
        f"image_embeddings = {cfg.image_embeddings}\ngenerated_tags = {cfg.generated_tags[0]}\n"
        f"outlier_scope = cluster\nout_dir = {out_dir}\nseed = {cfg.seed}\n"
    )
    result = runner.invoke(cli, ["engine", "run", "--config", str(config_file), "--workers", "2"])
    assert result.exit_code == 0, result.output

    merged, cleaned = tmp_path / "merged.jsonl", tmp_path / "cleaned.jsonl"
    generate_audit, clean_audit = tmp_path / "generate.audit.jsonl", tmp_path / "clean.audit.jsonl"
    result = runner.invoke(cli, [
        "engine", "generate", "--annotations", str(out_dir / "parsed.jsonl"),
        "--vocab", str(cfg.vocab), "--generated-tags", str(cfg.generated_tags[0]),
        "--workers", "2", "--out", str(merged), "--audit", str(generate_audit),
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli, [
        "engine", "clean", "--annotations", str(merged), "--vocab", str(cfg.vocab),
        "--regions", str(cfg.regions), "--region-embeddings", str(cfg.region_embeddings),
        "--queries", str(cfg.queries), "--image-embeddings", str(cfg.image_embeddings),
        "--outlier-scope", "cluster", "--seed", str(cfg.seed), "--workers", "2",
        "--out", str(cleaned), "--audit", str(clean_audit),
    ])
    assert result.exit_code == 0, result.output

    audit = (out_dir / "audit.jsonl").read_bytes()
    assert generate_audit.read_bytes() + clean_audit.read_bytes() == audit
    assert cleaned.read_bytes() == (out_dir / "final.jsonl").read_bytes()
    for reason in ("generated", "outlier", "no_prediction", "contrary"):
        assert f'"reason": "{reason}"'.encode() in audit, reason


def _engine_inputs(corpus, tmp_path: Path) -> dict[str, list[str]]:
    """Valid inputs of each command that takes engine values."""
    cfg = corpus.config
    return {
        "parse": [
            "parse", "--captions", str(cfg.captions), "--out-tags", str(tmp_path / "tags.jsonl"),
            "--out-freq", str(tmp_path / "freq.tsv"),
        ],
        "engine generate": [
            "engine", "generate", "--annotations", str(_planted_annotations(corpus, tmp_path)),
            "--vocab", str(cfg.vocab), "--generated-tags", str(cfg.generated_tags[0]),
            "--out", str(tmp_path / "merged.jsonl"),
        ],
        "engine clean": [
            "engine", "clean", "--annotations", str(_planted_annotations(corpus, tmp_path)),
            "--vocab", str(cfg.vocab), "--regions", str(cfg.regions),
            "--region-embeddings", str(cfg.region_embeddings), "--queries", str(cfg.queries),
            "--out", str(tmp_path / "cleaned.jsonl"),
        ],
    }


@pytest.mark.parametrize("command, key, value, source", [
    ("parse", "workers", "0", "flag"),
    ("parse", "workers", "-3", "flag"),
    ("parse", "workers", "0", "config"),
    ("engine generate", "workers", "0", "flag"),
    ("engine generate", "workers", "-3", "flag"),
    ("engine clean", "workers", "0", "flag"),
    ("engine clean", "workers", "-3", "flag"),
    ("engine clean", "workers", "0", "config"),
    ("engine clean", "margin", "-1", "flag"),
    ("engine clean", "margin", "nan", "flag"),
    ("engine clean", "min_regions", "-5", "flag"),
    ("engine clean", "fraction", "1.0", "flag"),
    ("engine clean", "margin", "-1", "config"),
    ("engine clean", "fraction", "1.0", "config"),
    ("engine clean", "min_regions", "-5", "config"),
    ("parse", "seed", "-1", "flag"),
    ("parse", "seed", "18446744073709551616", "config"),
    ("engine generate", "seed", "18446744073709551616", "flag"),
    ("engine clean", "seed", "-1", "flag"),
    ("engine clean", "seed", "-0x1", "config"),
    ("parse", "bogus_key", "1", "config"),
    ("engine generate", "bogus_key", "1", "config"),
    ("engine clean", "bogus_key", "1", "config"),
])
def test_subcommands_reject_engine_values_as_engine_run_does(
    runner, tmp_path, command, key, value, source
):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=20, seed=59)
    cfg = corpus.config
    engine_config = tmp_path / "engine.cfg"
    engine_config.write_text(
        f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
        f"out_dir = {tmp_path / 'run'}\n{key} = {value}\n"
    )
    expected = runner.invoke(cli, ["engine", "run", "--config", str(engine_config)])
    assert expected.exit_code == 1
    assert expected.stderr.startswith(f"Error: config key {key!r}: ")

    command_config = tmp_path / "command.cfg"
    command_config.write_text(f"{key} = {value}\n")
    flag = ["--" + key.replace("_", "-"), value]
    argv = _engine_inputs(corpus, tmp_path)[command]
    result = runner.invoke(cli, argv + (flag if source == "flag" else ["--config", str(command_config)]))
    assert result.exit_code == 1, result.output
    assert result.stderr == expected.stderr
    assert not any(tmp_path.glob("*.tsv")) and not (tmp_path / "cleaned.jsonl").exists()
    assert not (tmp_path / "merged.jsonl").exists() and not (tmp_path / "run").exists()


def test_parse_reads_lexicon_dir_from_its_config_as_from_its_flag(runner, tmp_path):
    from tagforge.caption_parser import default_lexicon_dir

    lexicons = tmp_path / "lexicons"
    shutil.copytree(default_lexicon_dir(), lexicons)
    with open(lexicons / "stopwords.txt", "a") as stopwords:
        stopwords.write("dog\n")
    config = tmp_path / "parse.cfg"
    config.write_text("lexicon_dir = lexicons\n")  # relative to the config file's directory
    outputs = {}
    for name, flags in (
        ("flag", ["--lexicon-dir", str(lexicons)]), ("config", ["--config", str(config)]),
        ("packaged", []), ("flag beats config", ["--config", str(config), "--lexicon-dir",
                                                 str(default_lexicon_dir())]),
    ):
        out = tmp_path / name
        out.mkdir()
        result = runner.invoke(cli, [
            "parse", "--captions", str(DATA / "fixture_captions.jsonl"),
            "--out-tags", str(out / "tags.jsonl"), "--out-freq", str(out / "freq.tsv"), *flags,
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = (out / "tags.jsonl").read_bytes(), (out / "freq.tsv").read_bytes()
    assert outputs["config"] == outputs["flag"]
    assert outputs["flag beats config"] == outputs["packaged"] != outputs["flag"]
    assert b"dog" in outputs["packaged"][1] and b"dog" not in outputs["flag"][1]


def test_engine_run_reports_parse_rejects(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=40, seed=56)
    cfg = corpus.config
    bad_captions = tmp_path / "captions_bad.jsonl"
    bad_captions.write_text(cfg.captions.read_text() + "{not json\n")
    outputs = {}
    for name, captions in (("clean", cfg.captions), ("bad", bad_captions)):
        result = runner.invoke(cli, [
            "engine", "run", "--captions", str(captions), "--vocab", str(cfg.vocab),
            "--regions", str(cfg.regions), "--region-embeddings", str(cfg.region_embeddings),
            "--queries", str(cfg.queries), "--out-dir", str(tmp_path / name), "--seed", "7",
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = result
    assert "parse stage, 0 rejected records" in outputs["clean"].stderr
    assert "parse stage, 1 rejected records" in outputs["bad"].stderr
    assert "reject reason: invalid JSON (1)" in outputs["bad"].stderr
    # the malformed line adds nothing, so stdout and the outputs are unchanged
    assert outputs["bad"].stdout == outputs["clean"].stdout
    for name in ("parsed.jsonl", "final.jsonl", "audit.jsonl", "stats.tsv"):
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_engine_run_seed_defaults_to_zero_as_its_help_says(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=80, seed=58)
    cfg = corpus.config
    outputs = {}
    for name, flags in (("default", []), ("seed 0", ["--seed", "0"]), ("seed 7", ["--seed", "7"])):
        result = runner.invoke(cli, [
            "engine", "run", "--captions", str(cfg.captions), "--vocab", str(cfg.vocab),
            "--regions", str(cfg.regions), "--region-embeddings", str(cfg.region_embeddings),
            "--queries", str(cfg.queries), "--out-dir", str(tmp_path / name), *flags,
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = [(tmp_path / name / f).read_bytes() for f in ("final.jsonl", "audit.jsonl")]
    assert outputs["default"] == outputs["seed 0"]
    assert outputs["seed 7"][1] != outputs["seed 0"][1]
    help_text = " ".join(runner.invoke(cli, ["engine", "run", "--help"]).output.split())
    assert "Random seed [default: 0, or the config file's seed]" in help_text


def test_generated_caption_rejects_reported(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=40, seed=58)
    cfg = corpus.config
    good = tmp_path / "generated_good.jsonl"
    good.write_text(cfg.captions.read_text())
    bad = tmp_path / "generated_bad.jsonl"
    bad.write_text(cfg.captions.read_text() + "{broken\n")
    outputs = {}
    for name, generated in (("good", good), ("bad", bad)):
        config_file = tmp_path / f"{name}.cfg"
        config_file.write_text(
            f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
            f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
            f"generated_captions = {generated}\nout_dir = {tmp_path / name}\nseed = 7\n"
        )
        result = runner.invoke(cli, ["engine", "run", "--config", str(config_file)])
        assert result.exit_code == 0, result.output
        outputs[name] = result
    assert "generate stage, 0 rejected records" in outputs["good"].stderr
    assert "generate stage, 1 rejected records" in outputs["bad"].stderr
    assert "reject reason: invalid JSON (1)" in outputs["bad"].stderr
    assert outputs["bad"].stdout == outputs["good"].stdout
    for name in ("parsed.jsonl", "final.jsonl", "audit.jsonl", "stats.tsv"):
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()

    merged = {}
    for name, generated in (("good", good), ("bad", bad)):
        merged[name] = tmp_path / f"merged_{name}.jsonl"
        result = runner.invoke(cli, [
            "engine", "generate", "--annotations", str(tmp_path / "good" / "parsed.jsonl"),
            "--vocab", str(cfg.vocab), "--generated-captions", str(generated),
            "--out", str(merged[name]),
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = result
    assert "generate stage, 0 rejected records" in outputs["good"].stderr
    assert "generate stage, 1 rejected records" in outputs["bad"].stderr
    assert "reject reason: invalid JSON (1)" in outputs["bad"].stderr
    assert outputs["bad"].stdout == outputs["good"].stdout
    assert merged["bad"].read_bytes() == merged["good"].read_bytes()


def test_engine_commands_count_generated_caption_tags_outside_the_vocabulary(runner, tmp_path):
    import dataclasses

    from tagforge.data_engine import run_engine
    from tagforge.label_system import build_label_system, save_vocabulary

    from engine_synth import TAG_SURFACES

    corpus = build_synthetic_corpus(tmp_path / "c", n_images=40, seed=58)
    cfg = corpus.config
    # each caption holds one tag in both vocabularies, and one in neither
    outside = ["zebra", "whale", "camel"]
    generated = tmp_path / "generated_captions.jsonl"
    generated.write_text("".join(
        json.dumps({"image_id": f"img{i:05d}", "caption": f"a dog and a {outside[i % 3]}"}) + "\n"
        for i in range(30)
    ))
    extra = ["ant", "apple", "ball", "bat", "bee", "cake", "crab", "drum", "egg", "fan"]
    vocab60 = tmp_path / "vocab60.tsv"
    save_vocabulary(build_label_system({s: 100 for s in TAG_SURFACES + extra}, k=60), vocab60)
    result = runner.invoke(cli, [
        "engine", "generate", "--annotations", str(_planted_annotations(corpus, tmp_path)),
        "--vocab", str(vocab60), "--generated-captions", str(generated),
        "--out", str(tmp_path / "merged.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "generate stage, 30 tags outside the vocabulary\n" in result.stderr

    config_file = tmp_path / "engine.cfg"
    config_file.write_text(
        f"captions = {cfg.captions}\nvocab = {cfg.vocab}\nregions = {cfg.regions}\n"
        f"region_embeddings = {cfg.region_embeddings}\nqueries = {cfg.queries}\n"
        f"generated_captions = {generated}\nout_dir = {tmp_path / 'out'}\nseed = 7\n"
    )
    result = runner.invoke(cli, ["engine", "run", "--config", str(config_file)])
    assert result.exit_code == 0, result.output
    assert "parse stage, 0 tags outside the vocabulary\n" in result.stderr
    assert "generate stage, 30 tags outside the vocabulary\n" in result.stderr
    run = run_engine(dataclasses.replace(cfg, generated_captions=[generated]), outputs={})
    assert (run.unmapped_surfaces, run.generated_unmapped) == (0, 30)


def test_engine_clean_worker_counts_byte_identical(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=80, seed=57)
    cfg = corpus.config
    outputs = {}
    for workers in (1, 2):
        out, audit = tmp_path / f"clean{workers}.jsonl", tmp_path / f"audit{workers}.jsonl"
        result = runner.invoke(cli, [
            "engine", "clean",
            "--annotations", str(_planted_annotations(corpus, tmp_path)),
            "--vocab", str(cfg.vocab),
            "--regions", str(cfg.regions),
            "--region-embeddings", str(cfg.region_embeddings),
            "--queries", str(cfg.queries),
            "--outlier-scope", "cluster",
            "--seed", "3",
            "--workers", str(workers),
            "--out", str(out),
            "--audit", str(audit),
        ])
        assert result.exit_code == 0, result.output
        outputs[workers] = (out.read_bytes(), audit.read_bytes(), result.stderr)
    assert b'"reason": "outlier"' in outputs[1][1]
    assert outputs[1] == outputs[2]


def test_engine_clean_reads_seed_and_workers_from_config(runner, tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "c", n_images=80, seed=57)
    cfg = corpus.config
    config_file = tmp_path / "clean.cfg"
    config_file.write_text("seed = 7\nworkers = 2\n")
    outputs = {}
    for name, flags in (
        ("config", ["--config", str(config_file)]), ("seed 7", ["--seed", "7"]), ("seed 0", []),
    ):
        out, audit = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.audit.jsonl"
        result = runner.invoke(cli, [
            "engine", "clean",
            "--annotations", str(_planted_annotations(corpus, tmp_path)),
            "--vocab", str(cfg.vocab),
            "--regions", str(cfg.regions),
            "--region-embeddings", str(cfg.region_embeddings),
            "--queries", str(cfg.queries),
            "--out", str(out),
            "--audit", str(audit),
            *flags,
        ])
        assert result.exit_code == 0, result.output
        outputs[name] = (out.read_bytes(), audit.read_bytes(), result.stderr)
    assert outputs["config"] == outputs["seed 7"]
    assert outputs["seed 0"][1] != outputs["seed 7"][1]


def _planted_annotations(corpus, tmp_path: Path) -> Path:
    """The planted ground truth plus the injected false pairs, as an
    annotations file for `engine clean`."""
    path = tmp_path / "annotations.jsonl"
    by_image: dict[str, list[int]] = {}
    for image_id, tag_id in sorted(corpus.truth | corpus.injected):
        by_image.setdefault(image_id, []).append(tag_id)
    path.write_text("".join(
        json.dumps({"image_id": i, "tags": [{"tag_id": t, "provenance": "parsed"} for t in ts]})
        + "\n"
        for i, ts in by_image.items()
    ))
    return path


def test_stats_command_renders_and_validates(runner, tmp_path):
    stats_path = tmp_path / "stats.tsv"
    stats_path.write_text(
        "#tagforge-engine-stats v1\n"
        "stage\timages\ttags\tadded\tremoved_outlier\tremoved_no_prediction\tremoved_contrary\n"
        "parse\t5\t50\t50\t0\t0\t0\n"
        "generate\t6\t70\t20\t0\t0\t0\n"
        "clean\t6\t65\t0\t5\t0\t0\n"
        "filter\t6\t62\t0\t0\t2\t1\n"
    )
    result = runner.invoke(cli, ["stats", "--stats-file", str(stats_path)])
    assert result.exit_code == 0, result.output
    assert "parse" in result.output and "filter" in result.output

    stats_path.write_text(
        "#tagforge-engine-stats v1\n"
        "stage\timages\ttags\tadded\tremoved_outlier\tremoved_no_prediction\tremoved_contrary\n"
        "parse\t5\t50\t49\t0\t0\t0\n"
    )
    result = runner.invoke(cli, ["stats", "--stats-file", str(stats_path)])
    assert result.exit_code == 1
    assert "conservation" in result.output


def test_stats_command_refuses_a_file_without_stage_rows(runner, tmp_path):
    stats_path = tmp_path / "stats.tsv"
    stats_path.write_text(
        "#tagforge-engine-stats v1\n"
        "stage\timages\ttags\tadded\tremoved_outlier\tremoved_no_prediction\tremoved_contrary\n"
    )
    result = runner.invoke(cli, ["stats", "--stats-file", str(stats_path)])
    assert (result.exit_code, result.output) == (1, f"Error: {stats_path}: no stage rows\n")


def test_selftest_is_not_a_command(runner):
    result = runner.invoke(cli, ["selftest"])
    assert result.exit_code == 2
    assert "No such command 'selftest'" in result.output


def test_seed_help_states_the_seed_each_command_uses(runner, tmp_path):
    def help_text(*args):
        return " ".join(runner.invoke(cli, [*args, "--help"]).output.split())

    assert "Random seed [default: 0, or the config file's seed]" in help_text("engine", "clean")
    for args in (["parse"], ["engine", "generate"]):  # neither reads the seed key
        text = help_text(*args)
        assert "Range-checked, then unused: this command draws no random numbers." in text
        assert "Random seed" not in text
    captions = tmp_path / "captions.jsonl"
    captions.write_text('{"image_id": "a", "caption": "a red dog"}\n')
    result = runner.invoke(cli, [
        "parse", "--captions", str(captions), "--out-tags", str(tmp_path / "tags.jsonl"),
        "--out-freq", str(tmp_path / "freq.tsv"), "--seed", "-1",
    ])
    assert result.exit_code == 1
    assert "config key 'seed': -1 outside [0, 2^64)" in result.output


def _unreachable_after_main(argv) -> int:
    """What the cyclic collector finds to free after main(argv), which runs
    the command with the collector off."""
    import gc

    from tagforge.cli import main

    was = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_commands_leave_little_for_the_cyclic_collector(tmp_path):
    corpus = build_synthetic_corpus(tmp_path / "corpus", n_images=1000, seed=5)
    config = corpus.config
    gt = tmp_path / "gt.jsonl"
    truth: dict[str, list[int]] = {}
    for image_id, tag_id in sorted(corpus.truth):
        truth.setdefault(image_id, []).append(tag_id)
    gt.write_text("".join(
        json.dumps({"image_id": image_id, "positive": tags, "negative": []}) + "\n"
        for image_id, tags in truth.items()
    ))
    out = tmp_path / "out"
    out.mkdir()
    commands = {
        "parse": [
            "parse", "--captions", str(config.captions), "--out-tags", str(out / "tags.jsonl"),
            "--out-freq", str(out / "freq.tsv"), "--workers", "2",
        ],
        "build-vocab": [
            "build-vocab", "--freq", str(out / "freq.tsv"), "--k", "20",
            "--out", str(out / "vocab.tsv"),
        ],
        "tag": [
            "tag", "--embeddings", str(config.image_embeddings), "--queries", str(config.queries),
            "--vocab", str(config.vocab), "--out", str(out / "pred.jsonl"),
        ],
        "eval": [
            "eval", "--predictions", str(out / "pred.jsonl"), "--ground-truth", str(gt),
            "--out", str(out / "report.tsv"),
        ],
    }
    left = {name: _unreachable_after_main(argv) for name, argv in commands.items()}
    assert all(n < 100 for n in left.values()), left


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_cyclic_collector_state(collecting):
    import gc

    from tagforge.cli import main

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(SystemExit):
            main(["--version"])
        assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["stats", "--stats-file", "no-such-file"])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
