"""`engine run`, `engine generate` and `engine clean` run the stages of one
runner, data_engine.run_engine: each checks the stats and replays the audit,
and each reports what its stages dropped."""

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tagforge import data_engine
from tagforge.cli import cli

from engine_synth import build_synthetic_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build_synthetic_corpus(tmp_path_factory.mktemp("engine"), n_images=80, seed=57)


@pytest.fixture(scope="module")
def parsed(corpus, tmp_path_factory):
    """The parsed annotations `engine run` writes, as `engine generate`'s input."""
    out_dir = tmp_path_factory.mktemp("run")
    result = CliRunner().invoke(cli, _run_argv(corpus, out_dir))
    assert result.exit_code == 0, result.output
    return out_dir / "parsed.jsonl"


@pytest.fixture(scope="module")
def merged(corpus, parsed, tmp_path_factory):
    """`engine generate`'s output, which holds the false pairs, as `engine
    clean`'s input."""
    out_dir = tmp_path_factory.mktemp("generate")
    result = CliRunner().invoke(cli, _generate_argv(corpus, parsed, out_dir))
    assert result.exit_code == 0, result.output
    return out_dir / "merged.jsonl"


def _run_argv(corpus, out_dir: Path, regions=None) -> list[str]:
    cfg = corpus.config
    return [
        "engine", "run", "--captions", str(cfg.captions), "--vocab", str(cfg.vocab),
        "--regions", str(regions or cfg.regions),
        "--region-embeddings", str(cfg.region_embeddings), "--queries", str(cfg.queries),
        "--seed", str(cfg.seed), "--out-dir", str(out_dir),
    ]


def _generate_argv(corpus, annotations: Path, tmp_path: Path, generated=None) -> list[str]:
    return [
        "engine", "generate", "--annotations", str(annotations),
        "--vocab", str(corpus.config.vocab),
        "--generated-tags", str(generated or corpus.config.generated_tags[0]),
        "--out", str(tmp_path / "merged.jsonl"), "--audit", str(tmp_path / "audit.jsonl"),
    ]


def _clean_argv(corpus, annotations: Path, tmp_path: Path, **flags) -> list[str]:
    cfg = corpus.config
    inputs = {
        "regions": cfg.regions, "region-embeddings": cfg.region_embeddings,
        "queries": cfg.queries, "image-embeddings": cfg.image_embeddings, "seed": cfg.seed,
        **flags,
    }
    return [
        "engine", "clean", "--annotations", str(annotations), "--vocab", str(cfg.vocab),
        *(arg for flag, value in inputs.items() for arg in (f"--{flag}", str(value))),
        "--out", str(tmp_path / "cleaned.jsonl"), "--audit", str(tmp_path / "audit.jsonl"),
    ]


def _drop_first_event(monkeypatch, stage: str) -> None:
    """Make `stage` leave its first audit event out while its stats row
    still balances."""
    if stage == "generate":
        generate_merge = data_engine.generate_merge

        def merge(*args):
            merged, added, rejected = generate_merge(*args)
            return merged, np.append(added[1:], added[-1:]), rejected  # as many events as additions

        monkeypatch.setattr(data_engine, "generate_merge", merge)
        return
    apply_removals = data_engine.apply_removals

    def removals(annotations, keys, events):
        kept, keys, events = apply_removals(annotations, keys, events)
        if len(events) and data_engine.EVENTS[events[0]][2] == stage:  # as many events as removals
            keys = np.append(keys[1:], keys[-1:])
        return kept, keys, events

    monkeypatch.setattr(data_engine, "apply_removals", removals)


# a removal's pair is never added back, so a dropped removal always shows;
# a dropped addition shows when no later stage removes its pair
@pytest.mark.parametrize("command, stage", [
    ("run", "clean"), ("run", "filter"), ("generate", "generate"),
    ("clean", "clean"), ("clean", "filter"),
])
def test_every_engine_command_replays_its_audit(
    corpus, parsed, merged, tmp_path, monkeypatch, command, stage
):
    config = tmp_path / "engine.cfg"  # generation adds the false pairs clean and filter remove
    config.write_text(f"generated_tags = {corpus.config.generated_tags[0]}\n")
    argv = {
        "run": _run_argv(corpus, tmp_path / "out") + ["--config", str(config)],
        "generate": _generate_argv(corpus, parsed, tmp_path),
        "clean": _clean_argv(corpus, merged, tmp_path),
    }[command]
    _drop_first_event(monkeypatch, stage)
    result = CliRunner().invoke(cli, argv)
    assert result.exit_code == 1, result.output
    assert "engine stage 'audit' failed: replaying the audit" in result.stderr
    assert list(tmp_path.iterdir()) == [config]


def test_engine_run_reports_generated_records_naming_an_unknown_tag(corpus, parsed, tmp_path):
    generated = tmp_path / "generated.jsonl"
    generated.write_text(
        corpus.config.generated_tags[0].read_text() + '{"image_id": "zz", "tag_ids": [99999]}\n'
    )
    config = tmp_path / "engine.cfg"
    config.write_text(f"generated_tags = {generated}\n")
    result = CliRunner().invoke(
        cli, _run_argv(corpus, tmp_path / "out") + ["--config", str(config)]
    )
    assert result.exit_code == 0, result.output
    assert "generated tags, 1 rejected records\n" in result.stderr

    result = CliRunner().invoke(cli, _generate_argv(corpus, parsed, tmp_path, generated))
    assert result.exit_code == 0, result.output
    assert "generated tags, 1 rejected records\n" in result.stderr


def _regions_with_a_missing_key(corpus, tmp_path: Path) -> tuple[Path, dict]:
    lines = corpus.config.regions.read_text().splitlines()
    first = dict(json.loads(lines[0]), embedding_key="no-such-key")
    regions = tmp_path / "regions.jsonl"
    regions.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    return regions, first


@pytest.mark.parametrize("command", ["run", "clean"])
def test_the_filter_reports_the_pairs_it_skips(corpus, merged, tmp_path, command):
    # clean skips every category, as it refuses a missing key; the filter
    # skips the one pair whose region has none
    regions, first = _regions_with_a_missing_key(corpus, tmp_path)
    config = tmp_path / "engine.cfg"
    config.write_text("min_regions = 1000000\n")
    argv = {
        "run": _run_argv(corpus, tmp_path / "out", regions) + ["--config", str(config)],
        "clean": _clean_argv(corpus, merged, tmp_path, regions=regions, **{"min-regions": 10**6}),
    }[command]
    result = CliRunner().invoke(cli, argv)
    assert result.exit_code == 0, result.output
    skipped = [line for line in result.stderr.splitlines() if line.startswith("filter stage")]
    assert skipped == [
        f"filter stage, 1 skipped pairs, first: image {first['image_id']!r} tag "
        f"{first['tag_id']}: missing region embedding 'no-such-key'"
    ]


def test_engine_clean_stops_its_helpers_on_a_bad_input(corpus, parsed, tmp_path):
    malformed = tmp_path / "annotations.jsonl"
    malformed.write_text(parsed.read_text() + '{"image_id": "zz"}\n')
    lines = len(parsed.read_text().splitlines()) + 1
    for annotations, flags, message in (
        (malformed, {}, f"Error: {malformed}:{lines}: malformed annotation record\n"),
        (parsed, {"queries": corpus.config.captions}, "Error: engine stage 'filter' failed: "),
    ):
        result = CliRunner().invoke(
            cli, _clean_argv(corpus, annotations, tmp_path, workers=2, **flags)
        )
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith(message), result.stderr
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "cleaned.jsonl").exists()


def test_engine_run_reports_the_tags_outside_the_vocabulary(corpus, tmp_path):
    # two parsed surfaces the vocabulary lacks, and one seed-annotation tag id
    captions = tmp_path / "captions.jsonl"
    captions.write_text(
        corpus.config.captions.read_text()
        + '{"image_id": "zz", "caption": "a unicorn on a skateboard"}\n'
    )
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text('{"image_id": "zz", "tag_ids": [0, 99999]}\n')
    config = tmp_path / "engine.cfg"
    config.write_text(f"seed_annotations = {seeds}\n")
    for extra, count in ((False, 0), (True, 3)):
        argv = _run_argv(corpus, tmp_path / "out")
        if extra:
            argv[argv.index("--captions") + 1] = str(captions)
            argv += ["--config", str(config)]
        result = CliRunner().invoke(cli, argv)
        assert result.exit_code == 0, result.output
        lines = result.stderr.splitlines()
        parse = lines.index("parse stage, 0 rejected records")
        outside = [line for line in lines if "outside the vocabulary" in line]
        assert outside == [lines[parse + 1]] == [f"parse stage, {count} tags outside the vocabulary"]


@pytest.mark.parametrize("command", ["run", "clean"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_bad_regions_file_is_named_before_a_bad_region_embeddings_file(
    corpus, merged, tmp_path, command, workers
):
    regions = tmp_path / "regions.jsonl"
    regions.write_text(corpus.config.regions.read_text() + "{broken\n")
    line = len(corpus.config.regions.read_text().splitlines()) + 1
    embeddings = tmp_path / "regions.emb"
    embeddings.write_bytes(b"EMB2")
    argv = {
        "run": _run_argv(corpus, tmp_path / "out", regions),
        "clean": _clean_argv(corpus, merged, tmp_path, regions=regions),
    }[command]
    argv[argv.index("--region-embeddings") + 1] = str(embeddings)
    result = CliRunner().invoke(cli, argv + ["--workers", str(workers)])
    assert result.exit_code == 1, result.output
    assert result.stderr == (
        f"Error: engine stage 'clean' failed: {regions}:{line}: malformed region record\n"
    )
    assert multiprocessing.active_children() == []


def _clean_outputs(corpus, merged, tmp_path: Path, name: str, *extra, **flags):
    """`engine clean`'s output and audit bytes, written under tmp_path/name."""
    out = tmp_path / name
    out.mkdir()
    result = CliRunner().invoke(cli, _clean_argv(corpus, merged, out, **flags) + list(extra))
    assert result.exit_code == 0, result.output
    return (out / "cleaned.jsonl").read_bytes(), (out / "audit.jsonl").read_bytes()


@pytest.mark.parametrize("key, value, default", [
    ("fraction", "0.3", "0.1"), ("margin", "0.2", "0.05"),
    ("outlier_scope", "cluster", "category"), ("min_regions", "1000000", "20"),
])
def test_engine_clean_reads_its_keys_from_config_as_from_its_flags(
    corpus, merged, tmp_path, key, value, default
):
    config = tmp_path / "clean.cfg"
    config.write_text(f"{key} = {value}\n")
    flag = key.replace("_", "-")
    via_config = _clean_outputs(corpus, merged, tmp_path, "config", "--config", str(config))
    via_flag = _clean_outputs(corpus, merged, tmp_path, "flag", **{flag: value})
    flag_beats_file = _clean_outputs(
        corpus, merged, tmp_path, "both", "--config", str(config), **{flag: default}
    )
    assert via_config == via_flag
    assert flag_beats_file == _clean_outputs(corpus, merged, tmp_path, "default") != via_flag


def test_engine_clean_reads_tol_and_max_iter_from_config(corpus, merged, tmp_path):
    config = tmp_path / "clean.cfg"
    config.write_text("tol = 0.5\nmax_iter = 1\n")
    via_config = _clean_outputs(corpus, merged, tmp_path, "config", "--config", str(config))
    assert via_config != _clean_outputs(corpus, merged, tmp_path, "default")
    settings = dataclasses.replace(
        corpus.config, captions=None, out_dir=None, whitelist=None, generated_tags=[],
        fraction=0.1, tol=0.5, max_iter=1,
    )
    final, audit = tmp_path / "final.jsonl", tmp_path / "audit.jsonl"
    data_engine.run_engine(
        settings, merged, [data_engine.STAGE_CLEAN, data_engine.STAGE_FILTER],
        {"final": final, "audit": audit},
    )
    assert via_config == (final.read_bytes(), audit.read_bytes())


def test_engine_generate_reads_generated_tags_from_config_as_from_its_flag(
    corpus, parsed, tmp_path
):
    shutil.copy(corpus.config.generated_tags[0], tmp_path / "generated.jsonl")
    config = tmp_path / "generate.cfg"
    config.write_text("generated_tags = generated.jsonl\n")  # relative to the config file
    outputs = {}
    for name, flags in (
        ("flag", ["--generated-tags", str(tmp_path / "generated.jsonl")]),
        ("config", ["--config", str(config)]),
        ("none", []),
    ):
        out = tmp_path / name
        out.mkdir()
        argv = _generate_argv(corpus, parsed, out)
        at = argv.index("--generated-tags")
        del argv[at:at + 2]
        result = CliRunner().invoke(cli, argv + flags)
        assert result.exit_code == 0, result.output
        outputs[name] = (out / "merged.jsonl").read_bytes(), (out / "audit.jsonl").read_bytes()
    assert outputs["config"] == outputs["flag"] != outputs["none"]


def test_engine_run_reads_captions_from_a_pipe(corpus, parsed, tmp_path):
    argv = _run_argv(corpus, tmp_path / "out")
    argv[argv.index("--captions") + 1] = "/dev/stdin"
    path = [str(Path(data_engine.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-m", "tagforge.cli", *argv], capture_output=True,
        input=corpus.config.captions.read_bytes(),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "parsed.jsonl").read_bytes() == parsed.read_bytes()
