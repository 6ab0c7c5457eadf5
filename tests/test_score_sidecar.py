"""The SCR1 score sidecar `tag` writes beside its predictions: its layout,
that `eval` builds the same matrices from it as from the JSONL, that it is
the same at every worker count, and that a sidecar `eval` cannot trust
(missing, truncated, bit-flipped, stale or foreign) changes no report or
error message."""

import hashlib
import json
import os
import shutil
import struct

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import metrics, similarity_tagger
from tagforge.cli import cli
from tagforge.embedding_store import EmbeddingTable, save_embeddings
from tagforge.metrics import load_eval_instances
from tagforge.similarity_tagger import (
    WRITE_CHUNK_ROWS,
    LabelQueryMatrix,
    ThresholdProfile,
    prompt_key,
    read_score_sidecar,
    round_scores,
    score_sidecar_path,
    write_predictions,
)

# values whose JSON text is not the plain six-decimal form, NaNs of both signs
ODD_VALUES = [0.0, -0.0, 1e-07, -1e-07, 4e-07, 5e-324, 0.0001, 0.000123, -0.5, 0.123456,
              1.0, -1.5, 1e17, np.nan, -np.nan, np.inf, -np.inf]


def _unit_rows(rng, n, dim):
    raw = rng.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def _fixed_score_tagger(monkeypatch, rows, tag_ids):
    """A table of one-hot image vectors and a patched `score` that returns
    rows[i] for image i."""
    rows = np.asarray(rows, dtype=np.float64)
    dim = max(len(rows), len(tag_ids))
    table = EmbeddingTable([f"img{i:04d}" for i in range(len(rows))], np.eye(len(rows), dim))
    queries = LabelQueryMatrix(
        "v", tuple(tag_ids), tuple(f"t{i}" for i in range(len(tag_ids))), np.eye(len(tag_ids), dim)
    )
    monkeypatch.setattr(similarity_tagger, "score",
                        lambda embedding, _: rows[int(np.argmax(embedding))].copy())
    return table, queries


def _odd_rows(n_images):
    rng = np.random.default_rng(91)
    width = len(ODD_VALUES)
    rows = rng.uniform(-1, 1, (n_images, width)) * 10.0 ** rng.integers(-8, 1, (n_images, width))
    for i in range(0, n_images, 3):
        rows[i] = np.roll(ODD_VALUES, i)
    return rows


def _ground_truth(path, image_ids, class_ids):
    rng = np.random.default_rng(92)
    lines = [
        json.dumps({"image_id": image_id,
                    "positive": [int(c) for c in rng.choice(class_ids, 2, replace=False)],
                    "negative": [int(rng.choice(class_ids))]})
        for image_id in image_ids[::2]
    ]
    # an image and a class that only the ground truth has
    lines.append(json.dumps({"image_id": "gt-only", "positive": [999], "negative": [class_ids[0]]}))
    path.write_text("\n".join(lines) + "\n")
    return path


def _assert_same_instances(got, want):
    assert got.image_ids == want.image_ids
    assert got.class_ids == want.class_ids
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def _json_path_instances(pred, truth):
    """load_eval_instances with the sidecar moved away, then put back."""
    sidecar = score_sidecar_path(pred)
    hidden = sidecar.with_name(sidecar.name + ".hidden")
    sidecar.rename(hidden)
    try:
        return load_eval_instances(pred, truth)
    finally:
        hidden.rename(sidecar)


@pytest.mark.parametrize("n_images", [1, WRITE_CHUNK_ROWS + 7])
def test_sidecar_and_json_build_bit_equal_instances(tmp_path, monkeypatch, n_images):
    tag_ids = [(5 * c) % 23 for c in range(len(ODD_VALUES))]  # not ascending
    table, queries = _fixed_score_tagger(monkeypatch, _odd_rows(n_images), tag_ids)
    pred = tmp_path / "pred.jsonl"
    write_predictions(table, queries, ThresholdProfile(0.1), pred)
    truth = _ground_truth(tmp_path / "gt.jsonl", sorted(table.keys), tag_ids)

    predictions_parsed = []
    read = metrics.jsonl.read
    monkeypatch.setattr(metrics.jsonl, "read", lambda path, what, *rest: (
        predictions_parsed.append(what) or read(path, what, *rest)))
    with_sidecar = load_eval_instances(pred, truth)
    assert "prediction" not in predictions_parsed  # the scores came from the sidecar
    without = _json_path_instances(pred, truth)
    assert "prediction" in predictions_parsed
    _assert_same_instances(with_sidecar, without)
    assert "gt-only" in with_sidecar.image_ids and 999 in with_sidecar.class_ids
    assert np.isnan(with_sidecar.scores).any()
    assert (np.signbit(with_sidecar.scores) & (with_sidecar.scores == 0)).any()  # -0.0


def test_sidecar_layout(tmp_path):
    rng = np.random.default_rng(93)
    tag_ids = (9, 3, 7, 1)
    queries = LabelQueryMatrix("v", tag_ids, ("a", "b", "c", "d"), _unit_rows(rng, 4, 6))
    image_ids = ["b", "a", "café", " ", ""]
    table = EmbeddingTable(image_ids, _unit_rows(rng, len(image_ids), 6))
    pred = tmp_path / "pred.jsonl"
    write_predictions(table, queries, ThresholdProfile(), pred)

    data = score_sidecar_path(pred).read_bytes()
    assert data[:4] == b"SCR1"
    assert struct.unpack_from("<II", data, 4) == (5, 4)
    assert struct.unpack_from("<4q", data, 12) == tag_ids
    offset, ids = 12 + 4 * 8, []
    for _ in range(5):
        (length,) = struct.unpack_from("<I", data, offset)
        ids.append(data[offset + 4 : offset + 4 + length].decode("utf-8"))
        offset += 4 + length
    assert ids == sorted(image_ids)
    matrix = np.frombuffer(data[offset : offset + 5 * 4 * 8], "<f8").reshape(5, 4)
    want = round_scores(table.rows(sorted(image_ids)) @ queries.matrix.T)
    assert matrix.tobytes() == want.tobytes()
    offset += 5 * 4 * 8
    assert data[offset : offset + 32] == hashlib.sha256(pred.read_bytes()).digest()
    assert data[offset + 32 :] == hashlib.sha256(data[: offset + 32]).digest()
    assert len(data) == offset + 64

    got_ids, got_tags, got_matrix = read_score_sidecar(pred)
    assert (got_ids, got_tags) == (sorted(image_ids), list(tag_ids))
    assert got_matrix.tobytes() == want.tobytes()


def test_sidecar_with_repeated_tag_ids_is_not_trusted(tmp_path):
    # json.loads keeps one value of a repeated key, where the sidecar has both
    rng = np.random.default_rng(94)
    queries = LabelQueryMatrix("v", (4, 2, 4), ("a", "b", "c"), _unit_rows(rng, 3, 5))
    table = EmbeddingTable([f"i{n}" for n in range(6)], _unit_rows(rng, 6, 5))
    pred = tmp_path / "pred.jsonl"
    write_predictions(table, queries, ThresholdProfile(), pred)
    truth = _ground_truth(tmp_path / "gt.jsonl", sorted(table.keys), [2, 4])
    assert read_score_sidecar(pred) is None
    _assert_same_instances(load_eval_instances(pred, truth), _json_path_instances(pred, truth))


# -- through the CLI ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def tagged(tmp_path_factory):
    """Vocabulary, queries, images and ground truth, and `tag`'s output at
    --workers 1 and 2."""
    root = tmp_path_factory.mktemp("tagged")
    rng = np.random.default_rng(95)
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, result.output

    names = [f"tag{i:02d}" for i in range(12)]
    (root / "freq.tsv").write_text("".join(f"{n}\t{100 - i}\n" for i, n in enumerate(names)))
    invoke("build-vocab", "--freq", root / "freq.tsv", "--k", 12, "--out", root / "vocab.tsv")
    (root / "templates.txt").write_text("a photo of a {tag}\n")
    prompts = dict(zip((prompt_key("a photo of a {tag}", n) for n in names),
                       _unit_rows(rng, len(names), 8)))
    save_embeddings(EmbeddingTable.from_vectors(prompts, normalized=True), root / "prompts.emb")
    invoke("build-queries", "--vocab", root / "vocab.tsv", "--prompts", root / "prompts.emb",
           "--templates", root / "templates.txt", "--out", root / "queries.emb")
    images = {f"img{i:03d}": row for i, row in enumerate(_unit_rows(rng, 30, 8))}
    save_embeddings(EmbeddingTable.from_vectors(images, normalized=True), root / "images.emb")
    _ground_truth(root / "gt.jsonl", sorted(images), list(range(12)))
    for workers in (1, 2):
        invoke("tag", "--embeddings", root / "images.emb", "--queries", root / "queries.emb",
               "--vocab", root / "vocab.tsv", "--out", root / f"pred-w{workers}.jsonl",
               "--workers", workers)
    return root


def test_sidecar_is_byte_identical_at_every_worker_count(tagged):
    sidecars = [score_sidecar_path(tagged / f"pred-w{w}.jsonl").read_bytes() for w in (1, 2)]
    assert sidecars[0] == sidecars[1]
    assert (tagged / "pred-w1.jsonl").read_bytes() == (tagged / "pred-w2.jsonl").read_bytes()
    assert read_score_sidecar(tagged / "pred-w1.jsonl") is not None


def _eval(directory):
    """exit code, output and report of `eval` on directory's predictions."""
    report = directory / "report.tsv"
    report.unlink(missing_ok=True)
    result = CliRunner().invoke(cli, [
        "eval", "--predictions", str(directory / "pred.jsonl"),
        "--ground-truth", str(directory / "gt.jsonl"), "--out", str(report),
    ])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    return result.exit_code, result.output, report.read_bytes() if report.exists() else None


def _truncate(jsonl, sidecar, at, _):
    sidecar.write_bytes(sidecar.read_bytes()[: int(at * sidecar.stat().st_size)])


def _flip_bit(jsonl, sidecar, at, bit):
    data = bytearray(sidecar.read_bytes())
    data[int(at * len(data))] ^= 1 << bit
    sidecar.write_bytes(bytes(data))


def _stale(jsonl, sidecar, at, bit):
    data = bytearray(jsonl.read_bytes())
    data[int(at * len(data))] ^= 1 << bit
    jsonl.write_bytes(bytes(data))


def _foreign_magic(jsonl, sidecar, at, bit):
    data = sidecar.read_bytes()
    sidecar.write_bytes(bytes([data[0] ^ (1 << bit)]) + data[1:])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(damage=st.sampled_from([_truncate, _flip_bit, _stale, _foreign_magic]),
       at=st.floats(0, 1, exclude_max=True), bit=st.integers(0, 7))
def test_an_untrusted_sidecar_changes_no_report_or_message(tagged, damage, at, bit):
    work = tagged / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    shutil.copy(tagged / "gt.jsonl", work / "gt.jsonl")
    shutil.copy(tagged / "pred-w1.jsonl", work / "pred.jsonl")
    shutil.copy(score_sidecar_path(tagged / "pred-w1.jsonl"), score_sidecar_path(work / "pred.jsonl"))
    trusted = _eval(work)
    assert trusted[0] == 0

    damage(work / "pred.jsonl", score_sidecar_path(work / "pred.jsonl"), at, bit)
    assert read_score_sidecar(work / "pred.jsonl") is None
    got = _eval(work)
    score_sidecar_path(work / "pred.jsonl").unlink()
    assert got == _eval(work)  # the JSONL alone gives the same
    if damage is not _stale:
        assert got == trusted


# -- the sidecar is best effort ------------------------------------------------------------


def _tag_into(tagged, out):
    """`tag` on the fixture's inputs, writing its predictions to out."""
    return CliRunner().invoke(cli, [
        "tag", "--embeddings", str(tagged / "images.emb"), "--queries", str(tagged / "queries.emb"),
        "--vocab", str(tagged / "vocab.tsv"), "--out", str(out),
    ])


def _in_work_dir(tagged, name):
    work = tagged / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    shutil.copy(tagged / "gt.jsonl", work / "gt.jsonl")
    return work


def test_tag_writes_its_predictions_when_the_sidecar_cannot_be_created(tagged):
    work = _in_work_dir(tagged, "blocked")
    sidecar = score_sidecar_path(work / "pred.jsonl")
    sidecar.mkdir()  # a directory stands where the sidecar goes
    result = _tag_into(tagged, work / "pred.jsonl")
    assert result.exit_code == 0, result.output
    assert (work / "pred.jsonl").read_bytes() == (tagged / "pred-w1.jsonl").read_bytes()
    assert sidecar.is_dir() and not any(sidecar.iterdir())
    assert read_score_sidecar(work / "pred.jsonl") is None
    got = _eval(work)
    sidecar.rmdir()
    assert got == _eval(work)


def test_tag_writes_no_sidecar_beside_a_pipe(tagged, tmp_path):
    fifo = tmp_path / "pred.jsonl"
    os.mkfifo(fifo)
    want = (tagged / "pred-w1.jsonl").read_bytes()
    assert len(want) < 16384  # fits the pipe's buffer: tag never waits on the reader
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        result = _tag_into(tagged, fifo)
        assert result.exit_code == 0, result.output
        got = b""
        while chunk := os.read(reader, 65536):
            got += chunk
    finally:
        os.close(reader)
    assert got == want
    assert not score_sidecar_path(fifo).exists()


@pytest.mark.parametrize("existing, replaced", [
    (b"not a sidecar", False),
    (b"", True),  # a run killed before its first write leaves an empty file
    (b"SCR1 from an earlier run", True),
])
def test_tag_replaces_only_a_sidecar(tagged, existing, replaced):
    work = _in_work_dir(tagged, "existing")
    sidecar = score_sidecar_path(work / "pred.jsonl")
    sidecar.write_bytes(existing)
    result = _tag_into(tagged, work / "pred.jsonl")
    assert result.exit_code == 0, result.output
    assert (work / "pred.jsonl").read_bytes() == (tagged / "pred-w1.jsonl").read_bytes()
    if replaced:
        assert sidecar.read_bytes() == score_sidecar_path(tagged / "pred-w1.jsonl").read_bytes()
    else:
        assert sidecar.read_bytes() == existing
        assert read_score_sidecar(work / "pred.jsonl") is None


def test_a_failed_write_leaves_no_sidecar(tmp_path, monkeypatch):
    table, queries = _fixed_score_tagger(monkeypatch, np.zeros((WRITE_CHUNK_ROWS + 1, 2)), [1, 2])
    calls = []

    def score_then_fail(embedding, _):
        calls.append(1)
        if len(calls) > WRITE_CHUNK_ROWS:  # the second chunk
            raise similarity_tagger.TaggerError("scoring failed")
        return np.zeros(2)

    monkeypatch.setattr(similarity_tagger, "score", score_then_fail)
    with pytest.raises(similarity_tagger.TaggerError):
        write_predictions(table, queries, ThresholdProfile(), tmp_path / "pred.jsonl")
    assert not score_sidecar_path(tmp_path / "pred.jsonl").exists()
