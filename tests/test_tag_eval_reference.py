"""The vectorized `tag` writer, eval loader and threshold calibrator against
the per-cell loops they replaced, kept here as references, plus sha256
digests of `tag` and `eval` outputs pinned from the per-cell code."""

import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tagforge.cli import cli
from tagforge.embedding_store import EmbeddingTable, save_embeddings
from tagforge import similarity_tagger
from tagforge.metrics import MISSING_SCORE, EvalInstances, MetricsError, load_eval_instances
from tagforge.similarity_tagger import (
    WRITE_CHUNK_ROWS,
    LabelQueryMatrix,
    ThresholdProfile,
    calibrate_thresholds,
    prompt_key,
    round_scores,
    score,
    write_predictions,
)

# -- the per-cell references --------------------------------------------------


def reference_write_predictions(table, queries, profile, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(table.keys):
            scores = score(table.vector(key), queries)
            selected = sorted(
                tag_id
                for tag_id, s in zip(queries.tag_ids, scores)
                if s >= profile.effective(tag_id)
            )
            fh.write(
                json.dumps(
                    {
                        "image_id": key,
                        "scores": {
                            str(tag_id): round(float(s), 6)
                            for tag_id, s in zip(queries.tag_ids, scores)
                        },
                        "tags": selected,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def reference_load_eval_instances(predictions_path, ground_truth_path):
    pred = {}
    for lineno, line in enumerate(Path(predictions_path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            image_id = obj["image_id"]
            scores = {int(k): float(v) for k, v in obj["scores"].items()}
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise MetricsError(f"{predictions_path}:{lineno}: malformed prediction record") from None
        pred[image_id] = scores

    gt = {}
    for lineno, line in enumerate(Path(ground_truth_path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            image_id = obj["image_id"]
            positive = {int(v) for v in obj.get("positive", [])}
            negative = {int(v) for v in obj.get("negative", [])}
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise MetricsError(f"{ground_truth_path}:{lineno}: malformed ground-truth record") from None
        gt[image_id] = (positive, negative)

    image_ids = sorted(set(pred) | set(gt))
    class_set = set()
    for scores in pred.values():
        class_set.update(scores)
    for positive, negative in gt.values():
        class_set.update(positive)
        class_set.update(negative)
    if not class_set:
        raise MetricsError("no classes found in predictions or ground truth")
    class_ids = sorted(class_set)
    col = {cid: i for i, cid in enumerate(class_ids)}

    scores = np.full((len(image_ids), len(class_ids)), MISSING_SCORE, dtype=np.float64)
    labels = np.full((len(image_ids), len(class_ids)), -1, dtype=np.int8)
    for r, image_id in enumerate(image_ids):
        for cid, value in pred.get(image_id, {}).items():
            scores[r, col[cid]] = value
        positive, negative = gt.get(image_id, (set(), set()))
        for cid in positive:
            labels[r, col[cid]] = 1
        for cid in negative:
            labels[r, col[cid]] = 0
    return EvalInstances(image_ids, class_ids, scores, labels)


def _reference_f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def reference_calibrate_thresholds(scores_matrix, labels_matrix, tag_ids, grid):
    scores_matrix = np.asarray(scores_matrix, dtype=np.float64)
    grid_sorted = sorted(set(float(g) for g in grid))
    positives = np.asarray(labels_matrix) == 1
    best_default, best_default_f1 = grid_sorted[0], -1.0
    best_per_tag = {}
    eligible = [
        c for c in range(len(tag_ids)) if positives[:, c].any() and (~positives[:, c]).any()
    ]
    for t in grid_sorted:
        pred = scores_matrix >= t
        micro = _reference_f1(
            int((pred & positives).sum()),
            int((pred & ~positives).sum()),
            int((~pred & positives).sum()),
        )
        if micro >= best_default_f1:
            best_default, best_default_f1 = t, micro
        for c in eligible:
            f1 = _reference_f1(
                int((pred[:, c] & positives[:, c]).sum()),
                int((pred[:, c] & ~positives[:, c]).sum()),
                int((~pred[:, c] & positives[:, c]).sum()),
            )
            tag = tag_ids[c]
            if tag not in best_per_tag or f1 >= best_per_tag[tag][1]:
                best_per_tag[tag] = (t, f1)
    overrides = {tag: t for tag, (t, _) in best_per_tag.items()}
    return ThresholdProfile(default_threshold=best_default, overrides=overrides)


# -- rounding -----------------------------------------------------------------


def _assert_rounds_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    want = np.array([round(float(v), 6) for v in values], dtype=np.float64)
    got = round_scores(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    bad = np.flatnonzero(want.view(np.int64) != got.view(np.int64))
    assert bad.size == 0, [(repr(values[i]), repr(want[i]), repr(got[i])) for i in bad[:5]]


def _neighbours(values, steps=3):
    out = [np.asarray(values, dtype=np.float64)]
    up = down = out[0]
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_round_scores_exact_halves_and_neighbours():
    # k/128 with k odd sits exactly halfway between two multiples of 1e-6
    dyadic = np.arange(-255, 256, 2) / 128.0
    dyadic = np.concatenate([dyadic, np.arange(1, 2**12, 2) / 2.0**13])
    # the doubles nearest to decimal halves, whose exact value is a hair off
    decimal = (np.arange(-2000, 2000) + 0.5) / 1e6
    big_halves = (np.arange(10**6 - 50, 10**6 + 50) + 0.5) / 1e6 * 1000
    _assert_rounds_like_python(_neighbours(np.concatenate([dyadic, decimal, big_halves])))


def test_round_scores_tiny_signed_and_huge_values():
    tiny = np.array([1e-4, 9.9e-5, 5e-7, 4.999999e-7, 5.000001e-7, 1.5e-6, 2.5e-6, 1e-7,
                     1e-12, 5e-324, 2.2250738585072014e-308, 1e-300])
    huge = np.array([2.0**52 - 0.5, 2.0**52, 2.0**52 + 1, 4503599627.3705, 4503599627.3705005,
                     1e15 + 0.5, 1e16, 1e17, 1.2345678901234567e17, 1e22, 1e300, 1.7e308])
    values = np.concatenate([tiny, -tiny, huge, -huge, [0.0, -0.0, np.inf, -np.inf]])
    _assert_rounds_like_python(_neighbours(values, steps=2))
    assert math.copysign(1.0, round_scores(np.array([-0.0, -1e-9]))[0]) == -1.0
    assert math.copysign(1.0, round_scores(np.array([-1e-9]))[0]) == -1.0
    assert math.isnan(round_scores(np.array([np.nan]))[0])


def test_round_scores_random_values():
    rng = np.random.default_rng(61)
    values = np.concatenate([
        rng.uniform(-1.0, 1.0, 200_000),
        rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-12, 18, 20_000),
        np.round(rng.uniform(-1.0, 1.0, 20_000), 7),  # many on the 7th-decimal half
    ])
    _assert_rounds_like_python(values)


# -- tag writer ----------------------------------------------------------------


def _unit_rows(rng, n, dim):
    raw = rng.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def _random_tagger(rng, n_images, n_tags, dim, tag_ids=None):
    tag_ids = tuple(range(n_tags)) if tag_ids is None else tuple(tag_ids)
    queries = LabelQueryMatrix(
        "v", tag_ids, tuple(f"t{i}" for i in range(n_tags)), _unit_rows(rng, n_tags, dim)
    )
    vectors = {f"img{i:04d}": row for i, row in enumerate(_unit_rows(rng, n_images, dim))}
    return EmbeddingTable.from_vectors(vectors, normalized=True), queries


@pytest.mark.parametrize("seed, tag_ids", [
    (71, None),
    (72, None),
    (73, (9, 3, 7, 1, 12, 0, 4, 30)),  # not ascending
])
def test_write_predictions_matches_reference_bytes(tmp_path, seed, tag_ids):
    rng = np.random.default_rng(seed)
    n_tags = 8 if tag_ids else 40
    table, queries = _random_tagger(rng, 150, n_tags, 12, tag_ids)
    # overrides set exactly to some image's scores, so >= decides on equality
    first = score(table.vector(table.keys[0]), queries)
    overrides = {queries.tag_ids[c]: float(first[c]) for c in range(0, n_tags, 2)}
    for profile in (ThresholdProfile(), ThresholdProfile(0.05, overrides)):
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        reference_write_predictions(table, queries, profile, want)
        write_predictions(table, queries, profile, got)
        assert got.read_bytes() == want.read_bytes()
        record = json.loads(got.read_text().splitlines()[0])
        if profile.overrides:
            assert set(overrides) <= set(record["tags"])


def _fixed_score_tagger(monkeypatch, rows, tag_ids):
    """A table of one-hot image vectors and a `score` that returns rows[i]
    for image i, patched where the writer and the reference look it up."""
    rows = np.asarray(rows, dtype=np.float64)
    keys = [f"img{i:05d}" for i in range(len(rows))]
    table = EmbeddingTable(keys, np.eye(len(rows)), normalized=True)
    queries = LabelQueryMatrix(
        "v", tuple(tag_ids), tuple(f"t{i}" for i in range(len(tag_ids))),
        np.eye(len(tag_ids), len(rows)),
    )

    def fixed_score(embedding, _queries):
        return rows[int(np.argmax(embedding))].copy()

    monkeypatch.setattr(similarity_tagger, "score", fixed_score)
    monkeypatch.setitem(globals(), "score", fixed_score)
    return table, queries


def _odd_scores():
    halves = (np.arange(-1000, 1000) + 0.5) / 1e6  # nearest doubles to decimal halves
    dyadic = np.arange(-127, 128, 2) / 256.0  # exactly halfway between two 6-decimal values
    edges = np.array([
        0.0001, 0.00009999, 0.0000999999, 0.000099999999, 0.00009995, -0.00009995, 0.00015,
        0.0, -0.0, 1e-7, -1e-7, 4e-7, -4e-7, 5e-7, 1.0, -1.0, 1.5, -1.5, 1e17, -1e17,
        0.9999994, 0.9999995, 0.99999949, -0.9999996, 0.1, -0.1, 0.5, -0.5, 0.25, 0.123,
        1e-6, -2.5e-5, 9.9e-5, 0.0012, -0.010203, 0.100001, 5e-324, 12.345678, -123456.5, 1e300, 2.0**52,
        np.nan, -np.nan, np.inf, -np.inf,
    ])
    rng = np.random.default_rng(81)
    spread = rng.uniform(-1.0, 1.0, 3000) * 10.0 ** rng.integers(-8, 1, 3000)
    return np.concatenate([_neighbours(np.concatenate([edges, dyadic, halves]), steps=2), spread])


@pytest.mark.parametrize("width", [37, 1])
def test_write_predictions_odd_values_match_reference_bytes(tmp_path, monkeypatch, width):
    values = _odd_scores()
    values = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    values = values[: 3 * WRITE_CHUNK_ROWS]  # several chunks, the last one partial
    tag_ids = [(7 * c) % (width + 3) for c in range(width)]  # not ascending
    table, queries = _fixed_score_tagger(monkeypatch, values, tag_ids)
    profile = ThresholdProfile(0.3, {tag_ids[0]: -0.5})
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    reference_write_predictions(table, queries, profile, want)
    write_predictions(table, queries, profile, got)
    assert got.read_bytes() == want.read_bytes()
    text = got.read_text()
    for value in ("NaN", "-Infinity", "-0.0", "1e-06", "-2.5e-05", "0.0001", "-0.5", "0.1", "1e+17"):
        assert re.search(f'": {re.escape(value)}[,}}]', text), value


@pytest.mark.parametrize("image_ids", [
    ['q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\tnew\nline\rcr", "sep  \x85",
     "café", "日本", "\U0001f431", ""],
])
def test_write_predictions_escapes_image_ids_like_json_dumps(tmp_path, image_ids):
    rng = np.random.default_rng(82)
    queries = LabelQueryMatrix("v", (2, 0, 1), ("a", "b", "c"), _unit_rows(rng, 3, 6))
    vectors = dict(zip(image_ids, _unit_rows(rng, len(image_ids), 6)))
    table = EmbeddingTable.from_vectors(vectors, normalized=True)
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    reference_write_predictions(table, queries, ThresholdProfile(0.0), want)
    write_predictions(table, queries, ThresholdProfile(0.0), got)
    assert got.read_bytes() == want.read_bytes()
    assert [json.loads(line)["image_id"] for line in got.read_text("utf-8").split("\n")[:-1]] == (
        sorted(image_ids)
    )


@pytest.mark.parametrize("n_images", [1, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1])
@pytest.mark.parametrize("n_tags", [0, 1, 5])
def test_write_predictions_chunk_edges_match_reference_bytes(tmp_path, n_images, n_tags):
    rng = np.random.default_rng(83 + n_images + n_tags)
    table, queries = _random_tagger(rng, n_images, n_tags, 4)
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    reference_write_predictions(table, queries, ThresholdProfile(0.1), want)
    write_predictions(table, queries, ThresholdProfile(0.1), got)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == n_images


def test_write_predictions_memory_does_not_grow_with_images_times_tags(tmp_path):
    n_tags = 64

    def peak(n_images):
        table, queries = _random_tagger(np.random.default_rng(84), n_images, n_tags, 8)
        tracemalloc.start()
        try:
            write_predictions(table, queries, ThresholdProfile(), tmp_path / "p.jsonl")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 2 * WRITE_CHUNK_ROWS, 8 * WRITE_CHUNK_ROWS
    # a block of all scores (8 bytes a cell) or of all record text (~10)
    # would add several bytes per added cell; a chunk at a time adds none
    assert peak(large) - peak(small) < (large - small) * n_tags


def test_selected_tags_match_reference():
    rng = np.random.default_rng(74)
    table, queries = _random_tagger(rng, 30, 20, 8)
    first = score(table.vector(table.keys[0]), queries)
    profile = ThresholdProfile(0.1, {t: float(first[t]) for t in range(0, 20, 3)})
    for key in table.keys:
        scores = score(table.vector(key), queries)
        want = {t for t, s in zip(queries.tag_ids, scores) if s >= profile.effective(t)}
        hits = scores >= profile.thresholds(queries.tag_ids)
        assert {t for t, hit in zip(queries.tag_ids, hits) if hit} == want


def test_threshold_profile_thresholds():
    profile = ThresholdProfile(0.25, {3: -0.5, 7: 0.9})
    got = profile.thresholds([7, 1, 3, 3])
    assert got.dtype == np.float64
    assert got.tolist() == [0.9, 0.25, -0.5, -0.5]
    assert profile.thresholds([]).shape == (0,)


# -- eval loader ----------------------------------------------------------------


def _assert_same_instances(got, want):
    assert got.image_ids == want.image_ids
    assert got.class_ids == want.class_ids
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def _write_lines(path, records):
    path.write_text("".join(
        (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records
    ))
    return path


def test_load_eval_instances_matches_reference_on_random_records(tmp_path):
    rng = np.random.default_rng(81)
    tags = list(range(25))
    records = []
    for i in range(120):
        # the key order changes at record 40 and again at 80; record 100 drops keys
        order = tags if i < 40 else (tags[::-1] if i < 80 else tags[5:] + tags[:5])
        if i == 100:
            order = tags[::2]
        records.append({
            "image_id": f"img{int(rng.integers(0, 100)):03d}",  # repeats: the last one wins
            "scores": {str(t): float(rng.uniform(-1, 1)) for t in order},
        })
    gt = [
        {"image_id": f"img{i:03d}",
         "positive": [int(t) for t in rng.choice(tags, 3, replace=False)],
         "negative": [int(t) for t in rng.choice(tags, 6, replace=False)]}
        for i in range(0, 130, 2)  # images only in the ground truth, too
    ]
    gt.append({"image_id": "gt-only", "positive": [40], "negative": [41, 1]})  # classes only in gt
    pred = _write_lines(tmp_path / "pred.jsonl", records)
    truth = _write_lines(tmp_path / "gt.jsonl", gt)
    _assert_same_instances(load_eval_instances(pred, truth),
                           reference_load_eval_instances(pred, truth))


def test_load_eval_instances_matches_reference_on_odd_values(tmp_path):
    pred = _write_lines(tmp_path / "pred.jsonl", [
        '{"image_id": "a", "scores": {"0": 1, "1": 0.5, "2": true}}',
        '{"image_id": "b", "scores": {"0": 1, "1": 2, "2": 3}}',
        '{"image_id": "c", "scores": {"0": "0.25", "1": " 1e-3 ", "2": "-inf"}}',
        '{"image_id": "d", "scores": {"0": true, "1": false, "2": 0}}',
        '{"image_id": "e", "scores": {"1": 0.3, "01": 0.7, "2": 0.1}}',
        '{"image_id": "f", "scores": {"2": 9007199254740993, "0": 0.5, "1": -0.0}}',
        '{"image_id": "g", "scores": {}}',
        '{"image_id": "h", "scores": {"0": 1e400, "1": 18446744073709563961, "2": 0.1}}',
        "",
        '{"image_id": "i", "scores": {"0": 0.5, "1": 0.5, "2": 0.5}, "tags": [0]}',
    ])
    truth = _write_lines(tmp_path / "gt.jsonl", [
        {"image_id": "a", "positive": [0, 1], "negative": [1, 2]},  # both lists: negative wins
        {"image_id": "z", "positive": [3]},
        {"image_id": "b"},
    ])
    _assert_same_instances(load_eval_instances(pred, truth),
                           reference_load_eval_instances(pred, truth))


@pytest.mark.parametrize("line", [
    '{"image_id": "b", "scores": {"0": null}}',
    '{"image_id": "b", "scores": {"0": 0.5, "1": null}}',
    '{"image_id": "b", "scores": {"0": "x"}}',
    '{"image_id": "b", "scores": {"0": [0.5]}}',
    '{"image_id": "b", "scores": {"0": [0.5], "1": [0.5, 1]}}',
    '{"image_id": "b", "scores": {"0": {}}}',
    '{"image_id": "b", "scores": {"x": 0.5}}',
    '{"image_id": "b"}',
    '{"scores": {"0": 0.5}}',
    '{"image_id": "b", "scores": {"0": 0.5}',
    '[1, 2]',
])
def test_load_eval_instances_rejects_like_reference(tmp_path, line):
    pred = _write_lines(tmp_path / "pred.jsonl", ['{"image_id": "a", "scores": {"0": 0.5}}', line])
    truth = _write_lines(tmp_path / "gt.jsonl", [{"image_id": "a", "positive": [0]}])
    with pytest.raises(MetricsError) as want:
        reference_load_eval_instances(pred, truth)
    with pytest.raises(MetricsError) as got:
        load_eval_instances(pred, truth)
    assert str(got.value) == str(want.value) == f"{pred}:2: malformed prediction record"


@pytest.mark.parametrize("line", [
    '{"image_id": "b", "scores": [0.5]}',
    '{"image_id": "b", "scores": "0.5"}',
    '{"image_id": "b", "scores": null}',
    '{"image_id": ["b"], "scores": {"0": 0.5}}',
    '{"image_id": {"b": 1}, "scores": {"0": 0.5}}',
    '{"image_id": 7, "scores": {"0": 0.5}}',
    '{"image_id": null, "scores": {"0": 0.5}}',
])
def test_load_eval_instances_names_bad_prediction_line(tmp_path, line):
    pred = _write_lines(tmp_path / "pred.jsonl", ['{"image_id": "a", "scores": {"0": 0.5}}', line])
    truth = _write_lines(tmp_path / "gt.jsonl", [{"image_id": "a", "positive": [0]}])
    with pytest.raises(MetricsError, match=f"{pred}:2: malformed prediction record"):
        load_eval_instances(pred, truth)


@pytest.mark.parametrize("line", [
    '{"image_id": ["b"], "positive": [0]}',
    '{"image_id": 7, "positive": [0]}',
    '{"image_id": "b", "positive": ["x"]}',
    '{"image_id": "b", "positive": ["3"]}',
])
def test_load_eval_instances_names_bad_ground_truth_line(tmp_path, line):
    pred = _write_lines(tmp_path / "pred.jsonl", ['{"image_id": "a", "scores": {"0": 0.5}}'])
    truth = _write_lines(tmp_path / "gt.jsonl", ['{"image_id": "a", "positive": [0]}', line])
    with pytest.raises(MetricsError, match=f"{truth}:2: malformed ground-truth record"):
        load_eval_instances(pred, truth)


def test_eval_command_reports_bad_scores_without_traceback(tmp_path):
    pred = _write_lines(tmp_path / "pred.jsonl", ['{"image_id": "a", "scores": [0.5]}'])
    truth = _write_lines(tmp_path / "gt.jsonl", ['{"image_id": "a", "positive": [0]}'])
    result = CliRunner().invoke(
        cli, ["eval", "--predictions", str(pred), "--ground-truth", str(truth)]
    )
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{pred}:1: malformed prediction record" in result.output


# -- calibration -------------------------------------------------------------------


def _assert_same_profile(got, want):
    assert repr(got.default_threshold) == repr(want.default_threshold)
    assert {k: repr(v) for k, v in got.overrides.items()} == {
        k: repr(v) for k, v in want.overrides.items()
    }


@pytest.mark.parametrize("seed", [91, 92, 93, 94])
def test_calibrate_matches_reference_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(20, 200)), int(rng.integers(1, 30))
    grid = np.round(np.arange(-0.2, 0.8, 0.05), 2)
    # scores on the grid make ties between thresholds and on >= itself
    scores = np.round(rng.uniform(-0.3, 0.9, size=(n, c)), 2)
    labels = (rng.uniform(size=(n, c)) < rng.uniform(0.05, 0.5, c)).astype(np.int8)
    labels[:, 0] = 1  # all positive: keeps the default
    if c > 1:
        labels[:, 1] = 0  # all negative: keeps the default
    if c > 2:
        labels[::3, 2] = -1  # unannotated counts as not positive
    tag_ids = [int(t) for t in rng.permutation(1000)[:c]]
    for g in (grid, grid[::-1], [0.3], list(grid) + [0.3, 0.3]):
        _assert_same_profile(
            calibrate_thresholds(scores, labels, tag_ids, g),
            reference_calibrate_thresholds(scores, labels, tag_ids, g),
        )


def test_calibrate_matches_reference_on_repeated_tags_and_no_rows():
    rng = np.random.default_rng(95)
    scores = np.round(rng.uniform(0, 1, size=(60, 6)), 1)
    labels = (rng.uniform(size=(60, 6)) < 0.3).astype(np.int8)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    for tag_ids in ([4, 4, 2, 2, 4, 1], [0, 1, 2, 3, 4, 5]):
        _assert_same_profile(
            calibrate_thresholds(scores, labels, tag_ids, grid),
            reference_calibrate_thresholds(scores, labels, tag_ids, grid),
        )
    empty = np.zeros((0, 3))
    _assert_same_profile(
        calibrate_thresholds(empty, empty, [0, 1, 2], grid),
        reference_calibrate_thresholds(empty, empty, [0, 1, 2], grid),
    )


# -- outputs pinned from the per-cell code ------------------------------------------

# sha256 of the outputs of the fixture below, as the per-cell `tag` writer and
# eval loader wrote them
PINNED_DIGESTS = {
    "pred-flat.jsonl": "aeac6b2049ffc0880ffa9eca4b4a604a1e0c82ac1efbe534b456e149959904fa",
    "pred-profile.jsonl": "8f818ed207352bb93a51e7a03ee9cb022ab2616523fe8f9dc9babc5ed4f8b8ad",
    "report-flat--exclude-unannotated.tsv": "b8f19a3df036e333d82f37593047f805c8f5ea27e079c403e7ef92be3ee1ee98",
    "report-flat--exclude-unannotated.tsv.stdout": "cfe5c555ba79d8281c3956ce7d3c3d5412ca44f27727732e678f1ac21b5ce1d9",
    "report-flat.tsv": "159470939cd18fd1254b00cddd6b36670f1c76d7c71782344b1775caba201e5b",
    "report-flat.tsv.stdout": "10e7e72227ab5061f9749688ef8ed54dae10565d086e55c0079471cb807fc68b",
    "report-profile--exclude-unannotated.tsv": "9d1f4e052345a9d39077d79444fa325551836160882e0efcd8e25c978b4efb6c",
    "report-profile--exclude-unannotated.tsv.stdout": "5588ac45d14a981aeba96e1f21df10efc08c2adb830368dd55eff98f614c3475",
    "report-profile.tsv": "43a14b1e7f806724d8262950aa056cb096ff0e18be2170fdf43d3d6c6fb3c1f0",
    "report-profile.tsv.stdout": "77b180219af8ef12f72528e53cb695ab3cc7ec774d6e666b4bc18cb0d19183b3",
}


def run_tag_eval_fixture(root: Path) -> dict[str, str]:
    """Build a small vocabulary, queries, images, thresholds and ground
    truth, run `tag` and `eval` on them, and return sha256 of each output."""
    runner = CliRunner()
    rng = np.random.default_rng(2026)

    def invoke(args):
        result = runner.invoke(cli, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        return result.output

    root.mkdir(parents=True, exist_ok=True)
    names = [f"tag{i:02d}" for i in range(24)]
    (root / "freq.tsv").write_text("".join(f"{n}\t{100 - i}\n" for i, n in enumerate(names)))
    invoke(["build-vocab", "--freq", root / "freq.tsv", "--k", 24, "--out", root / "vocab.tsv"])
    templates = ["a photo of a {tag}", "a {tag} in the scene"]
    (root / "templates.txt").write_text("".join(t + "\n" for t in templates))
    rows = _unit_rows(rng, len(names) * len(templates), 16)
    prompts = {
        prompt_key(t, n): rows[i * len(templates) + j]
        for i, n in enumerate(names) for j, t in enumerate(templates)
    }
    save_embeddings(EmbeddingTable.from_vectors(prompts, normalized=True), root / "prompts.emb")
    invoke(["build-queries", "--vocab", root / "vocab.tsv", "--prompts", root / "prompts.emb",
            "--templates", root / "templates.txt", "--out", root / "queries.emb"])
    images = {f"img{i:03d}": row for i, row in enumerate(_unit_rows(rng, 40, 16))}
    save_embeddings(EmbeddingTable.from_vectors(images, normalized=True), root / "images.emb")
    (root / "thresholds.tsv").write_text("*\t0.15\n0\t-0.1\n3\t0.05\n7\t0.3\n11\t0.0\n")
    gt = []
    for i in range(44):  # img040-img043 exist only in the ground truth
        positive = sorted(int(t) for t in rng.choice(24, 3, replace=False))
        negative = sorted(int(t) for t in rng.choice(24, 8, replace=False) if t not in positive)
        if i % 5 == 4:
            continue  # unannotated image
        gt.append({"image_id": f"img{i:03d}", "positive": positive, "negative": negative + [30]})
    _write_lines(root / "gt.jsonl", gt)

    digests = {}
    for name, thresholds in (("flat", None), ("profile", root / "thresholds.tsv")):
        pred = root / f"pred-{name}.jsonl"
        args = ["tag", "--embeddings", root / "images.emb", "--queries", root / "queries.emb",
                "--vocab", root / "vocab.tsv", "--out", pred]
        invoke(args + (["--thresholds", thresholds] if thresholds else []))
        digests[pred.name] = hashlib.sha256(pred.read_bytes()).hexdigest()
        for flag in ("", "--exclude-unannotated"):
            report = root / f"report-{name}{flag}.tsv"
            args = ["eval", "--predictions", pred, "--ground-truth", root / "gt.jsonl",
                    "--out", report] + ([flag] if flag else [])
            stdout = invoke(args + (["--thresholds", thresholds] if thresholds else []))
            digests[report.name] = hashlib.sha256(report.read_bytes()).hexdigest()
            digests[report.name + ".stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


def test_tag_and_eval_outputs_match_pinned_digests(tmp_path):
    assert run_tag_eval_fixture(tmp_path) == PINNED_DIGESTS
