"""eval's whole-array passes against the loops they replaced, kept here as
references: AP from a stable argsort of every item, precision/recall from
per-class column sums, and the matrices filled one image at a time. Every
AP, mAP and P/R value must have the same bits, and the matrices the same
bytes, on the JSONL path and on the SCR1 sidecar path."""

import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge import jsonl
from tagforge.metrics import (
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    LABEL_UNANNOTATED,
    MISSING_SCORE,
    EvalInstances,
    MetricsError,
    _class_ids,
    _label_set,
    _ratio,
    _score_values,
    average_precision,
    evaluate,
    load_eval_instances,
    mean_ap,
    precision_recall,
)
from tagforge.similarity_tagger import (
    SIDECAR_MAGIC,
    ThresholdProfile,
    _hit_lists,
    read_score_sidecar,
    score_sidecar_path,
)

# -- the references -----------------------------------------------------------------


def reference_average_precision(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    positives = int((labels == 1).sum())
    if positives == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order] == 1
    cum_pos = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    return float((cum_pos[ranked] / ranks[ranked]).sum() / positives)


def reference_mean_ap(instances, class_filter, unannotated_as_negative):
    per_class, skipped = {}, []
    for c, class_id in enumerate(instances.class_ids):
        if class_filter is not None and class_id not in class_filter:
            skipped.append((class_id, "excluded by filter"))
            continue
        col_scores = instances.scores[:, c]
        col_labels = instances.labels[:, c]
        if unannotated_as_negative:
            binary = (col_labels == LABEL_POSITIVE).astype(np.int8)
        else:
            mask = col_labels != LABEL_UNANNOTATED
            col_scores = col_scores[mask]
            binary = (col_labels[mask] == LABEL_POSITIVE).astype(np.int8)
        ap = reference_average_precision(col_scores, binary) if binary.size else None
        if ap is None:
            skipped.append((class_id, "no positives"))
        else:
            per_class[class_id] = ap
    if not per_class:
        raise MetricsError("all classes were skipped; nothing to evaluate")
    return per_class, float(np.mean(list(per_class.values()))), skipped


def reference_precision_recall(instances, profile, unannotated_as_negative, class_filter):
    """The per-class loop, over the columns of the filtered classes."""
    kept = [c for c, cid in enumerate(instances.class_ids)
            if class_filter is None or cid in class_filter]
    class_ids = [instances.class_ids[c] for c in kept]
    scores, labels = instances.scores[:, kept], instances.labels[:, kept]
    predicted = scores >= profile.thresholds(class_ids)[None, :]
    positive = labels == LABEL_POSITIVE
    if unannotated_as_negative:
        counted = np.ones_like(predicted, dtype=bool)
    else:
        counted = labels != LABEL_UNANNOTATED
    tp_cells = predicted & positive & counted
    fp_cells = predicted & ~positive & counted
    fn_cells = ~predicted & positive & counted
    micro_p = _ratio(int(tp_cells.sum()), int((tp_cells | fp_cells).sum()))
    micro_r = _ratio(int(tp_cells.sum()), int((tp_cells | fn_cells).sum()))
    macro_ps, macro_rs = [], []
    for c in range(len(class_ids)):
        pos = int((positive[:, c] & counted[:, c]).sum())
        if pos == 0:
            continue
        tp = int(tp_cells[:, c].sum())
        fp = int(fp_cells[:, c].sum())
        macro_ps.append(_ratio(tp, tp + fp))
        macro_rs.append(tp / pos)
    if not macro_ps:
        raise MetricsError("no class has a positive ground-truth label")
    return [micro_p, micro_r, float(np.mean(macro_ps)), float(np.mean(macro_rs))]


def reference_load_eval_instances(predictions_path, ground_truth_path):
    """The loader that filled the matrices with three assignments per image."""
    keys, class_list, keep = None, [], None

    def prediction(obj):
        nonlocal keys, class_list, keep
        image_id = jsonl.image_id(obj)
        raw = obj["scores"]
        if not isinstance(raw, dict):
            raise TypeError("scores must be an object")
        if list(raw) != keys:
            keys = list(raw)
            class_list, keep = _class_ids(keys)
        values = _score_values(raw)
        return image_id, (class_list, values if keep is None else values[keep])

    def ground_truth(obj):
        return jsonl.image_id(obj), (_label_set(obj, "positive"), _label_set(obj, "negative"))

    sidecar = read_score_sidecar(predictions_path)
    if sidecar is None:
        pred = dict(jsonl.read(predictions_path, "prediction", prediction, MetricsError))
    else:
        sidecar_ids, class_list, matrix = sidecar
        pred = {image_id: (class_list, row) for image_id, row in zip(sidecar_ids, matrix)}
    gt = dict(jsonl.read(ground_truth_path, "ground-truth", ground_truth, MetricsError))

    image_ids = sorted(set(pred) | set(gt))
    pred_class_lists = {id(ids): ids for ids, _ in pred.values()}
    class_set = set()
    for ids in pred_class_lists.values():
        class_set.update(ids)
    for positive, negative in gt.values():
        class_set.update(positive)
        class_set.update(negative)
    if not class_set:
        raise MetricsError("no classes found in predictions or ground truth")
    class_ids = sorted(class_set)
    col = {cid: i for i, cid in enumerate(class_ids)}
    cols = {key: np.asarray([col[cid] for cid in ids], dtype=np.intp)
            for key, ids in pred_class_lists.items()}
    scores = np.full((len(image_ids), len(class_ids)), MISSING_SCORE, dtype=np.float64)
    labels = np.full((len(image_ids), len(class_ids)), LABEL_UNANNOTATED, dtype=np.int8)
    for r, image_id in enumerate(image_ids):
        if image_id in pred:
            ids, values = pred[image_id]
            scores[r, cols[id(ids)]] = values
        positive, negative = gt.get(image_id, ((), ()))
        labels[r, [col[cid] for cid in positive]] = LABEL_POSITIVE
        labels[r, [col[cid] for cid in negative]] = LABEL_NEGATIVE
    return EvalInstances(image_ids, class_ids, scores, labels)


# -- comparisons --------------------------------------------------------------------


def _hex(value):
    return None if value is None else float.hex(value)


def _outcome(fn):
    """fn()'s value, or the message of the MetricsError it raised."""
    try:
        return fn()
    except MetricsError as exc:
        return f"MetricsError: {exc}"


def _assert_same_evaluation(instances, profile, class_filter, as_negative):
    got_ap = _outcome(lambda: mean_ap(instances, class_filter, as_negative))
    want_ap = _outcome(lambda: reference_mean_ap(instances, class_filter, as_negative))
    if isinstance(want_ap, str):
        assert got_ap == want_ap
    else:
        (got_per, got_map, got_skipped), (want_per, want_map, want_skipped) = got_ap, want_ap
        assert {c: _hex(v) for c, v in got_per.items()} == {c: _hex(v) for c, v in want_per.items()}
        assert _hex(got_map) == _hex(want_map)
        assert got_skipped == want_skipped
    got_pr = _outcome(lambda: precision_recall(instances, profile, as_negative, class_filter))
    want_pr = _outcome(
        lambda: reference_precision_recall(instances, profile, as_negative, class_filter)
    )
    if isinstance(want_pr, str):
        assert got_pr == want_pr
    else:
        got = [got_pr.micro_precision, got_pr.micro_recall, got_pr.macro_precision,
               got_pr.macro_recall]
        assert list(map(_hex, got)) == list(map(_hex, want_pr))


def _assert_same_instances(got, want):
    assert got.image_ids == want.image_ids
    assert got.class_ids == want.class_ids
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


# six-decimal values drawn from a small pool so that they tie, and every
# value whose order is special: NaN of both signs, the infinities, -0.0 and 0.0
NEG_NAN = -float("nan")
SPECIAL = [float("nan"), NEG_NAN, math.inf, -math.inf, 0.0, -0.0]
six_decimals = st.integers(-20, 20).map(lambda k: round(k * 0.05 + 0.000001 * (k % 3), 6))
cell_scores = st.one_of(six_decimals, st.sampled_from(SPECIAL))
CLASS_POOL = [0, 1, 2, 4, 7, 12]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_ap_pr_and_map_have_the_reference_bits(data):
    n_images = data.draw(st.integers(1, 9), label="images")
    class_ids = sorted(data.draw(st.sets(st.sampled_from(CLASS_POOL), min_size=1), label="classes"))
    shape = (n_images, len(class_ids))
    scores = np.array(data.draw(st.lists(cell_scores, min_size=shape[0] * shape[1],
                                         max_size=shape[0] * shape[1]), label="scores"))
    labels = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=scores.size,
                                         max_size=scores.size), label="labels"))
    instances = EvalInstances([f"i{r}" for r in range(n_images)], class_ids,
                              scores.reshape(shape), labels.reshape(shape))
    overrides = data.draw(st.dictionaries(st.sampled_from(class_ids), six_decimals), label="thr")
    profile = ThresholdProfile(data.draw(six_decimals, label="default"), overrides)
    class_filter = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(CLASS_POOL + [99]))),
                             label="filter")
    as_negative = data.draw(st.booleans(), label="unannotated as negative")
    _assert_same_evaluation(instances, profile, class_filter, as_negative)


def test_ap_has_the_reference_bits_on_random_vectors_with_ties():
    rng = np.random.default_rng(19)
    special = np.array(SPECIAL)
    for _ in range(600):
        n = int(rng.integers(1, 400))
        scores = np.round(rng.uniform(-1, 1, n), int(rng.integers(1, 7)))  # few decimals, ties
        odd = rng.random(n) < rng.choice([0.0, 0.05, 0.5])
        scores[odd] = rng.choice(special, int(odd.sum()))
        labels = (rng.random(n) < rng.uniform(0, 1)).astype(np.int8)
        assert _hex(average_precision(scores, labels)) == _hex(
            reference_average_precision(scores, labels)
        )


def test_ap_ranks_nan_last_in_input_order_and_zeros_as_ties():
    # NaN (of either sign) ranks after -inf; -0.0 and 0.0 tie, the earlier first
    assert average_precision([NEG_NAN, -math.inf], [1, 0]) == 0.5
    assert average_precision([float("nan"), NEG_NAN], [0, 1]) == 0.5
    assert average_precision([-0.0, 0.0, 0.0], [0, 0, 1]) == 1 / 3
    assert average_precision([0.0, -0.0], [1, 0]) == 1.0


def test_ap_keeps_its_shape_error_and_no_positive_result():
    with pytest.raises(MetricsError, match="congruent 1-d"):
        average_precision([0.5, 0.2], [1])
    with pytest.raises(MetricsError, match="congruent 1-d"):
        average_precision([[0.5]], [[1]])
    assert average_precision([], []) is None
    assert average_precision([0.5, np.nan], [0, -1]) is None


def test_one_image_and_a_class_without_positives_match_the_reference():
    instances = EvalInstances(["a"], [3, 5], np.array([[0.5, np.nan]]), np.array([[1, 0]]))
    for as_negative in (True, False):
        _assert_same_evaluation(instances, ThresholdProfile(0.4), None, as_negative)
        _assert_same_evaluation(instances, ThresholdProfile(0.4), {5}, as_negative)


# -- the loader ---------------------------------------------------------------------


def _write_sidecar(predictions: Path, records: list[dict]) -> None:
    """The SCR1 sidecar of predictions, whose records share their score keys."""
    keys = list(records[0]["scores"]) if records else []
    body = SIDECAR_MAGIC + struct.pack("<II", len(records), len(keys))
    body += np.asarray([int(k) for k in keys], dtype="<i8").tobytes()
    for record in records:
        encoded = record["image_id"].encode("utf-8")
        body += struct.pack("<I", len(encoded)) + encoded
    values = [[record["scores"][k] for k in keys] for record in records]
    body += np.asarray(values, dtype="<f8").reshape(len(records), len(keys)).tobytes()
    body += hashlib.sha256(predictions.read_bytes()).digest()
    score_sidecar_path(predictions).write_bytes(body + hashlib.sha256(body).digest())


IMAGE_POOL = ["a", "b", "c", "d", "e"]
json_scores = st.one_of(six_decimals, st.sampled_from([float("nan"), math.inf, -math.inf, -0.0]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_loader_and_evaluation_match_the_reference_on_both_paths(data):
    keys = data.draw(st.lists(st.sampled_from(CLASS_POOL), unique=True), label="score keys")
    records = data.draw(st.lists(st.fixed_dictionaries({
        "image_id": st.sampled_from(IMAGE_POOL),  # repeats: the last record wins
        "scores": st.fixed_dictionaries({str(k): json_scores for k in keys}),
    }), max_size=6), label="predictions")
    class_lists = st.lists(st.sampled_from(CLASS_POOL + [20]), max_size=4)
    truth = data.draw(st.lists(st.fixed_dictionaries({
        "image_id": st.sampled_from(IMAGE_POOL + ["gt-only"]),
        "positive": class_lists, "negative": class_lists,  # a class may be in both
    }), min_size=1, max_size=6), label="ground truth")
    # a record whose keys are a subset of the others' leaves missing cells
    drop = data.draw(st.booleans(), label="one record with fewer keys") and len(keys) > 1
    profile = ThresholdProfile(0.3, {CLASS_POOL[1]: 0.05})
    class_filter = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(CLASS_POOL))),
                             label="filter")
    with tempfile.TemporaryDirectory() as tmp:
        pred, gt = Path(tmp) / "pred.jsonl", Path(tmp) / "gt.jsonl"
        lines = [json.dumps(record) for record in records]
        if drop and records:
            lines.append(json.dumps({"image_id": "e", "scores": {str(keys[0]): 0.25}}))
        pred.write_text("".join(line + "\n" for line in lines))
        gt.write_text("".join(json.dumps(record) + "\n" for record in truth))
        want = _outcome(lambda: reference_load_eval_instances(pred, gt))
        got = _outcome(lambda: load_eval_instances(pred, gt))
        if isinstance(want, str):  # no class anywhere
            assert got == want
            return
        _assert_same_instances(got, want)
        if not drop:
            _write_sidecar(pred, records)
            assert read_score_sidecar(pred) is not None
            _assert_same_instances(load_eval_instances(pred, gt), want)
            _assert_same_instances(reference_load_eval_instances(pred, gt), want)
    for as_negative in (True, False):
        _assert_same_evaluation(got, profile, class_filter, as_negative)


def test_a_class_in_both_lists_is_negative_and_missing_scores_rank_last(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    pred.write_text('{"image_id": "a", "scores": {"1": 0.5}}\n'
                    '{"image_id": "b", "scores": {"1": 0.5, "2": 0.25}}\n')
    gt.write_text('{"image_id": "a", "positive": [1, 2], "negative": [2]}\n'
                  '{"image_id": "a", "positive": [2], "negative": [1, 2]}\n')
    instances = load_eval_instances(pred, gt)
    assert instances.labels.tolist() == [[0, 0], [-1, -1]]
    assert instances.scores.tolist() == [[0.5, MISSING_SCORE], [0.5, 0.25]]
    _assert_same_instances(instances, reference_load_eval_instances(pred, gt))


def test_evaluate_applies_the_class_filter_to_precision_and_recall():
    # class 1 predicts every image, class 2 none: the filter keeps class 2 only
    instances = EvalInstances(["a", "b"], [1, 2], np.array([[0.9, 0.1], [0.9, 0.1]]),
                              np.array([[1, 1], [0, 0]]))
    report = evaluate(instances, ThresholdProfile(0.5), class_filter={2})
    assert report.per_class_ap == {2: 1.0}
    assert (report.micro_precision, report.micro_recall) == (1.0, 0.0)
    assert (report.macro_precision, report.macro_recall) == (1.0, 0.0)
    unfiltered = evaluate(instances, ThresholdProfile(0.5))
    assert (unfiltered.micro_precision, unfiltered.micro_recall) == (0.5, 0.5)


# -- tag's hit lists ----------------------------------------------------------------


@pytest.mark.parametrize("tag_ids", [[], [0], [3, 17], [0, 9, 10, 99, 10**6, 10**12 - 1, 10**12]])
def test_hit_lists_render_as_json_dumps(tag_ids):
    rng = np.random.default_rng(len(tag_ids))
    hits = rng.random((7, len(tag_ids))) < 0.5
    hits[0] = False  # an image with no hits
    if tag_ids:
        hits[1] = True
    got = _hit_lists(hits, [str(t) for t in tag_ids])
    assert got == [json.dumps([t for t, hit in zip(tag_ids, row) if hit]) for row in hits]
    assert _hit_lists(np.zeros((0, len(tag_ids)), dtype=bool), [str(t) for t in tag_ids]) == []
