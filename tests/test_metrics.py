import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagforge.metrics import (
    EvalInstances,
    MetricsError,
    average_precision,
    evaluate,
    load_eval_instances,
    mean_ap,
    precision_recall,
    write_report,
)
from tagforge.similarity_tagger import ThresholdProfile


def oracle_ap(scores, labels):
    """Independent O(n^2) evaluation of the AP definition."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    positives = [i for i in range(n) if labels[i] == 1]
    if not positives:
        return None
    total = 0.0
    for rank in range(1, n + 1):
        idx = order[rank - 1]
        if labels[idx] == 1:
            hits = sum(1 for j in order[:rank] if labels[j] == 1)
            total += hits / rank
    return total / len(positives)


def test_ap_perfect_ranking():
    assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_ap_worked_example():
    got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert got == pytest.approx((1 / 1 + 2 / 3) / 2, abs=1e-15)


def test_ap_single_positive_item():
    assert average_precision([0.4], [1]) == 1.0


def test_ap_zero_positives_not_evaluable():
    assert average_precision([0.4, 0.2], [0, 0]) is None


def test_ap_ties_stable_by_index():
    # same score: the positive at the earlier index ranks first
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert average_precision([0.5, 0.5], [0, 1]) == 0.5


def test_ap_matches_oracle_randomized():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        labels = rng.integers(0, 2, size=n)
        got = average_precision(scores, labels)
        want = oracle_ap(list(scores), list(labels))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


# width=16 keeps score gaps large enough that the affine transform cannot
# round two distinct scores into a tie (which would genuinely change AP)
@given(
    st.lists(
        st.tuples(st.floats(-1, 1, allow_nan=False, width=16), st.integers(0, 1)),
        min_size=1,
        max_size=12,
    )
)
def test_ap_invariant_under_monotone_transform(items):
    scores = [s for s, _ in items]
    labels = [l for _, l in items]
    base = average_precision(scores, labels)
    transformed = average_precision([3.0 * s + 7.0 for s in scores], labels)
    if base is None:
        assert transformed is None
    else:
        assert transformed == pytest.approx(base, abs=1e-12)


def test_ap_is_one_iff_positives_outrank_negatives():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        ap = average_precision(scores, labels)
        if ap is None:
            continue
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        ranked = [labels[i] for i in order]
        perfect = all(
            ranked[i] >= ranked[j] for i in range(n) for j in range(i + 1, n)
        )
        assert (ap == 1.0) == perfect


def _instances(scores, labels, class_ids=None):
    scores = np.asarray(scores, dtype=float)
    class_ids = class_ids or list(range(scores.shape[1]))
    return EvalInstances(
        [f"img{i}" for i in range(scores.shape[0])], class_ids, scores, np.asarray(labels)
    )


def test_mean_ap_single_perfect_class():
    inst = _instances([[0.9], [0.1]], [[1], [0]])
    per_class, value, skipped = mean_ap(inst)
    assert value == 1.0 and per_class == {0: 1.0} and skipped == []


def test_mean_ap_unweighted_mean():
    inst = _instances(
        [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]],
        [[1, 0], [0, 1], [0, 1]],
    )
    per_class, value, _ = mean_ap(inst)
    assert value == pytest.approx((per_class[0] + per_class[1]) / 2)


def test_mean_ap_skips_and_errors():
    inst = _instances([[0.9, 0.5]], [[1, 0]])
    per_class, value, skipped = mean_ap(inst)
    assert skipped == [(1, "no positives")]
    inst_all_neg = _instances([[0.9]], [[0]])
    with pytest.raises(MetricsError):
        mean_ap(inst_all_neg)


def test_mean_ap_class_filter():
    inst = _instances([[0.9, 0.9], [0.1, 0.1]], [[1, 1], [0, 0]])
    per_class, _, skipped = mean_ap(inst, class_filter={1})
    assert set(per_class) == {1}
    assert skipped == [(0, "excluded by filter")]


def test_unannotated_negative_vs_excluded():
    # one unannotated cell scoring above the positive hurts AP when negative
    inst = _instances([[0.9], [0.8]], [[-1], [1]])
    _, as_negative, _ = mean_ap(inst, unannotated_as_negative=True)
    _, excluded, _ = mean_ap(inst, unannotated_as_negative=False)
    assert as_negative == 0.5
    assert excluded == 1.0


def test_mean_ap_duplicated_classes_invariant():
    rng = np.random.default_rng(5)
    scores = rng.uniform(size=(10, 3))
    labels = (rng.uniform(size=(10, 3)) < 0.5).astype(int)
    inst = _instances(scores, labels)
    doubled = _instances(
        np.hstack([scores, scores]), np.hstack([labels, labels]), class_ids=[0, 1, 2, 10, 11, 12]
    )
    _, base, _ = mean_ap(inst)
    _, dup, _ = mean_ap(doubled)
    assert dup == pytest.approx(base, abs=1e-12)


def test_pr_threshold_below_everything():
    inst = _instances([[0.5, 0.6], [0.7, 0.8]], [[1, 1], [1, 1]])
    pr = precision_recall(inst, ThresholdProfile(-1.0))
    assert pr.micro_precision == 1.0 and pr.micro_recall == 1.0
    assert pr.macro_precision == 1.0 and pr.macro_recall == 1.0


def test_pr_threshold_above_everything():
    inst = _instances([[0.5], [0.7]], [[1], [1]])
    pr = precision_recall(inst, ThresholdProfile(0.99))
    assert pr.micro_recall == 0.0
    assert pr.micro_precision == 1.0  # zero predictions: 0/0 convention


def test_pr_matches_confusion_recount():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n, c = int(rng.integers(1, 15)), int(rng.integers(1, 6))
        scores = rng.uniform(-1, 1, size=(n, c))
        labels = rng.integers(0, 2, size=(n, c))
        if not (labels == 1).any():
            continue
        thresholds = {cid: float(rng.uniform(-1, 1)) for cid in range(c)}
        profile = ThresholdProfile(0.0, thresholds)
        pr = precision_recall(_instances(scores, labels), profile)

        tp = fp = fn = 0
        per_class_p, per_class_r = [], []
        for col in range(c):
            ctp = cfp = cfn = 0
            for row in range(n):
                predicted = scores[row, col] >= thresholds[col]
                positive = labels[row, col] == 1
                ctp += predicted and positive
                cfp += predicted and not positive
                cfn += (not predicted) and positive
            tp, fp, fn = tp + ctp, fp + cfp, fn + cfn
            if ctp + cfn > 0:
                per_class_p.append(ctp / (ctp + cfp) if ctp + cfp else 1.0)
                per_class_r.append(ctp / (ctp + cfn))
        assert pr.micro_precision == pytest.approx(tp / (tp + fp) if tp + fp else 1.0, abs=1e-12)
        assert pr.micro_recall == pytest.approx(tp / (tp + fn) if tp + fn else 1.0, abs=1e-12)
        assert pr.macro_precision == pytest.approx(float(np.mean(per_class_p)), abs=1e-12)
        assert pr.macro_recall == pytest.approx(float(np.mean(per_class_r)), abs=1e-12)


def test_micro_recall_non_increasing_in_threshold():
    rng = np.random.default_rng(7)
    inst = _instances(
        rng.uniform(-1, 1, size=(20, 4)), rng.integers(0, 2, size=(20, 4))
    )
    previous = None
    for t in np.linspace(-1, 1, 21):
        pr = precision_recall(inst, ThresholdProfile(float(t)))
        if previous is not None:
            assert pr.micro_recall <= previous + 1e-12
        previous = pr.micro_recall


def test_load_eval_instances_and_report(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    pred.write_text(
        '{"image_id": "a", "scores": {"0": 0.9, "1": 0.2}}\n'
        '{"image_id": "b", "scores": {"0": 0.1}}\n'
    )
    gt.write_text(
        '{"image_id": "a", "positive": [0], "negative": [1]}\n'
        '{"image_id": "b", "positive": [1], "negative": [0]}\n'
    )
    inst = load_eval_instances(pred, gt)
    assert inst.image_ids == ["a", "b"]
    assert inst.class_ids == [0, 1]
    # missing score for (b, 1) ranks last: class 1 AP = 1/2
    report = evaluate(inst, ThresholdProfile(0.5))
    assert report.per_class_ap[0] == 1.0
    assert report.per_class_ap[1] == 0.5
    out = tmp_path / "report.tsv"
    write_report(report, out)
    text = out.read_text()
    assert "#mAP\t0.750000" in text
    assert text.startswith("class_id\tap\n")


def test_load_eval_instances_dedupes_by_image(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    pred.write_text(
        '{"image_id": "a", "scores": {"0": 0.1}}\n'
        '{"image_id": "a", "scores": {"0": 0.9}}\n'
    )
    gt.write_text('{"image_id": "a", "positive": [0]}\n')
    inst = load_eval_instances(pred, gt)
    assert inst.scores[0, 0] == 0.9


@pytest.mark.parametrize(
    "field", ['"positive": "12"', '"negative": "12"', '"positive": {"1": 1}', '"negative": 3',
              '"positive": null']
)
def test_ground_truth_class_lists_must_be_lists(tmp_path, field):
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    pred.write_text('{"image_id": "a", "scores": {"1": 0.5, "2": 0.5, "12": 0.5}}\n')
    gt.write_text('{"image_id": "b", "positive": [1]}\n' f'{{"image_id": "a", {field}}}\n')
    with pytest.raises(MetricsError, match=f"{gt}:2: malformed ground-truth record"):
        load_eval_instances(pred, gt)
    gt.write_text('{"image_id": "b", "positive": [1]}\n{"image_id": "a", "positive": [12]}\n')
    assert load_eval_instances(pred, gt).class_ids == [1, 2, 12]
